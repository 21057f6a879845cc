#include "campaign/optimize_runner.h"

#include <filesystem>
#include <stdexcept>

#include "common/files.h"
#include "common/strings.h"

namespace sos::campaign {

namespace {

std::string fmt(double value) { return common::format_double(value, 4); }

/// Campaign-name-safe rendering of a label: anything outside the spec-name
/// charset (letters, digits, '_', '-', '.') becomes '.'.
std::string sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) c = '.';
  }
  return out;
}

/// Splits one stored sweep row ("N_T,N_C,mapping,L,P_S_model[,mc,lo,hi]\n")
/// into cells. Validation rows never contain quoted cells (mapping labels
/// have no commas), so a plain split is exact.
std::vector<std::string> row_cells(std::string row) {
  while (!row.empty() && (row.back() == '\n' || row.back() == '\r'))
    row.pop_back();
  return common::split(row, ',');
}

}  // namespace

OptimizeRunner::OptimizeRunner(optimize::OptimizeSpec spec,
                               OptimizeOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  spec_.validate();
  if (options_.store_dir.empty())
    throw std::invalid_argument(
        "OptimizeRunner: bad store_dir '' (accepted: a writable directory "
        "path)");
  ResultStore store(options_.store_dir);  // create/verify eagerly
  (void)store;
}

ScenarioSpec OptimizeRunner::winner_spec(
    const optimize::OptimizeSpec& spec,
    const optimize::EvaluatedDesign& winner) {
  ScenarioSpec validation;
  validation.name = sanitize(spec.name) + "-L" +
                    std::to_string(winner.point.layers) + "-n" +
                    std::to_string(winner.point.sos_nodes) + "-" +
                    sanitize(winner.point.mapping) + "-" +
                    sanitize(winner.point.distribution);
  validation.mode = ScenarioSpec::Mode::kSweep;
  validation.total_overlay = spec.space.total_overlay_nodes;
  validation.sos_nodes = winner.point.sos_nodes;
  validation.filters = spec.space.filter_count;
  validation.p_break = spec.objective.budget.break_in_success;
  validation.mc_trials = spec.validate_trials;
  validation.mc_walks = spec.mc_walks;
  validation.seed = spec.seed;
  validation.attacker =
      optimize::attacker_model_label(spec.objective.model);
  validation.layers = {winner.point.layers};
  validation.mappings = {winner.point.mapping};
  validation.distribution = winner.point.distribution;
  validation.break_in = {winner.worst.break_in_budget};
  validation.congestion = {winner.worst.congestion_budget};
  validation.rounds = spec.objective.budget.rounds;
  validation.prior_knowledge = spec.objective.budget.prior_knowledge;
  validation.validate();
  return validation;
}

optimize::SearchResult OptimizeRunner::run_search() const {
  switch (spec_.resolved_searcher()) {
    case optimize::OptimizeSpec::Searcher::kAnneal: {
      optimize::AnnealOptions anneal = spec_.anneal;
      anneal.pool = options_.pool;
      return optimize::anneal_search(spec_.space, spec_.cost,
                                     spec_.objective, anneal);
    }
    case optimize::OptimizeSpec::Searcher::kExhaustive:
    case optimize::OptimizeSpec::Searcher::kAuto:
    default: {
      optimize::ExhaustiveOptions exhaustive;
      exhaustive.pool = options_.pool;
      return optimize::exhaustive_search(spec_.space, spec_.cost,
                                         spec_.objective, exhaustive);
    }
  }
}

OptimizeReport OptimizeRunner::run() {
  return assemble(run_search(), !options_.search_only);
}

OptimizeReport OptimizeRunner::status() {
  return assemble(run_search(), false);
}

OptimizeReport OptimizeRunner::assemble(optimize::SearchResult search,
                                        bool validate) {
  OptimizeReport report;
  report.search = std::move(search);
  report.winners.reserve(report.search.frontier.size());

  for (const optimize::EvaluatedDesign& winner : report.search.frontier) {
    WinnerStatus status;
    status.design = winner;
    ScenarioSpec validation = winner_spec(spec_, winner);
    status.campaign = validation.name;

    if (validate && options_.distributed) {
      RemotePoolOptions distributed = *options_.distributed;
      distributed.store_dir = options_.store_dir;
      RemoteWorkerPool pool(validation, distributed);
      const CampaignReport campaign = pool.run();
      status.attempts = 1 + campaign.retried;
      finish_winner(status, pool.runner(), campaign, report);
      continue;
    }

    CampaignOptions in_process;
    in_process.store_dir = options_.store_dir;
    in_process.pool = options_.pool;
    CampaignRunner runner(std::move(validation), in_process);
    const CampaignReport campaign = validate ? runner.run() : runner.status();
    status.attempts = campaign.computed > 0 ? 1 : 0;
    finish_winner(status, runner, campaign, report);
  }
  return report;
}

void OptimizeRunner::finish_winner(WinnerStatus& status,
                                   const CampaignRunner& runner,
                                   const CampaignReport& campaign,
                                   OptimizeReport& report) const {
  status.digest = runner.digest(0);
  status.done = !campaign.points.empty() && campaign.points.front().done;
  status.quarantined =
      !status.done && !campaign.points.empty() &&
      campaign.points.front().quarantined;

  if (status.done && spec_.validate_trials > 0) {
    const auto content = runner.store().load(status.digest);
    if (!content)
      throw std::runtime_error(
          "OptimizeRunner: winner object vanished for campaign '" +
          status.campaign + "'");
    const std::vector<std::string> cells = row_cells(*content);
    // N_T, N_C, mapping, L, P_S_model, P_S_mc, mc_ci_lo, mc_ci_hi
    if (cells.size() < 8)
      throw std::runtime_error(
          "OptimizeRunner: malformed validation row for campaign '" +
          status.campaign + "'");
    status.p_mc = std::stod(cells[5]);
    status.ci_lo = std::stod(cells[6]);
    status.ci_hi = std::stod(cells[7]);
  }

  if (status.done)
    ++report.validated;
  else if (status.quarantined)
    ++report.quarantined;
  else
    ++report.pending;
  report.winners.push_back(std::move(status));
}

std::string OptimizeRunner::frontier_csv(const OptimizeReport& report) const {
  const bool mc = spec_.validate_trials > 0;
  std::string out =
      "rank,L,n,mapping,distribution,cost,N_T,N_C,fraction,P_S_model";
  if (mc) out += ",P_S_mc,mc_ci_lo,mc_ci_hi,validated";
  out += "\n";
  int rank = 0;
  for (const WinnerStatus& winner : report.winners) {
    const optimize::DesignPoint& point = winner.design.point;
    std::vector<std::string> cells{std::to_string(++rank),
                                   std::to_string(point.layers),
                                   std::to_string(point.sos_nodes),
                                   point.mapping,
                                   point.distribution,
                                   fmt(winner.design.cost),
                                   std::to_string(
                                       winner.design.worst.break_in_budget),
                                   std::to_string(
                                       winner.design.worst.congestion_budget),
                                   fmt(winner.design.worst.fraction),
                                   fmt(winner.design.p_success())};
    if (mc) {
      if (winner.done) {
        cells.insert(cells.end(), {fmt(winner.p_mc), fmt(winner.ci_lo),
                                   fmt(winner.ci_hi), "yes"});
      } else {
        cells.insert(cells.end(), {"NA", "NA", "NA",
                                   winner.quarantined ? "quarantined"
                                                      : "pending"});
      }
    }
    out += common::join(cells, ",") + "\n";
  }
  return out;
}

std::vector<std::string> OptimizeRunner::write_outputs(
    const OptimizeReport& report, const std::string& results_dir) const {
  std::error_code error;
  std::filesystem::create_directories(results_dir, error);
  if (error)
    throw std::runtime_error("OptimizeRunner: cannot create results dir '" +
                             results_dir + "'");
  const std::string path =
      (std::filesystem::path(results_dir) / (spec_.name + "_frontier.csv"))
          .string();
  common::write_file_atomic(path, frontier_csv(report));
  return {path};
}

}  // namespace sos::campaign
