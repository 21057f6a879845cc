#include "campaign/runner.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "attack/one_burst_attacker.h"
#include "attack/successive_attacker.h"
#include "common/files.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/degraded_substrate.h"
#include "core/design.h"
#include "core/one_burst_model.h"
#include "core/successive_model.h"
#include "experiments/figure.h"
#include "faults/fault_injector.h"
#include "sim/monte_carlo.h"
#include "sim/sampling.h"

namespace sos::campaign {

namespace {

/// Sweep points computed per batch; each batch is checkpointed in order.
constexpr std::size_t kSweepBatch = 16;

std::string fmt(double value) { return common::format_double(value, 4); }

std::string csv_line(const std::vector<std::string>& cells) {
  std::vector<std::string> escaped;
  escaped.reserve(cells.size());
  for (const auto& cell : cells) escaped.push_back(common::csv_escape(cell));
  return common::join(escaped, ",") + "\n";
}

core::SosDesign sweep_design(const ScenarioSpec& spec,
                             const CampaignPoint& point) {
  return core::SosDesign::make(spec.total_overlay, spec.sos_nodes,
                               point.layers, spec.filters,
                               core::MappingPolicy::parse(point.mapping),
                               core::NodeDistribution::parse(spec.distribution));
}

core::OneBurstAttack one_burst_attack(const ScenarioSpec& spec,
                                      const CampaignPoint& point) {
  return core::OneBurstAttack{point.break_in, point.congestion, spec.p_break};
}

core::SuccessiveAttack successive_attack(const ScenarioSpec& spec,
                                         const CampaignPoint& point) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = point.break_in;
  attack.congestion_budget = point.congestion;
  attack.break_in_success = spec.p_break;
  attack.prior_knowledge = spec.prior_knowledge;
  attack.rounds = spec.rounds;
  return attack;
}

/// Monte Carlo attack closure for one sweep point: the attacker, then the
/// steady-state benign faults (a disabled FaultConfig draws nothing, so
/// fault-free campaigns stay bit-identical to plain attacker runs). Same
/// composition order as ext_fault_tolerance.
sim::AttackFn sweep_attack_fn(const ScenarioSpec& spec,
                              const CampaignPoint& point) {
  const faults::FaultConfig fault_config = spec.faults;
  if (spec.successive()) {
    const attack::SuccessiveAttacker attacker{successive_attack(spec, point)};
    return [attacker, fault_config](sosnet::SosOverlay& overlay,
                                    common::Rng& rng) {
      auto outcome = attacker.execute(overlay, rng);
      faults::apply_steady_state_faults(fault_config, overlay, rng);
      return outcome;
    };
  }
  const attack::OneBurstAttacker attacker{one_burst_attack(spec, point)};
  return [attacker, fault_config](sosnet::SosOverlay& overlay,
                                  common::Rng& rng) {
    auto outcome = attacker.execute(overlay, rng);
    faults::apply_steady_state_faults(fault_config, overlay, rng);
    return outcome;
  };
}

/// True when sweep rows carry a Monte Carlo column block — a fixed trial
/// count or an auto stopping rule.
bool mc_enabled(const ScenarioSpec& spec) {
  return spec.auto_trials.enabled || spec.mc_trials > 0;
}

/// One adaptive point: builds the spec's StoppingRule and runs the
/// configured sim::sampling estimator (which parallelizes its trials over
/// `pool` internally). Deterministic in (spec, point) alone, so cached,
/// resumed, and distributed executions agree byte-for-byte.
sim::MonteCarloResult run_auto_point(const ScenarioSpec& spec,
                                     const CampaignPoint& point,
                                     common::ThreadPool& pool) {
  const ScenarioSpec::AutoTrials& auto_trials = spec.auto_trials;
  sim::sampling::StoppingRule rule;
  rule.ci_half_width = auto_trials.ci;
  rule.relative = auto_trials.relative;
  rule.max_trials = auto_trials.max_trials;

  sim::MonteCarloConfig config;
  config.walks_per_trial = spec.mc_walks;
  config.seed = spec.seed;
  config.pool = &pool;

  const auto design = sweep_design(spec, point);
  if (auto_trials.estimator == "sequential") {
    return sim::sampling::run_sequential(design, sweep_attack_fn(spec, point),
                                         config, rule);
  }
  // Stratified: validate() pinned attacker == one-burst, and the benign
  // faults ride the post-attack hook (the same attack-then-faults order
  // sweep_attack_fn composes).
  const faults::FaultConfig fault_config = spec.faults;
  const sim::sampling::PostAttackFn post_attack =
      [fault_config](sosnet::SosOverlay& overlay, common::Rng& rng) {
        faults::apply_steady_state_faults(fault_config, overlay, rng);
      };
  return sim::sampling::run_stratified(design, one_burst_attack(spec, point),
                                       config, rule, {}, post_attack);
}

double sweep_model_value(const ScenarioSpec& spec, const CampaignPoint& point) {
  const auto design = sweep_design(spec, point);
  const core::SubstrateFaults substrate{spec.faults.steady_state_node_up(),
                                        spec.faults.steady_state_filter_up(),
                                        1.0};
  if (spec.successive()) {
    const auto attack = successive_attack(spec, point);
    return substrate.ideal()
               ? core::SuccessiveModel::p_success(design, attack)
               : core::DegradedSubstrateModel::successive(design, attack,
                                                          substrate);
  }
  const auto attack = one_burst_attack(spec, point);
  return substrate.ideal()
             ? core::OneBurstModel::p_success(design, attack)
             : core::DegradedSubstrateModel::one_burst(design, attack,
                                                       substrate);
}

/// The cells every sweep row starts with: N_T, N_C, mapping, L.
std::vector<std::string> axis_cells(const CampaignPoint& point) {
  return {std::to_string(point.break_in), std::to_string(point.congestion),
          point.mapping, std::to_string(point.layers)};
}

std::string sweep_row(const ScenarioSpec& spec, const CampaignPoint& point,
                      double model, const sim::MonteCarloResult* mc) {
  std::vector<std::string> cells = axis_cells(point);
  cells.push_back(fmt(model));
  if (mc_enabled(spec)) {
    if (mc == nullptr)
      throw std::logic_error("CampaignRunner: missing MC result for " +
                             point.key);
    cells.insert(cells.end(),
                 {fmt(mc->p_success), fmt(mc->ci.lo), fmt(mc->ci.hi)});
    if (spec.auto_trials.enabled) {
      // The resolved count makes an auto row self-describing: resuming or
      // re-running the campaign reproduces these bytes without re-deriving
      // the stopping decision from scratch elsewhere.
      cells.push_back(std::to_string(mc->resolved_trials));
    }
  }
  return csv_line(cells);
}

std::vector<std::string> sweep_headers(const ScenarioSpec& spec) {
  std::vector<std::string> headers{"N_T", "N_C", "mapping", "L", "P_S_model"};
  if (mc_enabled(spec)) {
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
    if (spec.auto_trials.enabled)
      headers.push_back("mc_trials_resolved");
  }
  return headers;
}

/// A quarantined point's row: its axis values, every result column NA.
std::string sweep_na_row(const ScenarioSpec& spec, const CampaignPoint& point) {
  std::vector<std::string> cells = axis_cells(point);
  cells.resize(sweep_headers(spec).size(), "NA");
  return csv_line(cells);
}

const RegisteredFigure& registered_figure(const CampaignPoint& point) {
  const RegisteredFigure* entry = find_figure(point.figure_id);
  // expand() already verified every id; keep the invariant loud.
  if (entry == nullptr)
    throw std::logic_error("CampaignRunner: unregistered figure '" +
                           point.figure_id + "'");
  return *entry;
}

}  // namespace

CampaignRunner::CampaignRunner(ScenarioSpec spec, CampaignOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      store_(options_.store_dir) {
  spec_.validate();
  points_ = expand(spec_);
  digests_.reserve(points_.size());
  for (const auto& point : points_)
    digests_.push_back(point_digest(spec_, point));
}

std::string CampaignRunner::manifest_text() const {
  std::string out;
  out += "sos-campaign-manifest v1\n";
  out += "campaign = " + spec_.name + "\n";
  out += "spec_digest = " + spec_digest(spec_) + "\n";
  out += "seed = " + std::to_string(spec_.seed) + "\n";
  out += "points = " + std::to_string(points_.size()) + "\n";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    out += std::to_string(i) + "\t" + digests_[i] + "\t" + points_[i].key +
           "\n";
  }
  return out;
}

CampaignReport CampaignRunner::status() const {
  CampaignReport report;
  report.total = static_cast<int>(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PointStatus status{points_[i], digests_[i], store_.has(digests_[i]),
                       false};
    if (status.done) {
      ++report.cached;
    } else if (auto failure = store_.load_failure(digests_[i])) {
      // An object always wins over a stale quarantine record, so only
      // not-done points count as quarantined.
      status.quarantined = true;
      ++report.quarantined;
      report.failures.push_back(std::move(*failure));
    }
    report.points.push_back(std::move(status));
  }
  return report;
}

std::vector<std::string> compute_points(const ScenarioSpec& spec,
                                        const std::vector<CampaignPoint>& points,
                                        common::ThreadPool& pool) {
  std::vector<std::string> bytes;
  bytes.reserve(points.size());
  if (spec.mode == ScenarioSpec::Mode::kFigures) {
    for (const CampaignPoint& point : points)
      bytes.push_back(
          experiments::render_figure(registered_figure(point).generate(
              spec.params_with_trials(point.mc_trials))));
    return bytes;
  }

  // Auto trials point by point: each estimator run parallelizes its own
  // trials over the pool.
  std::vector<sim::MonteCarloResult> mc;
  if (spec.auto_trials.enabled) {
    for (const CampaignPoint& point : points)
      mc.push_back(run_auto_point(spec, point, pool));
  } else if (spec.mc_trials > 0) {
    sim::MonteCarloConfig config;
    config.trials = spec.mc_trials;
    config.walks_per_trial = spec.mc_walks;
    config.seed = spec.seed;
    std::vector<sim::MonteCarloPoint> batch;
    batch.reserve(points.size());
    for (const CampaignPoint& point : points)
      batch.push_back({sweep_design(spec, point), sweep_attack_fn(spec, point),
                       config});
    mc = sim::run_monte_carlo(batch, &pool);
  }

  // The analytic column inline: a closed form costs about a microsecond,
  // less than a round trip through the pool.
  for (std::size_t i = 0; i < points.size(); ++i)
    bytes.push_back(sweep_row(spec, points[i],
                              sweep_model_value(spec, points[i]),
                              mc.empty() ? nullptr : &mc[i]));
  return bytes;
}

CampaignReport CampaignRunner::run() {
  store_.write_manifest(manifest_text());

  std::vector<int> pending;
  int cached = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (store_.has(digests_[i])) {
      ++cached;
    } else {
      pending.push_back(static_cast<int>(i));
    }
  }

  // A figure is checkpointed as soon as it is rendered; sweep points go in
  // batches whose trials share one Monte Carlo pass.
  const std::size_t batch_size =
      spec_.mode == ScenarioSpec::Mode::kFigures ? 1 : kSweepBatch;
  int computed = 0;
  for (std::size_t begin = 0; begin < pending.size(); begin += batch_size) {
    const std::size_t end = std::min(pending.size(), begin + batch_size);
    std::vector<CampaignPoint> batch;
    for (std::size_t i = begin; i < end; ++i)
      batch.push_back(points_[static_cast<std::size_t>(pending[i])]);
    const auto bytes = compute_points(spec_, batch, pool());

    // Durable checkpoints, in expansion order within the batch.
    for (std::size_t i = begin; i < end; ++i) {
      store_.put(digests_[static_cast<std::size_t>(pending[i])],
                 bytes[i - begin]);
      ++computed;
      if (options_.checkpoint_hook) options_.checkpoint_hook(computed);
    }
  }

  CampaignReport report = status();
  report.cached = cached;
  report.computed = computed;
  return report;
}

std::string CampaignRunner::compute_point_bytes(int index) const {
  return compute_points(spec_, {points_.at(static_cast<std::size_t>(index))},
                        pool())
      .front();
}

common::ThreadPool& CampaignRunner::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : common::ThreadPool::shared();
}

std::string CampaignRunner::loaded(int index) const {
  const std::string& digest = digests_.at(static_cast<std::size_t>(index));
  const auto content = store_.load(digest);
  if (!content) {
    if (store_.has_corrupt(digest))
      throw StoreCorruptError(
          "CampaignRunner: result object for point '" +
          points_[static_cast<std::size_t>(index)].key +
          "' is corrupt and quarantined — run `sos_campaign fsck` then rerun "
          "to recompute it");
    throw std::runtime_error(
        "CampaignRunner: missing result object for point '" +
        points_[static_cast<std::size_t>(index)].key + "' — run() first");
  }
  return *content;
}

std::string CampaignRunner::figure_render(const std::string& figure_id) const {
  for (const auto& point : points_)
    if (point.figure_id == figure_id) return loaded(point.index);
  throw std::invalid_argument("CampaignRunner: figure '" + figure_id +
                              "' is not part of campaign '" + spec_.name +
                              "'");
}

std::string CampaignRunner::figure_csv(const std::string& figure_id) const {
  return experiments::extract_figure_csv(figure_render(figure_id));
}

std::string CampaignRunner::sweep_csv() const {
  std::string out = csv_line(sweep_headers(spec_));
  for (const auto& point : points_) {
    const std::string& digest =
        digests_[static_cast<std::size_t>(point.index)];
    if (auto content = store_.load(digest)) {
      out += *content;
    } else if (store_.is_quarantined(digest)) {
      out += sweep_na_row(spec_, point);  // degraded mode: keep the row, mark NA
    } else {
      out += loaded(point.index);  // pending — throws with the point key
    }
  }
  return out;
}

std::vector<std::string> CampaignRunner::write_outputs(
    const std::string& results_dir) const {
  std::error_code error;
  std::filesystem::create_directories(results_dir, error);
  if (error)
    throw std::runtime_error("CampaignRunner: cannot create results dir '" +
                             results_dir + "'");
  std::vector<std::string> written;
  const auto emit = [&](const std::string& name, const std::string& content) {
    const std::string path =
        (std::filesystem::path(results_dir) / name).string();
    common::write_file_atomic(path, content);
    written.push_back(path);
  };

  if (spec_.mode == ScenarioSpec::Mode::kSweep) {
    emit(spec_.name + ".csv", sweep_csv());
    return written;
  }
  for (const auto& point : points_) {
    const std::string& digest =
        digests_[static_cast<std::size_t>(point.index)];
    if (!store_.has(digest) && store_.is_quarantined(digest))
      continue;  // degraded mode: a quarantined figure has no bytes to emit
    const RegisteredFigure& entry = registered_figure(point);
    const std::string render = loaded(point.index);
    emit(std::string(entry.bench_name) + ".txt", render);
    emit(std::string(entry.bench_name) + ".csv",
         experiments::extract_figure_csv(render));
  }
  return written;
}

}  // namespace sos::campaign
