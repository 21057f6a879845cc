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
#include "sim/sampling.h"
#include "sim/sweep.h"

namespace sos::campaign {

namespace {

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

  int computed = 0;
  if (spec_.mode == ScenarioSpec::Mode::kFigures) {
    run_figure_points(pending, computed);
  } else {
    run_sweep_points(pending, computed);
  }

  CampaignReport report = status();
  report.cached = cached;
  report.computed = computed;
  return report;
}

void CampaignRunner::run_figure_points(const std::vector<int>& pending,
                                       int& computed) {
  for (const int index : pending) {
    const CampaignPoint& point = points_[static_cast<std::size_t>(index)];
    const RegisteredFigure* entry = find_figure(point.figure_id);
    // expand() already verified every id; keep the invariant loud.
    if (entry == nullptr)
      throw std::logic_error("CampaignRunner: unregistered figure '" +
                             point.figure_id + "'");
    const auto figure =
        entry->generate(spec_.params_with_trials(point.mc_trials));
    store_.put(digests_[static_cast<std::size_t>(index)],
               experiments::render_figure(figure));
    ++computed;
    if (options_.checkpoint_hook) options_.checkpoint_hook(computed);
  }
}

void CampaignRunner::run_sweep_points(const std::vector<int>& pending,
                                      int& computed) {
  common::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : common::ThreadPool::shared();
  const int interval = std::max(1, options_.checkpoint_interval);

  for (std::size_t chunk_begin = 0; chunk_begin < pending.size();
       chunk_begin += static_cast<std::size_t>(interval)) {
    const std::size_t chunk_end =
        std::min(pending.size(),
                 chunk_begin + static_cast<std::size_t>(interval));
    const int chunk_size = static_cast<int>(chunk_end - chunk_begin);

    // Analytic column: slot per point, any scheduling yields the same bytes.
    std::vector<double> model(static_cast<std::size_t>(chunk_size), 0.0);
    pool.parallel_for(chunk_size, 0, [&](int i, int) {
      model[static_cast<std::size_t>(i)] = sweep_model_value(
          points_[static_cast<std::size_t>(
              pending[chunk_begin + static_cast<std::size_t>(i)])]);
    });

    // Monte Carlo overlay: fixed trials via the trial-indexed deterministic
    // reduction; auto trials point by point (each estimator run parallelizes
    // its own trials over the pool, so the points run serially here).
    sim::SweepRunner runner{&pool};
    std::vector<int> mc_index(static_cast<std::size_t>(chunk_size), -1);
    std::vector<sim::MonteCarloResult> auto_results;
    if (spec_.auto_trials.enabled) {
      auto_results.resize(static_cast<std::size_t>(chunk_size));
      for (int i = 0; i < chunk_size; ++i) {
        const CampaignPoint& point = points_[static_cast<std::size_t>(
            pending[chunk_begin + static_cast<std::size_t>(i)])];
        auto_results[static_cast<std::size_t>(i)] =
            run_auto_point(point, pool);
        mc_index[static_cast<std::size_t>(i)] = i;
      }
    } else if (spec_.mc_trials > 0) {
      sim::MonteCarloConfig config;
      config.trials = spec_.mc_trials;
      config.walks_per_trial = spec_.mc_walks;
      config.seed = spec_.seed;
      config.pool = &pool;
      for (int i = 0; i < chunk_size; ++i) {
        const CampaignPoint& point = points_[static_cast<std::size_t>(
            pending[chunk_begin + static_cast<std::size_t>(i)])];
        mc_index[static_cast<std::size_t>(i)] = runner.add(
            sweep_design(spec_, point), sweep_attack_fn(spec_, point), config);
      }
      runner.run();
    }

    // Durable checkpoints, in expansion order within the chunk.
    for (int i = 0; i < chunk_size; ++i) {
      const int index = pending[chunk_begin + static_cast<std::size_t>(i)];
      const CampaignPoint& point = points_[static_cast<std::size_t>(index)];
      const sim::MonteCarloResult* mc = nullptr;
      if (mc_index[static_cast<std::size_t>(i)] >= 0) {
        mc = spec_.auto_trials.enabled
                 ? &auto_results[static_cast<std::size_t>(
                       mc_index[static_cast<std::size_t>(i)])]
                 : &runner.result(mc_index[static_cast<std::size_t>(i)]);
      }
      store_.put(digests_[static_cast<std::size_t>(index)],
                 sweep_row(point, model[static_cast<std::size_t>(i)], mc));
      ++computed;
      if (options_.checkpoint_hook) options_.checkpoint_hook(computed);
    }
  }
}

std::string CampaignRunner::compute_point_bytes(int index) const {
  const CampaignPoint& point = points_.at(static_cast<std::size_t>(index));

  if (spec_.mode == ScenarioSpec::Mode::kFigures) {
    const RegisteredFigure* entry = find_figure(point.figure_id);
    if (entry == nullptr)
      throw std::logic_error("CampaignRunner: unregistered figure '" +
                             point.figure_id + "'");
    return experiments::render_figure(
        entry->generate(spec_.params_with_trials(point.mc_trials)));
  }

  const double model = sweep_model_value(point);
  if (spec_.auto_trials.enabled) {
    common::ThreadPool& pool = options_.pool != nullptr
                                   ? *options_.pool
                                   : common::ThreadPool::shared();
    const sim::MonteCarloResult mc = run_auto_point(point, pool);
    return sweep_row(point, model, &mc);
  }
  if (spec_.mc_trials <= 0) return sweep_row(point, model, nullptr);

  common::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : common::ThreadPool::shared();
  sim::SweepRunner runner{&pool};
  sim::MonteCarloConfig config;
  config.trials = spec_.mc_trials;
  config.walks_per_trial = spec_.mc_walks;
  config.seed = spec_.seed;
  config.pool = &pool;
  const int slot = runner.add(sweep_design(spec_, point),
                              sweep_attack_fn(spec_, point), config);
  runner.run();
  return sweep_row(point, model, &runner.result(slot));
}

bool CampaignRunner::mc_enabled() const noexcept {
  return spec_.auto_trials.enabled || spec_.mc_trials > 0;
}

sim::MonteCarloResult CampaignRunner::run_auto_point(
    const CampaignPoint& point, common::ThreadPool& pool) const {
  const ScenarioSpec::AutoTrials& auto_trials = spec_.auto_trials;
  sim::sampling::StoppingRule rule;
  rule.ci_half_width = auto_trials.ci;
  rule.relative = auto_trials.relative;
  rule.max_trials = auto_trials.max_trials;

  sim::MonteCarloConfig config;
  config.walks_per_trial = spec_.mc_walks;
  config.seed = spec_.seed;
  config.pool = &pool;

  const auto design = sweep_design(spec_, point);
  if (auto_trials.estimator == "sequential") {
    return sim::sampling::run_sequential(design, sweep_attack_fn(spec_, point),
                                         config, rule);
  }
  // Stratified: validate() pinned attacker == one-burst, and the benign
  // faults ride the post-attack hook (the same attack-then-faults order
  // sweep_attack_fn composes).
  const faults::FaultConfig fault_config = spec_.faults;
  const sim::sampling::PostAttackFn post_attack =
      [fault_config](sosnet::SosOverlay& overlay, common::Rng& rng) {
        faults::apply_steady_state_faults(fault_config, overlay, rng);
      };
  return sim::sampling::run_stratified(design, one_burst_attack(spec_, point),
                                       config, rule, {}, post_attack);
}

double CampaignRunner::sweep_model_value(const CampaignPoint& point) const {
  const auto design = sweep_design(spec_, point);
  const core::SubstrateFaults substrate{spec_.faults.steady_state_node_up(),
                                        spec_.faults.steady_state_filter_up(),
                                        1.0};
  if (spec_.successive()) {
    const auto attack = successive_attack(spec_, point);
    return substrate.ideal()
               ? core::SuccessiveModel::p_success(design, attack)
               : core::DegradedSubstrateModel::successive(design, attack,
                                                          substrate);
  }
  const auto attack = one_burst_attack(spec_, point);
  return substrate.ideal()
             ? core::OneBurstModel::p_success(design, attack)
             : core::DegradedSubstrateModel::one_burst(design, attack,
                                                       substrate);
}

std::string CampaignRunner::sweep_row(const CampaignPoint& point, double model,
                                      const sim::MonteCarloResult* mc) const {
  std::vector<std::string> cells{
      std::to_string(point.break_in), std::to_string(point.congestion),
      point.mapping, std::to_string(point.layers), fmt(model)};
  if (mc_enabled()) {
    if (mc == nullptr)
      throw std::logic_error("CampaignRunner: missing MC result for " +
                             point.key);
    cells.insert(cells.end(),
                 {fmt(mc->p_success), fmt(mc->ci.lo), fmt(mc->ci.hi)});
    if (spec_.auto_trials.enabled) {
      // The resolved count makes an auto row self-describing: resuming or
      // re-running the campaign reproduces these bytes without re-deriving
      // the stopping decision from scratch elsewhere.
      cells.push_back(std::to_string(mc->resolved_trials));
    }
  }
  return csv_line(cells);
}

std::string CampaignRunner::sweep_na_row(const CampaignPoint& point) const {
  std::vector<std::string> cells{
      std::to_string(point.break_in), std::to_string(point.congestion),
      point.mapping, std::to_string(point.layers), "NA"};
  if (mc_enabled()) {
    cells.insert(cells.end(), {"NA", "NA", "NA"});
    if (spec_.auto_trials.enabled) cells.push_back("NA");
  }
  return csv_line(cells);
}

std::vector<std::string> CampaignRunner::sweep_headers() const {
  std::vector<std::string> headers{"N_T", "N_C", "mapping", "L", "P_S_model"};
  if (mc_enabled()) {
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
    if (spec_.auto_trials.enabled)
      headers.push_back("mc_trials_resolved");
  }
  return headers;
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
  std::string out = csv_line(sweep_headers());
  for (const auto& point : points_) {
    const std::string& digest =
        digests_[static_cast<std::size_t>(point.index)];
    if (auto content = store_.load(digest)) {
      out += *content;
    } else if (store_.is_quarantined(digest)) {
      out += sweep_na_row(point);  // degraded mode: keep the row, mark NA
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
    const RegisteredFigure* entry = find_figure(point.figure_id);
    const std::string render = loaded(point.index);
    emit(std::string(entry->bench_name) + ".txt", render);
    emit(std::string(entry->bench_name) + ".csv",
         experiments::extract_figure_csv(render));
  }
  return written;
}

}  // namespace sos::campaign
