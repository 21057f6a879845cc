// Internal helpers shared by the figure generators. Not installed API.
#pragma once

#include <functional>

#include "attack/one_burst_attacker.h"
#include "attack/random_congestion_attacker.h"
#include "attack/successive_attacker.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/design.h"
#include "core/one_burst_model.h"
#include "core/successive_model.h"
#include "experiments/figures.h"
#include "sim/monte_carlo.h"

namespace sos::experiments::detail {

inline core::SosDesign make_design(
    const Params& params, int layers, const core::MappingPolicy& mapping,
    const core::NodeDistribution& dist = core::NodeDistribution::even()) {
  return core::SosDesign::make(params.total_overlay, params.sos_nodes, layers,
                               params.filters, mapping, dist);
}

inline sim::MonteCarloConfig mc_config(const Params& params) {
  sim::MonteCarloConfig config;
  config.trials = params.mc_trials;
  config.walks_per_trial = params.mc_walks;
  config.seed = params.seed;
  return config;
}

inline sim::MonteCarloResult run_mc(const Params& params,
                                    const core::SosDesign& design,
                                    const core::OneBurstAttack& attack) {
  const attack::OneBurstAttacker attacker{attack};
  return sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      mc_config(params));
}

inline sim::MonteCarloResult run_mc(
    const Params& params, const core::SosDesign& design,
    const core::SuccessiveAttack& attack,
    const attack::SuccessiveAttackerOptions& options = {}) {
  const attack::SuccessiveAttacker attacker{attack, options};
  return sim::run_monte_carlo(
      design,
      [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
        return attacker.execute(overlay, rng);
      },
      mc_config(params));
}

/// Batched Monte Carlo for figure sweeps: queue every point first, run them
/// all as one pass over the shared ThreadPool, then read results in queue
/// order. Each point's result is bit-identical to the equivalent run_mc call.
class McBatch {
 public:
  explicit McBatch(const Params& params) : params_(params) {}

  int add(const core::SosDesign& design, const core::OneBurstAttack& attack) {
    const attack::OneBurstAttacker attacker{attack};
    return queue(design, [attacker](sosnet::SosOverlay& overlay,
                                    common::Rng& rng) {
      return attacker.execute(overlay, rng);
    });
  }

  int add(const core::SosDesign& design, const core::SuccessiveAttack& attack,
          const attack::SuccessiveAttackerOptions& options = {}) {
    const attack::SuccessiveAttacker attacker{attack, options};
    return queue(design, [attacker](sosnet::SosOverlay& overlay,
                                    common::Rng& rng) {
      return attacker.execute(overlay, rng);
    });
  }

  void run() { results_ = sim::run_monte_carlo(points_); }

  const sim::MonteCarloResult& result(int index) const {
    return results_.at(static_cast<std::size_t>(index));
  }

 private:
  int queue(const core::SosDesign& design, sim::AttackFn attack) {
    points_.push_back({design, std::move(attack), mc_config(params_)});
    return static_cast<int>(points_.size()) - 1;
  }

  Params params_;
  std::vector<sim::MonteCarloPoint> points_;
  std::vector<sim::MonteCarloResult> results_;
};

/// Batched closed-form evaluation for the figures' analytic columns: queue
/// every model point, run them all over the shared ThreadPool, then read the
/// values in queue order. Each point writes its own slot, so the columns are
/// bit-identical to serial per-point evaluation at any worker count. Points
/// must not use the shared pool themselves (a nested parallel_for on one
/// pool deadlocks) — in particular, don't queue BudgetFrontier::sweep or
/// analyze_sensitivity calls here.
class AnalyticBatch {
 public:
  int add(std::function<double()> point) {
    points_.push_back(std::move(point));
    return static_cast<int>(points_.size()) - 1;
  }

  int add(const core::SosDesign& design,
          const core::SuccessiveAttack& attack) {
    return add([design, attack] {
      return core::SuccessiveModel::p_success(design, attack);
    });
  }

  int add(const core::SosDesign& design, const core::OneBurstAttack& attack) {
    return add([design, attack] {
      return core::OneBurstModel::p_success(design, attack);
    });
  }

  void run() {
    values_.assign(points_.size(), 0.0);
    common::ThreadPool::shared().parallel_for(
        static_cast<int>(points_.size()), 0,
        [this](int index, int) {
          values_[static_cast<std::size_t>(index)] =
              points_[static_cast<std::size_t>(index)]();
        });
    points_.clear();
  }

  double value(int index) const {
    return values_.at(static_cast<std::size_t>(index));
  }

 private:
  std::vector<std::function<double()>> points_;
  std::vector<double> values_;
};

inline std::string fmt(double value, int precision = 4) {
  return common::format_double(value, precision);
}

/// A sample's mean, or "-" for an empty sample, which has no mean.
inline std::string fmt_mean(const common::RunningStats& sample, int precision) {
  return sample.count() == 0 ? "-" : fmt(sample.mean(), precision);
}

/// A table row whose Monte Carlo columns are still pending in an McBatch.
struct DeferredRow {
  std::vector<std::string> cells;
  int mc = -1;  // index into the batch, or -1 for a model-only row
};

/// Runs the batch, then appends every row (with its P_S_mc / ci columns when
/// present) to the table in queue order.
inline void emit_rows(common::Table& table, McBatch& batch,
                      std::vector<DeferredRow>& rows) {
  batch.run();
  for (DeferredRow& row : rows) {
    if (row.mc >= 0) {
      const auto& mc = batch.result(row.mc);
      row.cells.insert(row.cells.end(),
                       {fmt(mc.p_success), fmt(mc.ci.lo), fmt(mc.ci.hi)});
    }
    table.add_row(std::move(row.cells));
  }
  rows.clear();
}

/// Default successive attack of Section 3.2.3.
inline core::SuccessiveAttack default_successive(const Params& params) {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 200;
  attack.congestion_budget = 2000;
  attack.break_in_success = params.p_break;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  return attack;
}

}  // namespace sos::experiments::detail
