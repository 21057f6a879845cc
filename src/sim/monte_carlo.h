// Monte Carlo estimation of P_S on the concrete overlay — the ground truth
// the paper's average-case analysis approximates.
//
// Each trial draws a fresh topology (membership + neighbor tables), runs the
// attacker once, then measures the per-topology delivery rate with several
// independent client walks. Trials are independent, so the sampler is
// embarrassingly parallel; each trial gets its own deterministic RNG stream
// derived from the config seed.
//
// The engine is allocation-free per trial in steady state: every worker
// keeps a persistent overlay that is rebuilt in place, walks reuse one
// result buffer, and per-trial measurements land in trial-indexed arrays
// sized once up front. Those arrays are reduced in fixed trial order after
// the parallel phase, so the result is bit-identical for every thread count
// at a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/attack_outcome.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/design.h"
#include "sosnet/sos_overlay.h"

namespace sos::common {
class ThreadPool;
}  // namespace sos::common

namespace sos::sim {

using ThreadPool = common::ThreadPool;

struct MonteCarloConfig {
  int trials = 200;          // independent attacked topologies
  int walks_per_trial = 10;  // client messages routed per topology
  std::uint64_t seed = 0x5eedULL;
  int threads = 0;           // 0 = all pool workers; 1 = run inline
  bool route_via_chord = false;  // original-SOS transport fidelity mode
  ThreadPool* pool = nullptr;    // null = ThreadPool::shared()
};

/// One stratum of a stratified estimate (sim/sampling.h): the
/// compromised-secret-servlet count bin [lo, hi), its exact probability
/// mass, and the conditional delivery statistics measured inside it.
struct StratumTally {
  int lo = 0;
  int hi = 0;            // exclusive
  double weight = 0.0;   // P[lo <= K < hi] under the servlet-compromise law
  std::uint64_t trials = 0;
  double p_hat = 0.0;    // mean conditional per-trial delivery rate
  double stddev = 0.0;   // sample stddev of the conditional rate
};

struct MonteCarloResult {
  double p_success = 0.0;        // mean per-trial delivery rate
  common::Interval ci;           // 95% CI on the mean (normal approx.)
  std::uint64_t walks = 0;
  std::uint64_t deliveries = 0;

  // Averages of the attack's footprint across trials. The *_sos variants
  // count only SOS members (comparable to the analytical per-layer sums);
  // the plain variants include innocent bystanders.
  double mean_broken = 0.0;
  double mean_broken_sos = 0.0;
  double mean_congested = 0.0;
  double mean_congested_sos = 0.0;
  double mean_congested_filters = 0.0;
  double mean_disclosed = 0.0;   // N_D at congestion time
  double mean_delivery_hops = 0.0;  // layer hops of successful walks

  // --- Estimator fields (sim/sampling.h). Default-initialized to inert
  //     values so the fixed-trial path's results compare field-by-field
  //     unchanged; the fixed-trial reduction fills only resolved_trials and
  //     wilson (both deterministic functions of the existing counters).
  std::uint64_t resolved_trials = 0;  // trials actually executed
  /// Wilson score interval on deliveries/walks for the naive and sequential
  /// estimators (the stopping-rule CI); mirrors `ci` for the stratified
  /// estimator, where a raw-proportion interval does not apply.
  common::Interval wilson;
  bool stopped_by_rule = false;  // rule satisfied before the cap
  bool capped = false;           // max_trials hit, rule unmet
  std::vector<StratumTally> strata;  // stratified: per-stratum tallies
  std::string estimator_note;    // human-readable estimator diagnostics
};

/// Attack to apply to a freshly built overlay. Must leave its footprint in
/// the returned outcome (used for the mean_* fields).
using AttackFn =
    std::function<attack::AttackOutcome(sosnet::SosOverlay&, common::Rng&)>;

MonteCarloResult run_monte_carlo(const core::SosDesign& design,
                                 const AttackFn& attack,
                                 const MonteCarloConfig& config);

}  // namespace sos::sim
