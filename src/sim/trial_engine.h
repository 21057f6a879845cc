// Internal trial-execution machinery: the one place a trial runs. Every
// estimator — run_monte_carlo (one point or a list) and sim::sampling's
// sequential and stratified estimators — executes its trials through
// run_trial and schedules them through for_each_trial. Not part of the
// public API surface — include sim/monte_carlo.h or sim/sampling.h instead.
//
// The contract that makes thread count irrelevant to the result: every trial
// derives its RNG streams from its trial seed alone (a pure function of the
// config seed and the trial's index), writes its measurements into a
// trial-indexed slot, and the slots are reduced in trial order on one thread
// afterwards. Workers only ever share read-only state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/monte_carlo.h"

namespace sos::sim::internal {

/// One trial's footprint, written by exactly one worker.
struct TrialRecord {
  double success_rate = 0.0;
  int broken = 0;
  int broken_sos = 0;
  int congested = 0;
  int congested_sos = 0;
  int congested_filters = 0;
  int disclosed = 0;
  int delivered = 0;
};

/// Per-worker reusable state. The overlay persists across the trials of one
/// design and is rebuilt in place, which is what makes the steady-state
/// trial loop allocation-free.
struct TrialContext {
  std::optional<sosnet::SosOverlay> overlay;
  const core::SosDesign* built_from = nullptr;  // identity of overlay's design
  sosnet::TopologyWorkspace workspace;
  sosnet::WalkResult walk;
};

/// The seed of plain trial `trial` under `config`.
inline std::uint64_t trial_seed(const MonteCarloConfig& config, int trial) {
  return config.seed ^
         common::mix64(0x7261696c5ull + static_cast<std::uint64_t>(trial));
}

/// Executes one trial from `seed` into `record` and `hop_slots` (one slot per
/// walk; -1 = not delivered, otherwise the walk's layer-hop count). The
/// overlay is rebuilt from `seed`; `attack` and the walks draw from one
/// stream seeded with mix64(seed).
void run_trial(const core::SosDesign& design, const AttackFn& attack,
               const MonteCarloConfig& config, std::uint64_t seed,
               TrialContext& context, TrialRecord& record,
               std::int16_t* hop_slots);

/// Runs body(trial, context) for every trial in [begin, end) on config's pool
/// and thread count, in blocks of consecutive trials. `contexts` grows to the
/// participant count and persists across calls, so consecutive rounds reuse
/// warm overlays. Bodies write only to trial-owned slots, keeping the result
/// independent of scheduling. A caller with several sets of trials (the
/// points of a list, the strata of a stratified round) lays them end to end
/// as slots of one call, so the batch pays one pool barrier and a small set
/// never idles workers that another set could use.
void for_each_trial(
    const MonteCarloConfig& config, int begin, int end,
    std::vector<TrialContext>& contexts,
    const std::function<void(int trial, TrialContext& context)>& body);

/// Fixed-order reduction of the trial-indexed buffers; the add sequence per
/// statistic matches a sequential threads=1 run exactly.
MonteCarloResult reduce_in_trial_order(const MonteCarloConfig& config,
                                       const std::vector<TrialRecord>& records,
                                       const std::vector<std::int16_t>& hops);

}  // namespace sos::sim::internal
