// Applies benign substrate faults to a live SosOverlay. Attack state
// (broken-in, congested) is never touched: crashing does not clean a
// compromise.
#pragma once

#include "common/rng.h"
#include "faults/fault_config.h"
#include "sosnet/sos_overlay.h"

namespace sos::faults {

/// One-shot steady-state draw (no timeline): independently crashes each
/// node with probability 1 - steady_state_node_up(), flaps each filter with
/// probability 1 - steady_state_filter_up(), and marks each up node lossy
/// with probability lossy_fraction. Every draw is gated behind its rate, so
/// a disabled config consumes nothing from `rng` and changes nothing —
/// Monte Carlo trials with faults off stay bit-identical to runs without
/// this call. Used by the ext_fault_tolerance experiment, where the
/// per-trial RNG keeps results thread-count independent by construction.
void apply_steady_state_faults(const FaultConfig& config,
                               sosnet::SosOverlay& overlay, common::Rng& rng);

}  // namespace sos::faults
