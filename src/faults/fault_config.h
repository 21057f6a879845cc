// Configuration for the benign-fault model: node crash/recover churn,
// filter flaps, node lossiness, and per-hop link faults.
//
// Every failure the attack modules can produce is adversarial (break-ins,
// congestion). Real overlays also degrade for mundane reasons — machines
// crash and reboot, filter rules flap during pushes, links drop packets —
// and the paper's availability guarantees silently assume none of that
// happens. This module parameterizes that benign substrate so the rest of
// the system (steady-state fault draws, the protocol's link faults, the
// degraded-substrate analytic model) can quantify availability under attack
// *plus* ordinary unreliability.
//
// All rates are validated on use; a default-constructed config is the ideal
// substrate and is guaranteed not to perturb any existing outcome (no RNG
// draws, no state changes) — fault-free runs stay bit-identical.
#pragma once

namespace sos::faults {

struct FaultConfig {
  /// Mean time between benign crashes per node. 0 disables node churn
  /// entirely.
  double node_mtbf = 0.0;
  /// Mean time to recover a crashed node. Must be > 0 whenever
  /// node_mtbf > 0.
  double node_mttr = 1.0;

  /// Mean time between benign filter flaps (rule-push glitches) per filter;
  /// 0 disables filter flaps.
  double filter_flap_mtbf = 0.0;
  /// Mean duration of one filter flap. Must be > 0 when flaps are enabled.
  double filter_flap_mttr = 0.5;

  /// Fraction of overlay nodes that are persistently lossy (bad NICs,
  /// saturated uplinks). Lossy nodes stay up but their message legs suffer
  /// elevated loss in the protocol simulation.
  double lossy_fraction = 0.0;

  bool node_churn_enabled() const noexcept { return node_mtbf > 0.0; }
  bool filter_flaps_enabled() const noexcept { return filter_flap_mtbf > 0.0; }
  bool enabled() const noexcept {
    return node_churn_enabled() || filter_flaps_enabled() ||
           lossy_fraction > 0.0;
  }

  /// Steady-state probability that a node is up under this churn
  /// (mtbf / (mtbf + mttr)); 1 when churn is disabled. This is the
  /// per-node up-probability the degraded-substrate analytic model folds
  /// into Eq. (1).
  double steady_state_node_up() const noexcept;
  /// Same for filters under flapping.
  double steady_state_filter_up() const noexcept;

  /// Throws std::invalid_argument naming the offending field and the
  /// accepted values (mirrors NodeDistribution::parse error style).
  void validate() const;
};

}  // namespace sos::faults
