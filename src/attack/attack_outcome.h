// Result of executing an attack against a concrete SosOverlay.
#pragma once

#include <vector>

namespace sos::attack {

struct AttackOutcome {
  int break_in_attempts = 0;  // break-in attempts actually launched
  int broken_in = 0;          // overlay nodes now controlled by the attacker
  int congested_nodes = 0;    // overlay nodes congested
  int congested_filters = 0;
  int rounds_executed = 0;    // break-in rounds (1 for one-burst)
  int disclosed_at_congestion = 0;  // N_D: disclosed, not broken, + filters

  /// Per 0-based SOS layer.
  std::vector<int> broken_per_layer;
  std::vector<int> congested_per_layer;
};

}  // namespace sos::attack
