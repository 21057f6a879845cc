#include "faults/fault_injector.h"

namespace sos::faults {

void apply_steady_state_faults(const FaultConfig& config,
                               sosnet::SosOverlay& overlay, common::Rng& rng) {
  config.validate();
  auto& substrate = overlay.substrate();
  const double node_down = 1.0 - config.steady_state_node_up();
  if (node_down > 0.0) {
    for (int node = 0; node < overlay.network().size(); ++node)
      if (rng.bernoulli(node_down))
        substrate.set_node(node, sosnet::SubstrateState::kCrashed);
  }
  const double filter_down = 1.0 - config.steady_state_filter_up();
  if (filter_down > 0.0) {
    for (int filter = 0; filter < overlay.filter_count(); ++filter)
      if (rng.bernoulli(filter_down))
        substrate.set_filter_flapped(filter, true);
  }
  if (config.lossy_fraction > 0.0) {
    for (int node = 0; node < overlay.network().size(); ++node)
      if (!substrate.node_crashed(node) &&
          rng.bernoulli(config.lossy_fraction))
        substrate.set_node(node, sosnet::SubstrateState::kLossy);
  }
}

}  // namespace sos::faults
