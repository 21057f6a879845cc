#include "attack/break_in.h"

namespace sos::attack {

bool attempt_break_in(sosnet::SosOverlay& overlay, int node, double p_break,
                      AttackerKnowledge& knowledge, common::Rng& rng,
                      AttackOutcome& outcome) {
  if (overlay.network().health(node) == overlay::NodeHealth::kBrokenIn)
    return false;
  const int layer = overlay.topology().layer_of(node);
  // Hardened SOS layers resist intrusion; bystanders are unhardened.
  const double p_effective =
      layer >= 0 ? p_break * overlay.design().hardening_factor(layer + 1)
                 : p_break;
  return force_break_in(overlay, node, rng.bernoulli(p_effective), knowledge,
                        outcome);
}

bool force_break_in(sosnet::SosOverlay& overlay, int node, bool succeed,
                    AttackerKnowledge& knowledge, AttackOutcome& outcome) {
  if (overlay.network().health(node) == overlay::NodeHealth::kBrokenIn)
    return false;
  knowledge.mark_attempted(node);
  ++outcome.break_in_attempts;
  if (!succeed) return false;

  // Flip the node, count it, and disclose its neighbor table (filter
  // contacts for Layer-L victims, next-layer members otherwise).
  overlay.network().set_health(node, overlay::NodeHealth::kBrokenIn);
  ++outcome.broken_in;
  const int layer = overlay.topology().layer_of(node);
  if (layer < 0) return true;  // innocent bystander: nothing to disclose
  ++outcome.broken_per_layer[static_cast<std::size_t>(layer)];

  const bool last_layer = layer == overlay.design().layers() - 1;
  for (const int neighbor : overlay.topology().neighbors(node)) {
    if (last_layer) {
      knowledge.disclose_filter(neighbor);
    } else {
      knowledge.disclose(neighbor);
    }
  }
  return true;
}

}  // namespace sos::attack
