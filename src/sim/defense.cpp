#include "sim/defense.h"

#include <vector>

#include "attack/successive_attacker.h"

namespace sos::sim {

namespace {

/// Every compromised node, then every congested filter, is independently
/// repaired with probability `rate`.
void repair_sweep(sosnet::SosOverlay& overlay, double rate, common::Rng& rng,
                  DefenseTally& tally) {
  if (rate <= 0.0) return;
  auto& network = overlay.network();
  for (int node = 0; node < network.size(); ++node) {
    if (network.is_good(node) || !rng.bernoulli(rate)) continue;
    network.set_health(node, overlay::NodeHealth::kGood);
    ++tally.repaired_nodes;
  }
  for (int filter = 0; filter < overlay.filter_count(); ++filter) {
    if (!overlay.filter_congested(filter) || !rng.bernoulli(rate)) continue;
    overlay.set_filter_congested(filter, false);
    ++tally.repaired_filters;
  }
}

}  // namespace

void defend(sosnet::SosOverlay& overlay, const DefenseConfig& config,
            common::Rng& rng, DefenseTally& tally) {
  repair_sweep(overlay, config.repair_rate, rng, tally);
  if (config.migration_rate <= 0.0 && config.proactive_rate <= 0.0) return;
  for (int layer = 0; layer < overlay.design().layers(); ++layer) {
    // Snapshot: migrate_member rewrites the membership vector in place.
    const std::vector<int> members = overlay.topology().members(layer);
    for (const int member : members) {
      const double rate = overlay.network().is_good(member)
                              ? config.proactive_rate
                              : config.migration_rate;
      if (rng.bernoulli(rate) && overlay.migrate_member(member, rng) >= 0)
        ++tally.migrated;
    }
  }
}

DefenseOutcome run_successive_attack_with_defense(
    sosnet::SosOverlay& overlay, const core::SuccessiveAttack& attack,
    const DefenseConfig& config, common::Rng& rng) {
  DefenseOutcome outcome;
  attack::SuccessiveAttackerOptions options;
  options.after_round = [&config, &outcome](sosnet::SosOverlay& net,
                                            common::Rng& stream, int) {
    defend(net, config, stream, outcome.tally);
  };
  const attack::SuccessiveAttacker attacker{attack, options};
  outcome.attack = attacker.execute(overlay, rng);

  // The defense keeps working while the congestion flood starts.
  repair_sweep(overlay, config.repair_rate, rng, outcome.tally);
  return outcome;
}

}  // namespace sos::sim
