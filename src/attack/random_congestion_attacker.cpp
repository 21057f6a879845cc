#include "attack/random_congestion_attacker.h"

#include <stdexcept>

#include "attack/congestion.h"
#include "attack/scratch.h"

namespace sos::attack {

AttackOutcome RandomCongestionAttacker::execute(sosnet::SosOverlay& overlay,
                                                common::Rng& rng) const {
  if (congestion_budget_ < 0 ||
      congestion_budget_ > overlay.network().size())
    throw std::invalid_argument(
        "RandomCongestionAttacker: budget out of range");

  AttackOutcome outcome;
  const int layers = overlay.design().layers();
  outcome.broken_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.congested_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.rounds_executed = 0;

  AttackScratch& scratch = thread_scratch();
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(overlay.network().size()),
      static_cast<std::uint64_t>(congestion_budget_), scratch.picks,
      scratch.sample);
  for (const auto victim : scratch.picks)
    congest_node(overlay, static_cast<int>(victim), outcome);
  return outcome;
}

}  // namespace sos::attack
