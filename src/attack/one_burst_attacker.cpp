#include "attack/one_burst_attacker.h"

#include <algorithm>
#include <stdexcept>

#include "attack/break_in.h"
#include "attack/congestion.h"
#include "attack/scratch.h"

namespace sos::attack {

AttackOutcome OneBurstAttacker::execute(sosnet::SosOverlay& overlay,
                                        common::Rng& rng) const {
  config_.validate(overlay.network().size());

  AttackOutcome outcome;
  const int layers = overlay.design().layers();
  outcome.broken_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.congested_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.rounds_executed = 1;

  AttackScratch& scratch = thread_scratch();
  AttackerKnowledge& knowledge = scratch.knowledge;
  knowledge.reset(overlay.network().size(), overlay.filter_count());

  // Break-in phase: N_T distinct uniformly random overlay nodes, all
  // attempted before any disclosure is exploited.
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(overlay.network().size()),
      static_cast<std::uint64_t>(config_.break_in_budget), scratch.picks,
      scratch.sample);
  for (const auto victim : scratch.picks)
    attempt_break_in(overlay, static_cast<int>(victim),
                     config_.break_in_success, knowledge, rng, outcome);

  execute_congestion_phase(overlay, knowledge, config_.congestion_budget, rng,
                           outcome);
  return outcome;
}

AttackOutcome OneBurstAttacker::execute_conditioned(sosnet::SosOverlay& overlay,
                                                    common::Rng& rng,
                                                    int servlet_victims,
                                                    int servlet_successes) const {
  const int big_n = overlay.network().size();
  config_.validate(big_n);
  const int last_layer = overlay.design().layers() - 1;
  const std::vector<int>& servlets = overlay.topology().members(last_layer);
  const int m = static_cast<int>(servlets.size());
  if (servlet_victims < 0 || servlet_victims > m ||
      servlet_victims > config_.break_in_budget)
    throw std::invalid_argument(
        "OneBurstAttacker: conditioned servlet_victims must be in "
        "[0, min(m, N_T)]");
  if (servlet_successes < 0 || servlet_successes > servlet_victims)
    throw std::invalid_argument(
        "OneBurstAttacker: conditioned servlet_successes must be in "
        "[0, servlet_victims]");
  if (config_.break_in_budget - servlet_victims > big_n - m)
    throw std::invalid_argument(
        "OneBurstAttacker: N_T - servlet_victims exceeds the non-servlet "
        "population");

  AttackOutcome outcome;
  const int layers = overlay.design().layers();
  outcome.broken_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.congested_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.rounds_executed = 1;

  AttackScratch& scratch = thread_scratch();
  AttackerKnowledge& knowledge = scratch.knowledge;
  knowledge.reset(big_n, overlay.filter_count());

  // Dictated servlet outcomes: a uniform servlet_victims-subset of the m
  // servlets is attempted, a uniform servlet_successes-subset of those
  // succeeds. The draws below run one after another, so they share one
  // sampling scratch.
  auto& servlet_slots = scratch.picks;
  auto& success_slots = scratch.success_slots;
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(m),
      static_cast<std::uint64_t>(servlet_victims), servlet_slots,
      scratch.sample);
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(servlet_victims),
      static_cast<std::uint64_t>(servlet_successes), success_slots,
      scratch.sample);
  // Attempts go out in draw order; sorted success slots mark which succeed.
  std::sort(success_slots.begin(), success_slots.end());
  auto next_success = success_slots.begin();
  for (int i = 0; i < servlet_victims; ++i) {
    const bool succeed = next_success != success_slots.end() &&
                         *next_success == static_cast<std::uint64_t>(i);
    if (succeed) ++next_success;
    force_break_in(overlay,
                   servlets[static_cast<std::size_t>(servlet_slots[i])],
                   succeed, knowledge, outcome);
  }

  // The remaining budget falls on the non-servlet population, with ordinary
  // Bernoulli draws (per-layer hardening applied by attempt_break_in).
  // Victims are sampled as positions in [0, N - m) and mapped to node ids
  // through the complement of the servlet ids.
  auto& non_servlets = scratch.complement;
  non_servlets.build(big_n, servlets);
  rng.sample_without_replacement_into(
      static_cast<std::uint64_t>(big_n - m),
      static_cast<std::uint64_t>(config_.break_in_budget - servlet_victims),
      scratch.picks, scratch.sample);
  for (const auto pick : scratch.picks)
    attempt_break_in(overlay, non_servlets.node_at(static_cast<int>(pick)),
                     config_.break_in_success, knowledge, rng, outcome);

  execute_congestion_phase(overlay, knowledge, config_.congestion_budget, rng,
                           outcome);
  return outcome;
}

}  // namespace sos::attack
