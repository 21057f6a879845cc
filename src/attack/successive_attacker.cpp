#include "attack/successive_attacker.h"

#include <algorithm>
#include <cmath>

#include "attack/break_in.h"
#include "attack/congestion.h"
#include "attack/scratch.h"
#include "common/scan_mode.h"

namespace sos::attack {

namespace {

/// `count` distinct nodes that are neither attempted nor disclosed in the
/// scratch's knowledge, chosen uniformly, written into its `fresh`.
/// Rejection sampling while the touched fraction is small, full enumeration
/// otherwise.
void sample_fresh_targets(const sosnet::SosOverlay& overlay, int count,
                          common::Rng& rng, AttackScratch& scratch) {
  const AttackerKnowledge& knowledge = scratch.knowledge;
  auto& out = scratch.fresh;
  auto& taken = scratch.taken;
  out.clear();
  if (count <= 0) return;
  const int big_n = overlay.network().size();
  const auto eligible = [&](int node) {
    return !knowledge.attempted(node) && !knowledge.disclosed(node);
  };

  const int touched =
      knowledge.attempted_count() + knowledge.pending_count();
  if (touched * 4 < big_n && count * 4 < big_n) {
    // The taken bits are all-zero between calls (un-marked via `out` below),
    // so consecutive rounds pay O(picked), not an O(N) clear. The forced
    // full-scan mode re-clears the whole thing like the reference did.
    if (taken.size() != static_cast<std::size_t>(big_n) ||
        common::force_full_scan())
      taken.assign(static_cast<std::size_t>(big_n));
    out.reserve(static_cast<std::size_t>(count));
    int guard = 0;
    while (static_cast<int>(out.size()) < count && guard < big_n * 64) {
      ++guard;
      const int node =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(big_n)));
      if (taken.test(static_cast<std::size_t>(node)) || !eligible(node))
        continue;
      taken.set(static_cast<std::size_t>(node));
      out.push_back(node);
    }
    for (const int node : out)  // restore the all-zero invariant
      taken.reset(static_cast<std::size_t>(node));
    if (static_cast<int>(out.size()) == count) return;
    out.clear();  // pathological density; fall through to enumeration
  }

  scratch.draw_from_scan(big_n, count, rng, eligible,
                         [&](int node) { out.push_back(node); });
}

}  // namespace

AttackOutcome SuccessiveAttacker::execute(sosnet::SosOverlay& overlay,
                                          common::Rng& rng) const {
  config_.validate(overlay.network().size());

  AttackOutcome outcome;
  const int layers = overlay.design().layers();
  outcome.broken_per_layer.assign(static_cast<std::size_t>(layers), 0);
  outcome.congested_per_layer.assign(static_cast<std::size_t>(layers), 0);

  AttackScratch& scratch = thread_scratch();
  AttackerKnowledge& knowledge = scratch.knowledge;
  knowledge.reset(overlay.network().size(), overlay.filter_count());
  auto& pending = scratch.pending;

  // Prior knowledge ("round 0"): P_E of the first layer is already known.
  {
    const auto& first_layer = overlay.topology().members(0);
    const auto known = static_cast<std::uint64_t>(std::llround(
        config_.prior_knowledge * static_cast<double>(first_layer.size())));
    rng.sample_without_replacement_into(first_layer.size(), known,
                                        scratch.picks, scratch.sample);
    for (const auto pick : scratch.picks)
      knowledge.disclose(first_layer[static_cast<std::size_t>(pick)]);
  }

  const auto break_in = [&](int node) {
    const bool success = attempt_break_in(
        overlay, node, config_.break_in_success, knowledge, rng, outcome);
    if (!success || !options_.monitor_predecessors) return;
    // Section 5 extension: traffic monitoring on a captured node reveals
    // the previous-layer nodes that forward through it.
    const int layer = overlay.topology().layer_of(node);
    if (layer <= 0) return;
    for (const int upstream : overlay.topology().members(layer - 1)) {
      const auto& table = overlay.topology().neighbors(upstream);
      if (std::find(table.begin(), table.end(), node) == table.end())
        continue;
      if (rng.bernoulli(options_.monitor_detection))
        knowledge.disclose(upstream);
    }
  };

  int beta = config_.break_in_budget;
  const int base_quota = config_.break_in_budget / config_.rounds;
  const int quota_remainder = config_.break_in_budget % config_.rounds;

  for (int round = 1; round <= config_.rounds && beta > 0; ++round) {
    if (options_.before_round) options_.before_round(overlay, rng, round);
    outcome.rounds_executed = round;
    const int quota = base_quota + (round <= quota_remainder ? 1 : 0);
    knowledge.pending_into(pending);
    const int known = static_cast<int>(pending.size());

    bool terminal = false;
    int random_budget = 0;
    if (known >= beta) {
      // Case 4: too many leads; attack a uniform beta-subset, shelve the
      // rest for the congestion phase.
      rng.shuffle(pending);
      pending.resize(static_cast<std::size_t>(beta));
      terminal = true;
      beta = 0;
    } else if (beta <= quota) {
      // Case 2: final round; the whole remaining budget goes out.
      random_budget = beta - known;
      terminal = true;
      beta = 0;
    } else if (known < quota) {
      // Case 1: top up to the round quota with random targets.
      random_budget = quota - known;
      beta -= quota;
    } else {
      // Case 3: leads alone exceed the quota; spend exactly them.
      beta -= known;
    }

    // Random targets are chosen against round-start knowledge, before the
    // round's own break-ins disclose anything new.
    sample_fresh_targets(overlay, random_budget, rng, scratch);
    for (const int node : pending) break_in(node);
    for (const int node : scratch.fresh) break_in(node);

    if (options_.after_round) options_.after_round(overlay, rng, round);
    if (terminal) break;
  }
  if (outcome.rounds_executed == 0) outcome.rounds_executed = 1;

  execute_congestion_phase(overlay, knowledge, config_.congestion_budget, rng,
                           outcome);
  return outcome;
}

}  // namespace sos::attack
