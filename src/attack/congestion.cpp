#include "attack/congestion.h"

#include <vector>

#include "common/complement_index.h"
#include "common/scan_mode.h"

namespace sos::attack {

namespace {

/// Target of the congestion phase: either an overlay node or a filter.
struct Target {
  bool is_filter = false;
  int index = -1;
};

}  // namespace

bool congest_node(sosnet::SosOverlay& overlay, int node,
                  AttackOutcome& outcome) {
  if (overlay.network().health(node) != overlay::NodeHealth::kGood)
    return false;
  overlay.network().set_health(node, overlay::NodeHealth::kCongested);
  ++outcome.congested_nodes;
  const int layer = overlay.topology().layer_of(node);
  if (layer >= 0)
    ++outcome.congested_per_layer[static_cast<std::size_t>(layer)];
  return true;
}

void execute_congestion_phase(sosnet::SosOverlay& overlay,
                              const AttackerKnowledge& knowledge,
                              int congestion_budget, common::Rng& rng,
                              AttackOutcome& outcome) {
  // Scratch persists per thread so the Monte Carlo trial loop does not pay
  // an allocation for every congestion phase. Purely capacity reuse: the
  // contents (and the consumed random stream) are identical to fresh
  // buffers.
  thread_local std::vector<Target> targets;
  thread_local std::vector<int> disclosed_nodes;
  thread_local std::vector<int> pool;
  thread_local common::ComplementIndex pool_index;
  thread_local std::vector<std::uint64_t> picks;
  thread_local common::SampleScratch sample_scratch;

  const int big_n = overlay.network().size();
  const bool full_scan = common::force_full_scan();

  // Assemble the disclosed target list (N_D) in ascending node order. The
  // knowledge's disclosed list enumerates exactly the nodes a population
  // scan would find, in O(disclosed).
  targets.clear();
  if (full_scan) {
    disclosed_nodes.clear();
    for (int node = 0; node < big_n; ++node)
      if (knowledge.disclosed(node)) disclosed_nodes.push_back(node);
  } else {
    knowledge.disclosed_into(disclosed_nodes);
  }
  for (const int node : disclosed_nodes) {
    if (overlay.network().health(node) == overlay::NodeHealth::kBrokenIn)
      continue;  // already controlled; not worth congesting
    targets.push_back(Target{false, node});
  }
  for (int filter = 0; filter < overlay.filter_count(); ++filter)
    if (knowledge.filter_disclosed(filter))
      targets.push_back(Target{true, filter});
  outcome.disclosed_at_congestion = static_cast<int>(targets.size());

  int budget = congestion_budget;
  if (budget < static_cast<int>(targets.size())) {
    // Scarce budget: uniform subset of the disclosed targets (Eq. 9).
    rng.shuffle(targets);
    targets.resize(static_cast<std::size_t>(budget));
  }

  for (const auto& target : targets) {
    if (budget == 0) break;
    if (target.is_filter) {
      if (!overlay.filter_congested(target.index)) {
        overlay.set_filter_congested(target.index, true);
        ++outcome.congested_filters;
        --budget;
      }
    } else if (congest_node(overlay, target.index, outcome)) {
      --budget;
    }
  }

  if (budget == 0) return;

  // Spill-over: random good, undisclosed overlay nodes (Eq. 8's second
  // term). The pool is the complement of a small exclusion set (disclosed
  // nodes plus nodes the attack already took off kGood — all recorded in
  // the network's dirty list), so instead of enumerating all N nodes we
  // sample positions in [0, pool_size) and map each to its complement
  // element through the index. Population and draw order match the
  // explicit-pool reference exactly, so the consumed stream and chosen nodes
  // are bit-identical.
  const bool dirty_ok = !full_scan && !overlay.network().health_scan_saturated();
  if (dirty_ok) {
    auto& excluded = disclosed_nodes;  // no longer needed as targets
    for (const int node : overlay.network().touched_health())
      if (!overlay.network().is_good(node)) excluded.push_back(node);
    pool_index.build(big_n, excluded);
    const int pool_size = pool_index.size();
    if (pool_size > budget) {
      rng.sample_without_replacement_into(
          static_cast<std::uint64_t>(pool_size),
          static_cast<std::uint64_t>(budget), picks, sample_scratch);
      for (const auto pick : picks)
        congest_node(overlay, pool_index.node_at(static_cast<int>(pick)),
                     outcome);
      return;
    }
    // Budget covers the whole pool: congest it in ascending order.
    for (int position = 0; position < pool_size; ++position)
      congest_node(overlay, pool_index.node_at(position), outcome);
    return;
  }

  // Reference O(N) path: materialize the pool by scanning the population.
  pool.clear();
  pool.reserve(static_cast<std::size_t>(big_n));
  for (int node = 0; node < big_n; ++node) {
    if (knowledge.disclosed(node)) continue;
    if (!overlay.network().is_good(node)) continue;
    pool.push_back(node);
  }
  if (static_cast<int>(pool.size()) <= budget) {
    for (const int node : pool) congest_node(overlay, node, outcome);
    return;
  }
  rng.sample_without_replacement_into(pool.size(),
                                      static_cast<std::uint64_t>(budget),
                                      picks, sample_scratch);
  for (const auto pick : picks)
    congest_node(overlay, pool[static_cast<std::size_t>(pick)], outcome);
}

}  // namespace sos::attack
