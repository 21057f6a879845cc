#include "attack/congestion.h"

#include "attack/scratch.h"
#include "common/scan_mode.h"

namespace sos::attack {

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
  AttackScratch& scratch = thread_scratch();
  auto& targets = scratch.targets;
  auto& disclosed_nodes = scratch.nodes;

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
    targets.push_back({false, node});
  }
  for (int filter = 0; filter < overlay.filter_count(); ++filter)
    if (knowledge.filter_disclosed(filter))
      targets.push_back({true, filter});
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
  // nodes plus the dirty list's non-good nodes), so positions in the pool
  // map to nodes through the complement index instead of an O(N) scan. The
  // pool and its order match the scanned reference exactly, so the consumed
  // stream and chosen nodes are bit-identical.
  const auto congest = [&](int node) { congest_node(overlay, node, outcome); };
  if (!full_scan && !overlay.network().health_scan_saturated()) {
    auto& excluded = disclosed_nodes;  // no longer needed as targets
    for (const int node : overlay.network().touched_health())
      if (!overlay.network().is_good(node)) excluded.push_back(node);
    auto& pool = scratch.complement;
    pool.build(big_n, excluded);
    scratch.draw_from_pool(
        pool.size(), budget, rng,
        [&](int position) { return pool.node_at(position); }, congest);
    return;
  }

  // Reference O(N) path: materialize the pool by scanning the population
  // (into `nodes`: the disclosed list is no longer needed).
  scratch.draw_from_scan(
      big_n, budget, rng,
      [&](int node) {
        return !knowledge.disclosed(node) && overlay.network().is_good(node);
      },
      congest);
}

}  // namespace sos::attack
