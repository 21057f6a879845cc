// The attack models' per-thread working memory. Every attacker entry point
// works in its thread's one AttackScratch; steps that run one after another
// share a buffer, and no content carries from one call to the next, so reuse
// changes no drawn value. Sizes follow the attack (O(N_T + N_C) entries plus
// N bits each for the knowledge and `taken`) except in the full-scan paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/knowledge.h"
#include "common/bitvec.h"
#include "common/complement_index.h"
#include "common/rng.h"

namespace sos::attack {

struct AttackScratch {
  struct Target { bool is_filter; int index; };  // a node or a filter

  common::SampleScratch sample;      // every sampling-without-replacement draw
  std::vector<std::uint64_t> picks;  // the current draw's destination
  std::vector<std::uint64_t> success_slots;  // conditioned, beside `picks`
  AttackerKnowledge knowledge{1, 0};  // reset at the start of every attack
  common::ComplementIndex complement;  // non-servlets, then the spill-over pool
  common::BitVec taken;  // fresh-target dedup bits, all-zero between calls
  std::vector<int> pending;  // successive: a round's disclosed leads and
  std::vector<int> fresh;    //   random targets, alive across its break-ins
  std::vector<int> nodes;    // disclosed, then excluded nodes; scanned pools
  std::vector<Target> targets;

  /// Visits a uniform `count`-subset of a pool of `size` ascending positions,
  /// each mapped to its node by `node_at`: the whole pool in order when it
  /// holds no more than `count`, else `count` draws in draw order.
  template <typename NodeAt, typename Visit>
  void draw_from_pool(int size, int count, common::Rng& rng, NodeAt node_at,
                      Visit visit) {
    if (size <= count) {
      for (int position = 0; position < size; ++position)
        visit(node_at(position));
      return;
    }
    rng.sample_without_replacement_into(static_cast<std::uint64_t>(size),
                                        static_cast<std::uint64_t>(count),
                                        picks, sample);
    for (const auto pick : picks) visit(node_at(static_cast<int>(pick)));
  }

  /// draw_from_pool over the nodes of [0, node_count) that pass `keep`,
  /// gathered into `nodes` by a full scan (the reference paths' O(N) pool).
  template <typename Keep, typename Visit>
  void draw_from_scan(int node_count, int count, common::Rng& rng, Keep keep,
                      Visit visit) {
    nodes.clear();
    nodes.reserve(static_cast<std::size_t>(node_count));
    for (int node = 0; node < node_count; ++node)
      if (keep(node)) nodes.push_back(node);
    const auto node_at = [this](int position) {
      return nodes[static_cast<std::size_t>(position)];
    };
    draw_from_pool(static_cast<int>(nodes.size()), count, rng, node_at, visit);
  }

  /// Bytes held by every buffer (their capacity).
  std::size_t footprint_bytes() const noexcept {
    return sample.footprint_bytes() + knowledge.footprint_bytes() +
           complement.footprint_bytes() + taken.capacity_bytes() +
           (picks.capacity() + success_slots.capacity()) *
               sizeof(std::uint64_t) +
           (pending.capacity() + fresh.capacity() + nodes.capacity()) *
               sizeof(int) +
           targets.capacity() * sizeof(Target);
  }
};

/// This thread's scratch. Not re-entrant: an attacker holds it from its
/// first draw to the end of its congestion phase, so a round hook
/// (SuccessiveAttackerOptions::before_round / after_round) must never run
/// an attacker or a congestion phase.
inline AttackScratch& thread_scratch() {
  thread_local AttackScratch scratch;
  return scratch;
}

}  // namespace sos::attack
