// Direct unit tests for the break-in / congestion primitives every attacker
// is built from (the attacker tests cover them end to end; these pin the
// contracts).
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/break_in.h"
#include "attack/congestion.h"
#include "common/rng.h"
#include "common/scan_mode.h"

namespace sos::attack {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(200, 30, 3, 10,
                               core::MappingPolicy::one_to_five());
}

struct Fixture {
  core::SosDesign design;
  sosnet::SosOverlay overlay;
  AttackerKnowledge knowledge;
  AttackOutcome outcome;
  common::Rng rng{13};

  explicit Fixture(core::SosDesign d = small_design())
      : design(std::move(d)),
        overlay(design, 11),
        knowledge(overlay.network().size(), overlay.filter_count()) {
    outcome.broken_per_layer.assign(3, 0);
    outcome.congested_per_layer.assign(3, 0);
  }

  int member(int layer, int index = 0) {
    return overlay.topology().members(layer)[static_cast<std::size_t>(index)];
  }
  int bystander() {
    for (int node = 0; node < overlay.network().size(); ++node)
      if (!overlay.topology().is_sos_member(node)) return node;
    return -1;
  }
};

TEST(BreakIn, SuccessfulAttemptDisclosesNextLayer) {
  Fixture f;
  const int victim = f.member(0);
  const bool success =
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome);
  ASSERT_TRUE(success);
  EXPECT_EQ(f.overlay.network().health(victim),
            overlay::NodeHealth::kBrokenIn);
  EXPECT_TRUE(f.knowledge.attempted(victim));
  EXPECT_EQ(f.outcome.broken_in, 1);
  EXPECT_EQ(f.outcome.broken_per_layer[0], 1);
  // Every neighbor of the victim is now disclosed.
  for (const int neighbor : f.overlay.topology().neighbors(victim))
    EXPECT_TRUE(f.knowledge.disclosed(neighbor));
  EXPECT_EQ(f.knowledge.disclosed_count(),
            static_cast<int>(f.overlay.topology().neighbors(victim).size()));
}

TEST(BreakIn, FailedAttemptOnlyMarksAttempted) {
  Fixture f;
  const int victim = f.member(1);
  const bool success =
      attempt_break_in(f.overlay, victim, 0.0, f.knowledge, f.rng, f.outcome);
  EXPECT_FALSE(success);
  EXPECT_TRUE(f.knowledge.attempted(victim));
  EXPECT_TRUE(f.overlay.network().is_good(victim));
  EXPECT_EQ(f.outcome.break_in_attempts, 1);
  EXPECT_EQ(f.outcome.broken_in, 0);
  EXPECT_EQ(f.knowledge.disclosed_count(), 0);
}

TEST(BreakIn, LastLayerDisclosesFiltersNotNodes) {
  Fixture f;
  const int victim = f.member(2);
  ASSERT_TRUE(
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome));
  EXPECT_EQ(f.knowledge.disclosed_count(), 0);
  EXPECT_EQ(f.knowledge.disclosed_filter_count(),
            static_cast<int>(f.overlay.topology().neighbors(victim).size()));
}

TEST(BreakIn, BystanderDisclosesNothing) {
  Fixture f;
  const int victim = f.bystander();
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome));
  EXPECT_EQ(f.outcome.broken_in, 1);
  EXPECT_EQ(f.outcome.broken_per_layer[0] + f.outcome.broken_per_layer[1] +
                f.outcome.broken_per_layer[2],
            0);
  EXPECT_EQ(f.knowledge.disclosed_count(), 0);
}

TEST(BreakIn, AlreadyBrokenNodeIsSkipped) {
  Fixture f;
  const int victim = f.member(0);
  ASSERT_TRUE(
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome));
  EXPECT_FALSE(
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome));
  EXPECT_EQ(f.outcome.break_in_attempts, 1);  // second call is a no-op
}

TEST(BreakIn, CongestedNodeCanStillBeBrokenInto) {
  Fixture f;
  const int victim = f.member(0);
  f.overlay.network().set_health(victim, overlay::NodeHealth::kCongested);
  EXPECT_TRUE(
      attempt_break_in(f.overlay, victim, 1.0, f.knowledge, f.rng, f.outcome));
  EXPECT_EQ(f.overlay.network().health(victim),
            overlay::NodeHealth::kBrokenIn);
}

TEST(Congestion, CongestNodeTransitions) {
  Fixture f;
  const int victim = f.member(1, 2);
  EXPECT_TRUE(congest_node(f.overlay, victim, f.outcome));
  EXPECT_EQ(f.overlay.network().health(victim),
            overlay::NodeHealth::kCongested);
  EXPECT_EQ(f.outcome.congested_per_layer[1], 1);
  // Idempotent; never applied to broken nodes.
  EXPECT_FALSE(congest_node(f.overlay, victim, f.outcome));
  const int captured = f.member(0);
  f.overlay.network().set_health(captured, overlay::NodeHealth::kBrokenIn);
  EXPECT_FALSE(congest_node(f.overlay, captured, f.outcome));
  EXPECT_EQ(f.outcome.congested_nodes, 1);
}

TEST(Congestion, PhaseCongestsDisclosedFirstThenSpills) {
  Fixture f;
  // Disclose three members and two filters.
  f.knowledge.disclose(f.member(1, 0));
  f.knowledge.disclose(f.member(1, 1));
  f.knowledge.disclose(f.member(2, 0));
  f.knowledge.disclose_filter(0);
  f.knowledge.disclose_filter(7);
  execute_congestion_phase(f.overlay, f.knowledge, 20, f.rng, f.outcome);

  EXPECT_EQ(f.outcome.disclosed_at_congestion, 5);
  // All disclosed targets congested...
  EXPECT_FALSE(f.overlay.network().is_good(f.member(1, 0)));
  EXPECT_FALSE(f.overlay.network().is_good(f.member(1, 1)));
  EXPECT_FALSE(f.overlay.network().is_good(f.member(2, 0)));
  EXPECT_TRUE(f.overlay.filter_congested(0));
  EXPECT_TRUE(f.overlay.filter_congested(7));
  // ...and the full budget was spent (spill-over onto 15 random nodes).
  EXPECT_EQ(f.outcome.congested_nodes + f.outcome.congested_filters, 20);
}

TEST(Congestion, ScarceBudgetPicksASubsetOfDisclosed) {
  Fixture f;
  for (int i = 0; i < 8; ++i) f.knowledge.disclose(f.member(0, i));
  execute_congestion_phase(f.overlay, f.knowledge, 3, f.rng, f.outcome);
  EXPECT_EQ(f.outcome.congested_nodes, 3);
  EXPECT_EQ(f.outcome.disclosed_at_congestion, 8);
  // Nothing outside the disclosed set was touched.
  EXPECT_EQ(f.overlay.network().congested_count(), 3);
  int congested_members = 0;
  for (int i = 0; i < 8; ++i)
    if (!f.overlay.network().is_good(f.member(0, i))) ++congested_members;
  EXPECT_EQ(congested_members, 3);
}

TEST(Congestion, BrokenDisclosedNodesAreNotTargets) {
  Fixture f;
  const int captured = f.member(1, 0);
  f.knowledge.disclose(captured);
  f.overlay.network().set_health(captured, overlay::NodeHealth::kBrokenIn);
  execute_congestion_phase(f.overlay, f.knowledge, 1, f.rng, f.outcome);
  EXPECT_EQ(f.outcome.disclosed_at_congestion, 0);
  EXPECT_EQ(f.overlay.network().health(captured),
            overlay::NodeHealth::kBrokenIn);
  // Budget went to the random spill instead.
  EXPECT_EQ(f.outcome.congested_nodes, 1);
}

TEST(Congestion, SpillNeverHitsFilters) {
  Fixture f;
  execute_congestion_phase(f.overlay, f.knowledge, 150, f.rng, f.outcome);
  EXPECT_EQ(f.outcome.congested_filters, 0);
  EXPECT_EQ(f.overlay.congested_filter_count(), 0);
  EXPECT_EQ(f.outcome.congested_nodes, 150);
}

TEST(Congestion, BudgetLargerThanPoolCongestsEverythingCongestable) {
  Fixture f;
  const int captured = f.member(0);
  f.overlay.network().set_health(captured, overlay::NodeHealth::kBrokenIn);
  execute_congestion_phase(f.overlay, f.knowledge, 200, f.rng, f.outcome);
  // Everything good got congested; the broken node stayed broken.
  EXPECT_EQ(f.overlay.network().good_count(), 0);
  EXPECT_EQ(f.overlay.network().broken_in_count(), 1);
  EXPECT_EQ(f.outcome.congested_nodes, 199);
}

// Nodes broken into and nodes (and filters) disclosed before the phase; the
// spill-over pool is the complement of both.
struct ExclusionCase {
  std::string name;
  std::vector<int> broken;
  std::vector<int> disclosed;
  std::vector<int> filters;
};

std::vector<int> node_range(int begin, int end, int step = 1) {
  std::vector<int> nodes;
  for (int node = begin; node < end; node += step) nodes.push_back(node);
  return nodes;
}

void apply(const ExclusionCase& exclusion, Fixture& f) {
  for (const int node : exclusion.broken)
    f.overlay.network().set_health(node, overlay::NodeHealth::kBrokenIn);
  for (const int node : exclusion.disclosed) f.knowledge.disclose(node);
  for (const int filter : exclusion.filters) f.knowledge.disclose_filter(filter);
}

// Everything the phase leaves behind that the two scan modes must agree on.
struct PhaseState {
  std::vector<overlay::NodeHealth> health;
  std::vector<bool> filters_congested;
  AttackOutcome outcome;
  std::uint64_t next_draw = 0;
};

PhaseState run_phase(const ExclusionCase& exclusion, int budget,
                     bool force_full_scan,
                     const core::SosDesign& design = small_design()) {
  Fixture f{design};
  f.rng = common::Rng{0x5eedULL + static_cast<std::uint64_t>(budget)};
  apply(exclusion, f);
  common::set_force_full_scan(force_full_scan);
  execute_congestion_phase(f.overlay, f.knowledge, budget, f.rng, f.outcome);
  common::set_force_full_scan(false);

  PhaseState state;
  for (int node = 0; node < f.overlay.network().size(); ++node)
    state.health.push_back(f.overlay.network().health(node));
  for (int filter = 0; filter < f.overlay.filter_count(); ++filter)
    state.filters_congested.push_back(f.overlay.filter_congested(filter));
  state.outcome = f.outcome;
  state.next_draw = f.rng.next();
  return state;
}

void expect_same_phase(const PhaseState& fast, const PhaseState& reference) {
  ASSERT_EQ(fast.health, reference.health);
  ASSERT_EQ(fast.filters_congested, reference.filters_congested);
  ASSERT_EQ(fast.outcome.congested_nodes, reference.outcome.congested_nodes);
  ASSERT_EQ(fast.outcome.congested_filters,
            reference.outcome.congested_filters);
  ASSERT_EQ(fast.outcome.disclosed_at_congestion,
            reference.outcome.disclosed_at_congestion);
  ASSERT_EQ(fast.outcome.congested_per_layer,
            reference.outcome.congested_per_layer);
  ASSERT_EQ(fast.outcome.broken_per_layer, reference.outcome.broken_per_layer);
  ASSERT_EQ(fast.next_draw, reference.next_draw);
}

// The complement-index spill-over against the forced O(N) reference, at the
// edges of the exclusion set (first and last node, a contiguous run, half the
// population, a dirty list one entry short of saturating and one already
// saturated) and at every budget from zero to one past the congestable
// population: scarce, exact, spill-over, whole-pool walk and surplus.
TEST(Congestion, PhaseMatchesFullScanReferenceAtExclusionEdges) {
  constexpr int kNodes = 200;  // Fixture's overlay; N/4 = 50 touches fit
  const std::vector<ExclusionCase> cases{
      {"none", {}, {}, {}},
      {"first node broken", {0}, {}, {}},
      {"first node disclosed", {}, {0}, {}},
      {"last node broken", {kNodes - 1}, {}, {}},
      {"last node disclosed", {}, {kNodes - 1}, {}},
      {"contiguous run", node_range(60, 80), node_range(75, 95), {0, 9}},
      {"about half disclosed", {1, 3, 5}, node_range(0, kNodes, 2), {4}},
      {"dirty list one entry short of saturating", node_range(0, 49 * 4, 4),
       {}, {}},
      {"saturated before the phase", node_range(1, kNodes, 3), {}, {}},
  };
  for (const auto& exclusion : cases) {
    SCOPED_TRACE(exclusion.name);
    Fixture probe;
    apply(exclusion, probe);
    EXPECT_EQ(probe.overlay.network().health_scan_saturated(),
              exclusion.broken.size() * 4 > kNodes);
    int congestable = probe.knowledge.disclosed_filter_count();
    for (int node = 0; node < kNodes; ++node)
      if (probe.overlay.network().is_good(node)) ++congestable;

    for (int budget = 0; budget <= congestable + 1; ++budget) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      ASSERT_NO_FATAL_FAILURE(expect_same_phase(
          run_phase(exclusion, budget, false),
          run_phase(exclusion, budget, true)));
    }
  }
}

// The same comparison where the exclusion list needs two radix passes and
// the complement index has hundreds of buckets: 1,000+ excluded nodes among
// 6,000 (scattered, and in runs at both edges of the id range), at budgets
// in the scarce, spill-over and whole-pool regimes.
TEST(Congestion, PhaseMatchesFullScanReferenceOnALargeOverlay) {
  constexpr int kNodes = 6000;
  const core::SosDesign design = core::SosDesign::make(
      kNodes, 300, 3, 10, core::MappingPolicy::one_to_five());
  common::Rng draw{0xb16ULL};
  const auto scattered = [&](int count) {
    std::vector<int> nodes;
    for (int i = 0; i < count; ++i)
      nodes.push_back(static_cast<int>(draw.next_below(kNodes)));
    return nodes;
  };
  const auto joined = [](std::vector<int> a, const std::vector<int>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const std::vector<ExclusionCase> cases{
      {"scattered", scattered(500), scattered(700), {1, 4}},
      {"runs at both edges",
       joined(node_range(0, 250), node_range(kNodes - 250, kNodes)),
       joined(node_range(2000, 2600), scattered(100)),
       {9}},
  };
  for (const auto& exclusion : cases) {
    SCOPED_TRACE(exclusion.name);
    // Every node the phase takes off kGood before its spill-over is broken
    // or disclosed here, so this bound keeps the dirty list unsaturated and
    // the fast path in play.
    ASSERT_LE((exclusion.broken.size() + exclusion.disclosed.size()) * 4,
              static_cast<std::size_t>(kNodes));
    std::set<int> excluded(exclusion.broken.begin(), exclusion.broken.end());
    excluded.insert(exclusion.disclosed.begin(), exclusion.disclosed.end());
    ASSERT_GE(excluded.size(), 1000u);

    Fixture probe{design};
    apply(exclusion, probe);
    int good = 0;
    for (int node = 0; node < kNodes; ++node)
      if (probe.overlay.network().is_good(node)) ++good;
    int targets = probe.knowledge.disclosed_filter_count();
    for (const int node : excluded)
      if (probe.overlay.network().is_good(node)) ++targets;
    const int congestable = good + probe.knowledge.disclosed_filter_count();
    // Scarce; exact; spill-over through Floyd's sparse draws (1, 1,000) and
    // the dense Fisher-Yates pool (2,000, all but one); whole pool; surplus.
    for (const int budget :
         {targets - 1, targets, targets + 1, targets + 1000, targets + 2000,
          congestable - 1, congestable, congestable + 1}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      ASSERT_NO_FATAL_FAILURE(expect_same_phase(
          run_phase(exclusion, budget, false, design),
          run_phase(exclusion, budget, true, design)));
    }
  }
}

}  // namespace
}  // namespace sos::attack
