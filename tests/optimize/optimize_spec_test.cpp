// OptimizeSpec: the key = value grammar, golden "(accepted:)" validation
// errors, canonical round-trip, and searcher auto-resolution.
#include "optimize/optimize_spec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace sos::optimize {
namespace {

/// EXPECT that parsing `text` throws an invalid_argument whose message
/// carries both the offending fragment and an "(accepted:" list.
void expect_golden_error(const std::string& text, const std::string& needle) {
  try {
    OptimizeSpec::parse(text);
    FAIL() << "accepted: " << text;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("(accepted:"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(OptimizeSpec, ParsesAFullSpec) {
  const auto spec = OptimizeSpec::parse(
      "# design-frontier search over the paper's system\n"
      "optimize = tiny\n"
      "n = 1000\n"
      "filters = 8\n"
      "layers = 1..3\n"
      "sos = 24, 48\n"
      "mappings = one-to-one, one-to-all\n"
      "distributions = even\n"
      "cost_link = 0.1\n"
      "attacker = one-burst\n"
      "budget_total = 400\n"
      "rounds = 2\n"
      "split_steps = 11\n"
      "searcher = anneal\n"
      "sa_restarts = 4\n"
      "validate_trials = 32\n"
      "seed = 0xbeef\n");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.space.total_overlay_nodes, 1000);
  EXPECT_EQ(spec.space.layers, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(spec.space.sos_nodes, (std::vector<int>{24, 48}));
  EXPECT_EQ(spec.space.mappings.size(), 2u);
  EXPECT_EQ(spec.cost.link_cost, 0.1);
  EXPECT_EQ(spec.objective.model, AttackerModel::kOneBurst);
  EXPECT_EQ(spec.objective.budget.total, 400.0);
  EXPECT_EQ(spec.objective.split_steps, 11);
  EXPECT_EQ(spec.searcher, OptimizeSpec::Searcher::kAnneal);
  EXPECT_EQ(spec.anneal.restarts, 4);
  EXPECT_EQ(spec.validate_trials, 32);
  EXPECT_EQ(spec.seed, 0xbeefULL);
}

TEST(OptimizeSpec, DefaultsValidate) {
  const OptimizeSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_searcher(), OptimizeSpec::Searcher::kExhaustive)
      << "the default space is small enough for the exact searcher";
}

TEST(OptimizeSpec, GoldenErrors) {
  expect_golden_error("nonsense\n", "key = value");
  expect_golden_error("frobnicate = 3\n", "frobnicate");
  expect_golden_error("layers = 3..1\n", "lo..hi");
  expect_golden_error("searcher = magic\n", "auto, exhaustive, anneal");
  expect_golden_error("attacker = stealth\n", "stealth");
  expect_golden_error("optimize = bad name\n", "bad name");
  expect_golden_error("split_steps = 1\n", "split_steps");
  expect_golden_error("validate_trials = -1\n", "validate_trials");
  expect_golden_error("sa_t_initial = 0.001\nsa_t_final = 0.5\n",
                      "t_initial >= t_final");
  expect_golden_error("n = 1000\nsos = 2000\n", "sos");
  expect_golden_error("layers = 2\nlayers = 3\n", "duplicate");
}

TEST(OptimizeSpec, AutoSearcherResolvesBySpaceSize) {
  OptimizeSpec spec;
  spec.auto_exhaustive_max = static_cast<int>(spec.space.size());
  EXPECT_EQ(spec.resolved_searcher(), OptimizeSpec::Searcher::kExhaustive);
  spec.auto_exhaustive_max = static_cast<int>(spec.space.size()) - 1;
  EXPECT_EQ(spec.resolved_searcher(), OptimizeSpec::Searcher::kAnneal);
  spec.searcher = OptimizeSpec::Searcher::kExhaustive;
  EXPECT_EQ(spec.resolved_searcher(), OptimizeSpec::Searcher::kExhaustive)
      << "explicit choice wins over auto";
}

}  // namespace
}  // namespace sos::optimize
