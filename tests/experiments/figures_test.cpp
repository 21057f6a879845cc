// The figure generators are the deliverable that regenerates the paper's
// evaluation; these tests pin their structure (series, tables, CSV fences)
// and assert that every qualitative paper claim passes on default
// parameters.
#include <gtest/gtest.h>

#include "experiments/figures.h"

namespace sos::experiments {
namespace {

Params fast_params() {
  Params params;
  params.mc_trials = 0;  // analytical-only: keep the suite fast
  return params;
}

void expect_all_checks_pass(const Figure& figure) {
  for (const auto& check : figure.checks)
    EXPECT_TRUE(check.passed) << figure.id << ": " << check.claim << " ("
                              << check.detail << ")";
}

void expect_well_formed(const Figure& figure) {
  EXPECT_FALSE(figure.id.empty());
  EXPECT_FALSE(figure.title.empty());
  EXPECT_GT(figure.table.row_count(), 0u);
  EXPECT_FALSE(figure.series.empty());
  for (const auto& series : figure.series) {
    EXPECT_FALSE(series.xs.empty()) << figure.id << "/" << series.label;
    EXPECT_EQ(series.xs.size(), series.ys.size());
    for (const double y : series.ys) {
      EXPECT_GE(y, 0.0) << figure.id << "/" << series.label;
      EXPECT_LE(y, 1.0) << figure.id << "/" << series.label;
    }
  }
  const std::string text = render_figure(figure);
  EXPECT_NE(text.find("# CSV begin"), std::string::npos);
  EXPECT_NE(text.find("# CSV end"), std::string::npos);
  EXPECT_NE(text.find(figure.title), std::string::npos);
}

TEST(Figures, Fig4aChecksPass) {
  const auto figure = fig4a(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 6u);  // 2 budgets x 3 mappings
  EXPECT_EQ(figure.table.row_count(), 48u);
}

TEST(Figures, Fig4bChecksPass) {
  const auto figure = fig4b(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 6u);
}

TEST(Figures, Fig6aChecksPass) {
  const auto figure = fig6a(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 5u);  // five mapping degrees
}

TEST(Figures, Fig6bChecksPass) {
  const auto figure = fig6b(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 6u);  // 2 mappings x 3 distributions
}

TEST(Figures, Fig7ChecksPass) {
  const auto figure = fig7(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 4u);  // L in {2,3,4,5}
  EXPECT_EQ(figure.table.row_count(), 40u);
}

TEST(Figures, Fig8aChecksPass) {
  const auto figure = fig8a(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 4u);  // 2 N x 2 mappings
}

TEST(Figures, Fig8bChecksPass) {
  const auto figure = fig8b(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 4u);  // 2 L x 2 mappings
}

TEST(Figures, ExtNcChecksPass) {
  const auto figure = ext_nc_sensitivity(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
}

TEST(Figures, ExtExactChecksPass) {
  const auto figure = ext_exact_vs_average(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
}

TEST(Figures, ExtPoolChecksPass) {
  const auto figure = ext_pool_bookkeeping(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 2u);
}

TEST(Figures, ExtLatencyChecksPass) {
  const auto figure = ext_latency_tradeoff(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
}

TEST(Figures, ExtBudgetChecksPass) {
  const auto figure = ext_budget_split(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 4u);  // four designs
}

TEST(Figures, ExtProtocolChecksPass) {
  Params params = fast_params();
  params.mc_trials = 40;
  const auto figure = ext_protocol_semantics(params);
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 3u);
}

TEST(Figures, ExtMigrationChecksPass) {
  Params params = fast_params();
  params.mc_trials = 30;
  const auto figure = ext_migration_defense(params);
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
}

// These two figures tally per-trial counts (roles migrated, nodes repaired)
// from inside trials that run on the Monte Carlo pool's threads. At one
// seed, the whole CSV must repeat exactly, whichever thread finishes first.
TEST(FigureDeterminism, MigrationDefenseRepeatsAtOneSeed) {
  Params params = fast_params();
  params.mc_trials = 60;
  EXPECT_EQ(ext_migration_defense(params).table.to_csv(),
            ext_migration_defense(params).table.to_csv());
}

TEST(FigureDeterminism, RepairDynamicsRepeatsAtOneSeed) {
  Params params = fast_params();
  params.mc_trials = 60;
  EXPECT_EQ(ext_repair_dynamics(params).table.to_csv(),
            ext_repair_dynamics(params).table.to_csv());
}

TEST(Figures, ExtHardeningChecksPass) {
  const auto figure = ext_hardening_placement(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 3u);  // three placements
}

TEST(Figures, ExtTimelineChecksPass) {
  Params params = fast_params();
  params.mc_trials = 12;
  const auto figure = ext_attack_timeline(params);
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 3u);  // three defenses
}

TEST(Figures, ExtFaultsChecksPass) {
  Params params = fast_params();
  params.mc_trials = 40;
  const auto figure = ext_fault_tolerance(params);
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  // 3 budgets x (model, MC) + the loss-sweep delivery curve.
  EXPECT_EQ(figure.series.size(), 7u);
}

TEST(Figures, ExtProfileChecksPass) {
  const auto figure = ext_mapping_profile(fast_params());
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 3u);  // three profiles
}

TEST(Figures, ExtSamplingChecksPass) {
  Params params = fast_params();
  params.mc_trials = 96;  // caps every estimator: structural checks only,
  params.mc_walks = 2;    // the deep acceptance checks stay disarmed
  const auto figure = ext_sampling_curve(params);
  expect_well_formed(figure);
  expect_all_checks_pass(figure);
  EXPECT_EQ(figure.series.size(), 3u);  // sequential, stratified, importance
  const std::string csv = figure.table.to_csv();
  EXPECT_NE(csv.find("strat_trials"), std::string::npos);
  EXPECT_NE(csv.find("naive_trials_needed"), std::string::npos);
}

TEST(Figures, MonteCarloOverlayAddsColumns) {
  Params params;
  params.mc_trials = 4;  // tiny: structural test only
  params.mc_walks = 2;
  const auto figure = fig7(params);
  const std::string csv = figure.table.to_csv();
  EXPECT_NE(csv.find("P_S_mc"), std::string::npos);
  EXPECT_NE(csv.find("mc_ci_lo"), std::string::npos);
}

TEST(Figures, ParamsScaleTheSystem) {
  Params params = fast_params();
  params.total_overlay = 20000;  // figures keep the paper's N_C budgets,
  params.sos_nodes = 80;         // so N must stay >= 6000
  const auto figure = fig4a(params);
  expect_well_formed(figure);
  // Closed form at L=1, one-to-one: 1 - NC/N = 1 - 2000/20000.
  const std::string csv = figure.table.to_csv();
  EXPECT_NE(csv.find("2000,one-to-one,1,0.9000"), std::string::npos);
}

}  // namespace
}  // namespace sos::experiments
