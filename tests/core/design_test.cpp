#include "core/design.h"

#include <gtest/gtest.h>

namespace sos::core {
namespace {

SosDesign paper_default(int layers = 3,
                        MappingPolicy mapping = MappingPolicy::one_to_all()) {
  return SosDesign::make(10000, 100, layers, 10, mapping);
}

TEST(SosDesign, MakeMatchesPaperDefaults) {
  const auto design = paper_default();
  EXPECT_EQ(design.total_overlay_nodes, 10000);
  EXPECT_EQ(design.layers(), 3);
  EXPECT_EQ(design.sos_node_count(), 100);
  EXPECT_EQ(design.filter_count, 10);
}

TEST(SosDesign, LayerSizeIncludesFilters) {
  const auto design = paper_default(4);
  EXPECT_EQ(design.layer_size(1), 25);
  EXPECT_EQ(design.layer_size(4), 25);
  EXPECT_EQ(design.layer_size(5), 10);  // filter layer = L+1
  EXPECT_THROW(design.layer_size(0), std::out_of_range);
  EXPECT_THROW(design.layer_size(6), std::out_of_range);
}

TEST(SosDesign, DegreesFollowMappingPerLayer) {
  const auto design = paper_default(3, MappingPolicy::one_to_half());
  // Even split of 100 into 3 gives 34,33,33; half-mapping rounds up.
  EXPECT_EQ(design.degree_into(1), 17);
  EXPECT_EQ(design.degree_into(2), 17);
  EXPECT_EQ(design.degree_into(3), 17);
  EXPECT_EQ(design.degree_into(4), 5);  // into the 10 filters
}

TEST(SosDesign, OneToAllDegreesEqualLayerSizes) {
  const auto design = paper_default(3);
  for (int i = 1; i <= 4; ++i)
    EXPECT_EQ(design.degree_into(i), design.layer_size(i));
}

TEST(SosDesign, ValidateCatchesEmptyLayers) {
  SosDesign design = paper_default();
  design.layer_sizes[1] = 0;
  EXPECT_THROW(design.validate(), std::invalid_argument);
}

TEST(SosDesign, ValidateCatchesTooManySosNodes) {
  SosDesign design = paper_default();
  design.total_overlay_nodes = 50;
  EXPECT_THROW(design.validate(), std::invalid_argument);
}

TEST(SosDesign, ValidateCatchesBadFilterCount) {
  SosDesign design = paper_default();
  design.filter_count = 0;
  EXPECT_THROW(design.validate(), std::invalid_argument);
}

TEST(SosDesign, MakeRejectsImpossibleLayering) {
  EXPECT_THROW(SosDesign::make(10000, 3, 5, 10, MappingPolicy::one_to_one()),
               std::invalid_argument);
}

TEST(SosDesign, SummaryMentionsKeyParameters) {
  const auto summary = paper_default(3, MappingPolicy::one_to_five()).summary();
  EXPECT_NE(summary.find("L=3"), std::string::npos);
  EXPECT_NE(summary.find("one-to-five"), std::string::npos);
  EXPECT_NE(summary.find("N=10000"), std::string::npos);
}

TEST(SosDesign, DistributionsProduceDifferentShapes) {
  const auto inc = SosDesign::make(10000, 100, 4, 10,
                                   MappingPolicy::one_to_two(),
                                   NodeDistribution::increasing());
  const auto dec = SosDesign::make(10000, 100, 4, 10,
                                   MappingPolicy::one_to_two(),
                                   NodeDistribution::decreasing());
  EXPECT_EQ(inc.sos_node_count(), 100);
  EXPECT_EQ(dec.sos_node_count(), 100);
  EXPECT_LT(inc.layer_size(2), dec.layer_size(2));
  EXPECT_GT(inc.layer_size(4), dec.layer_size(4));
}

}  // namespace
}  // namespace sos::core
