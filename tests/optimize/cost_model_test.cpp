// CostModel: the link count against hand-counted fan-outs, price
// composition, and the "(accepted:)" validation contract.
#include "optimize/cost_model.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/design.h"

namespace sos::optimize {
namespace {

core::SosDesign design(int layers, const std::string& mapping,
                       int sos_nodes = 100) {
  return core::SosDesign::make(10000, sos_nodes, layers, 10,
                               core::MappingPolicy::parse(mapping),
                               core::NodeDistribution::even());
}

TEST(CostModel, LinkCountMatchesHandCount) {
  // L=1, n=100, one-to-one: clients contact m_1=1 node; the single layer
  // fans into the filter hop with 100 * 1 entries.
  EXPECT_EQ(CostModel::link_count(design(1, "one-to-one")), 1 + 100);

  // L=2, n=100, even split (50/50), one-to-five: m_i = 5 everywhere.
  // m_1 + n_1*m_2 + n_2*m_3 = 5 + 50*5 + 50*5 = 505.
  EXPECT_EQ(CostModel::link_count(design(2, "one-to-five")), 505);

  // one-to-all at L=2: every hop fans into the whole next layer (or the
  // whole filter ring on the last hop): 50 + 50*50 + 50*10.
  EXPECT_EQ(CostModel::link_count(design(2, "one-to-all")), 50 + 2500 + 500);
}

TEST(CostModel, DeploymentCostComposesThePrices) {
  CostModel cost;
  cost.node_cost = 2.0;
  cost.filter_cost = 3.0;
  cost.layer_cost = 5.0;
  cost.link_cost = 0.5;
  const auto d = design(2, "one-to-one");
  // 2*100 + 3*10 + 5*2 + 0.5 * (1 + 50 + 50)
  EXPECT_DOUBLE_EQ(cost.deployment_cost(d), 200.0 + 30.0 + 10.0 + 50.5);
}

TEST(CostModel, WiderMappingsAndMoreLayersCostMore) {
  const CostModel cost;
  EXPECT_LT(cost.deployment_cost(design(2, "one-to-one")),
            cost.deployment_cost(design(2, "one-to-five")));
  EXPECT_LT(cost.deployment_cost(design(2, "one-to-five")),
            cost.deployment_cost(design(2, "one-to-all")));
  EXPECT_LT(cost.deployment_cost(design(1, "one-to-one")),
            cost.deployment_cost(design(4, "one-to-one")));
}

TEST(CostModel, ValidateGoldenErrors) {
  CostModel negative;
  negative.filter_cost = -1.0;
  try {
    negative.validate();
    FAIL() << "negative price accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("(accepted:"), std::string::npos)
        << error.what();
  }

  CostModel free_space;
  free_space.node_cost = 0.0;
  free_space.filter_cost = 0.0;
  free_space.layer_cost = 0.0;
  free_space.link_cost = 0.0;
  EXPECT_THROW(free_space.validate(), std::invalid_argument);

  const CostModel defaults;
  EXPECT_NO_THROW(defaults.validate());
}

}  // namespace
}  // namespace sos::optimize
