#include "faults/fault_config.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace sos::faults {
namespace {

FaultConfig churn_config() {
  FaultConfig config;
  config.node_mtbf = 2.0;
  config.node_mttr = 0.5;
  config.filter_flap_mtbf = 3.0;
  config.filter_flap_mttr = 0.25;
  config.lossy_fraction = 0.25;
  return config;
}

TEST(FaultConfig, SteadyStateMath) {
  FaultConfig config;
  EXPECT_EQ(config.steady_state_node_up(), 1.0);
  EXPECT_EQ(config.steady_state_filter_up(), 1.0);
  config.node_mtbf = 3.0;
  config.node_mttr = 1.0;
  EXPECT_DOUBLE_EQ(config.steady_state_node_up(), 0.75);
  config.filter_flap_mtbf = 9.0;
  config.filter_flap_mttr = 1.0;
  EXPECT_DOUBLE_EQ(config.steady_state_filter_up(), 0.9);
}

TEST(FaultConfig, ValidateNamesFieldAndAcceptedValues) {
  const auto expect_reject = [](FaultConfig config, const char* field) {
    try {
      config.validate();
      FAIL() << "expected rejection of " << field;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("FaultConfig"), std::string::npos) << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
      EXPECT_NE(what.find("(accepted:"), std::string::npos) << what;
    }
  };
  FaultConfig config;
  config.node_mtbf = -1.0;
  expect_reject(config, "node_mtbf");

  config = FaultConfig{};
  config.node_mtbf = 1.0;
  config.node_mttr = 0.0;
  expect_reject(config, "node_mttr");

  config = FaultConfig{};
  config.filter_flap_mtbf = 1.0;
  config.filter_flap_mttr = -0.5;
  expect_reject(config, "filter_flap_mttr");

  config = FaultConfig{};
  config.lossy_fraction = 1.5;
  expect_reject(config, "lossy_fraction");

  EXPECT_NO_THROW(FaultConfig{}.validate());
  EXPECT_NO_THROW(churn_config().validate());
}

}  // namespace
}  // namespace sos::faults
