#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/design.h"
#include "sosnet/sos_overlay.h"

namespace sos::faults {
namespace {

core::SosDesign small_design() {
  return core::SosDesign::make(500, 60, 3, 10,
                               core::MappingPolicy::one_to_five());
}

TEST(SteadyStateFaults, DisabledConfigConsumesNoDraws) {
  sosnet::SosOverlay overlay{small_design(), 8};
  common::Rng used{42}, untouched{42};
  apply_steady_state_faults(FaultConfig{}, overlay, used);
  EXPECT_FALSE(overlay.substrate().any_degraded());
  // Bit-identity guarantee: the stream was not advanced.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(used.next_double(), untouched.next_double());
}

TEST(SteadyStateFaults, CrashesTrackTheSteadyStateRate) {
  const auto design = core::SosDesign::make(4000, 60, 3, 10,
                                            core::MappingPolicy::one_to_two());
  sosnet::SosOverlay overlay{design, 9};
  FaultConfig config;
  config.node_mtbf = 3.0;
  config.node_mttr = 1.0;  // steady-state up = 0.75
  common::Rng rng{11};
  apply_steady_state_faults(config, overlay, rng);
  const double crashed_fraction =
      static_cast<double>(overlay.substrate().crashed_count()) /
      overlay.network().size();
  EXPECT_NEAR(crashed_fraction, 0.25, 0.03);
  EXPECT_EQ(overlay.substrate().lossy_count(), 0);
}

TEST(SteadyStateFaults, LossySkipsCrashedNodes) {
  sosnet::SosOverlay overlay{small_design(), 10};
  FaultConfig config;
  config.node_mtbf = 1.0;
  config.node_mttr = 1.0;  // half the nodes down
  config.lossy_fraction = 1.0;  // every *up* node lossy
  common::Rng rng{12};
  apply_steady_state_faults(config, overlay, rng);
  EXPECT_EQ(overlay.substrate().crashed_count() +
                overlay.substrate().lossy_count(),
            overlay.network().size());
  EXPECT_GT(overlay.substrate().crashed_count(), 0);
  EXPECT_GT(overlay.substrate().lossy_count(), 0);
}

}  // namespace
}  // namespace sos::faults
