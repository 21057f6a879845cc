// Umbrella header for the SOS overlay library.
//
// Pull in everything a downstream user typically needs:
//
//   #include <sos.h>
//
//   auto design = sos::core::SosDesign::make(
//       10000, 100, 4, 10, sos::core::MappingPolicy::one_to_two());
//   sos::core::SuccessiveAttack attack{/*...*/};
//   double p = sos::core::SuccessiveModel::p_success(design, attack);
//
// Layering (each module only depends on the ones above it):
//   common  - RNG, combinatorics, stats, tables, plots, CLI
//   overlay - Chord ring, node population
//   core    - the paper's models and design-space analysis
//   sosnet  - a concrete SOS overlay + routing/protocol simulation
//   faults  - steady-state benign faults (crashes, loss, filter flaps)
//   attack  - attacker implementations
//   sim     - Monte Carlo, defenses (repair/migration), timeline dynamics
//   campaign - declarative scenario specs, cached + resumable execution
#pragma once

#include "common/ascii_plot.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/mathx.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"

#include "overlay/chord.h"
#include "overlay/network.h"
#include "overlay/node_id.h"

#include "core/attack_config.h"
#include "core/budget_frontier.h"
#include "core/degraded_substrate.h"
#include "core/design.h"
#include "core/distribution.h"
#include "core/exact_models.h"
#include "core/mapping.h"
#include "core/model_result.h"
#include "core/one_burst_model.h"
#include "core/path_probability.h"
#include "core/sensitivity.h"
#include "core/successive_model.h"

#include "sosnet/health_state.h"
#include "sosnet/protocol.h"
#include "sosnet/sos_overlay.h"
#include "sosnet/topology.h"

#include "faults/fault_config.h"
#include "faults/fault_injector.h"

#include "attack/attack_outcome.h"
#include "attack/knowledge.h"
#include "attack/one_burst_attacker.h"
#include "attack/random_congestion_attacker.h"
#include "attack/successive_attacker.h"

#include "sim/defense.h"
#include "sim/monte_carlo.h"
#include "sim/timeline.h"

#include "campaign/campaign.h"
