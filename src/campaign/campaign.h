// Umbrella header for the campaign engine: declarative scenario specs,
// figure registry, content-addressed result store, the checkpointing
// in-process runner, the out-of-process worker pool (forked loopback and
// remote TCP workers) and the store-routed design-space optimizer front
// end. See docs/CAMPAIGNS.md for the spec format, store layout, fault
// handling and the remote worker protocol; docs/OPTIMIZER.md for the
// optimizer.
#pragma once

#include "campaign/attempt_ledger.h"   // IWYU pragma: export
#include "campaign/chaos.h"            // IWYU pragma: export
#include "campaign/digest.h"           // IWYU pragma: export
#include "campaign/optimize_runner.h"  // IWYU pragma: export
#include "campaign/registry.h"         // IWYU pragma: export
#include "campaign/remote_pool.h"      // IWYU pragma: export
#include "campaign/remote_protocol.h"  // IWYU pragma: export
#include "campaign/result_store.h"     // IWYU pragma: export
#include "campaign/runner.h"           // IWYU pragma: export
#include "campaign/scenario_spec.h"    // IWYU pragma: export
