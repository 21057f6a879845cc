// Microbenchmarks: cost of evaluating the analytical models, building
// topologies, executing attacks, routing walks and Chord lookups. These are
// the primitives every figure sweep is made of, so their cost bounds how
// fine-grained a parameter sweep can be.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <unistd.h>

#include "attack/one_burst_attacker.h"
#include "campaign/campaign.h"
#include "attack/successive_attacker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/budget_frontier.h"
#include "core/exact_models.h"
#include "core/one_burst_model.h"
#include "core/successive_model.h"
#include "optimize/optimize.h"
#include "overlay/chord.h"
#include "sim/monte_carlo.h"
#include "sim/sampling.h"
#include "sosnet/protocol.h"
#include "sosnet/sos_overlay.h"
#include "sosnet/topology.h"

namespace {

using namespace sos;  // NOLINT: bench-local brevity

core::SosDesign bench_design(int layers = 3) {
  return core::SosDesign::make(10000, 100, layers, 10,
                               core::MappingPolicy::one_to_five());
}

core::SosDesign bench_design_sized(int total_nodes) {
  return core::SosDesign::make(total_nodes, 100, 3, 10,
                               core::MappingPolicy::one_to_five());
}

core::SuccessiveAttack bench_attack() {
  core::SuccessiveAttack attack;
  attack.break_in_budget = 200;
  attack.congestion_budget = 2000;
  attack.break_in_success = 0.5;
  attack.prior_knowledge = 0.2;
  attack.rounds = 3;
  return attack;
}

void BM_OneBurstModel(benchmark::State& state) {
  const auto design = bench_design(static_cast<int>(state.range(0)));
  const core::OneBurstAttack attack{2000, 2000, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::OneBurstModel::p_success(design, attack));
  }
}
BENCHMARK(BM_OneBurstModel)->Arg(1)->Arg(3)->Arg(8);

void BM_SuccessiveModel(benchmark::State& state) {
  const auto design = bench_design(3);
  auto attack = bench_attack();
  attack.rounds = static_cast<int>(state.range(0));
  attack.break_in_budget = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SuccessiveModel::p_success(design, attack));
  }
}
BENCHMARK(BM_SuccessiveModel)->Arg(1)->Arg(3)->Arg(10);

void BM_ExactRandomCongestionDP(benchmark::State& state) {
  const auto design = bench_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ExactRandomCongestionModel::p_success(design, 2000));
  }
}
BENCHMARK(BM_ExactRandomCongestionDP)->Arg(1)->Arg(3)->Arg(8);

// The analytic budget-curve grid every BM_Analytic* budget bench sweeps:
// the full 0..N congestion range at the figure resolution.
std::vector<int> bench_budget_grid() {
  std::vector<int> budgets;
  for (int budget = 0; budget <= 10000; budget += 500)
    budgets.push_back(budget);
  return budgets;
}

// Per-point baseline for the exact congestion curve: one p_success call per
// budget, so the layer DP is recomputed for every grid point. This is the
// shape every figure sweep had before the batch API existed.
void BM_AnalyticExactCurvePerPoint(benchmark::State& state) {
  const auto design = bench_design(static_cast<int>(state.range(0)));
  const auto budgets = bench_budget_grid();
  for (auto _ : state) {
    double sum = 0.0;
    for (const int budget : budgets)
      sum += core::ExactRandomCongestionModel::p_success(design, budget);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(budgets.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticExactCurvePerPoint)->Arg(1)->Arg(3)->Arg(8);

// Batched curve: the budget-independent layer DP runs once and only the
// cheap mixing stage repeats per budget (O(L*S*n + B*S) vs O(B*L*S*n)).
void BM_AnalyticExactCurveBatch(benchmark::State& state) {
  const auto design = bench_design(static_cast<int>(state.range(0)));
  const auto budgets = bench_budget_grid();
  core::ExactRandomCongestionModel::Workspace workspace;
  std::vector<double> out;
  for (auto _ : state) {
    core::ExactRandomCongestionModel::p_success_curve(design, budgets, out,
                                                      workspace);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(budgets.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticExactCurveBatch)->Arg(1)->Arg(3)->Arg(8);

// Same pair for the original-SOS inclusion-exclusion model (one-to-all
// mapping): per budget the seed walked all 2^L masks; the batch caches the
// per-mask subset sizes and reuses them across the grid.
void BM_AnalyticOriginalCurvePerPoint(benchmark::State& state) {
  const auto design = core::SosDesign::make(
      10000, 100, static_cast<int>(state.range(0)), 10,
      core::MappingPolicy::one_to_all());
  const auto budgets = bench_budget_grid();
  for (auto _ : state) {
    double sum = 0.0;
    for (const int budget : budgets)
      sum += core::OriginalSosModel::p_success(design, budget);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(budgets.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticOriginalCurvePerPoint)->Arg(3)->Arg(8);

void BM_AnalyticOriginalCurveBatch(benchmark::State& state) {
  const auto design = core::SosDesign::make(
      10000, 100, static_cast<int>(state.range(0)), 10,
      core::MappingPolicy::one_to_all());
  const auto budgets = bench_budget_grid();
  core::OriginalSosModel::Workspace workspace;
  std::vector<double> out;
  for (auto _ : state) {
    core::OriginalSosModel::p_success_curve(design, budgets, out, workspace);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(budgets.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticOriginalCurveBatch)->Arg(3)->Arg(8);

// Successive-model sweep, per-point: fresh validation + workspace per call.
void BM_AnalyticSuccessivePerPoint(benchmark::State& state) {
  const auto design = bench_design(3);
  auto attack = bench_attack();
  for (auto _ : state) {
    double sum = 0.0;
    for (int budget_t = 0; budget_t <= 4000; budget_t += 200) {
      attack.break_in_budget = budget_t;
      sum += core::SuccessiveModel::p_success(design, attack);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 21.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticSuccessivePerPoint);

// Same sweep through a SuccessiveEvaluator: the design is validated once and
// the round/trace buffers are reused across all 21 points.
void BM_AnalyticSuccessiveEvaluator(benchmark::State& state) {
  const auto design = bench_design(3);
  auto attack = bench_attack();
  core::SuccessiveEvaluator evaluator{design};
  for (auto _ : state) {
    double sum = 0.0;
    for (int budget_t = 0; budget_t <= 4000; budget_t += 200) {
      attack.break_in_budget = budget_t;
      sum += evaluator.p_success(attack);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 21.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticSuccessiveEvaluator);

// Whole rational-attacker frontier, 21 splits on the caller's thread.
void BM_AnalyticFrontierSweep(benchmark::State& state) {
  const auto design =
      core::SosDesign::make(10000, 100, 4, 10,
                            core::MappingPolicy::one_to_two());
  core::AttackBudget budget;
  budget.total = 4000.0;
  budget.break_in_cost = 2.0;
  budget.congestion_cost = 1.0;
  budget.break_in_success = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BudgetFrontier::sweep(design, budget, 21));
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 21.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyticFrontierSweep)->Unit(benchmark::kMillisecond);

void BM_TopologyBuild(benchmark::State& state) {
  const auto design = bench_design(3);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sosnet::SosOverlay overlay{design, seed++};
    benchmark::DoNotOptimize(overlay.network().size());
  }
}
BENCHMARK(BM_TopologyBuild);

// Topology construction across overlay sizes; the counter reports overlay
// nodes processed per second, so the two sizes are directly comparable.
void BM_TopologyConstruction(benchmark::State& state) {
  const auto design = bench_design_sized(static_cast<int>(state.range(0)));
  common::Rng rng{5};
  for (auto _ : state) {
    sosnet::Topology topology{design, rng};
    benchmark::DoNotOptimize(topology.members(0).size());
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TopologyConstruction)->Arg(1000)->Arg(10000);

// In-place rebuild of a warmed topology: the allocation-free path every
// Monte Carlo trial after the first takes.
void BM_TopologyRebuild(benchmark::State& state) {
  const auto design = bench_design_sized(static_cast<int>(state.range(0)));
  common::Rng rng{5};
  sosnet::TopologyWorkspace workspace;
  sosnet::Topology topology{design, rng};
  topology.rebuild(rng, workspace);  // warm the workspace
  for (auto _ : state) {
    topology.rebuild(rng, workspace);
    benchmark::DoNotOptimize(topology.members(0).size());
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TopologyRebuild)->Arg(1000)->Arg(10000);

void BM_OneBurstAttackExecution(benchmark::State& state) {
  const auto design = bench_design(3);
  const attack::OneBurstAttacker attacker{core::OneBurstAttack{2000, 2000, 0.5}};
  sosnet::SosOverlay overlay{design, 7};
  common::Rng rng{11};
  for (auto _ : state) {
    overlay.reset_health();
    benchmark::DoNotOptimize(attacker.execute(overlay, rng));
  }
}
BENCHMARK(BM_OneBurstAttackExecution);

void BM_SuccessiveAttackExecution(benchmark::State& state) {
  const auto design = bench_design(3);
  auto config = bench_attack();
  config.break_in_budget = 2000;
  config.rounds = static_cast<int>(state.range(0));
  const attack::SuccessiveAttacker attacker{config};
  sosnet::SosOverlay overlay{design, 7};
  common::Rng rng{11};
  for (auto _ : state) {
    overlay.reset_health();
    benchmark::DoNotOptimize(attacker.execute(overlay, rng));
  }
}
BENCHMARK(BM_SuccessiveAttackExecution)->Arg(1)->Arg(5);

void BM_RoutingWalk(benchmark::State& state) {
  const auto design = bench_design(3);
  sosnet::SosOverlay overlay{design, 7};
  common::Rng rng{11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.route_message(rng));
  }
}
BENCHMARK(BM_RoutingWalk);

// route_message across overlay sizes, using the reusable result buffer the
// Monte Carlo engine routes through (no per-walk allocation).
void BM_RoutingWalkSized(benchmark::State& state) {
  const auto design = bench_design_sized(static_cast<int>(state.range(0)));
  sosnet::SosOverlay overlay{design, 7};
  common::Rng rng{11};
  sosnet::WalkResult walk;
  for (auto _ : state) {
    overlay.route_message(rng, walk);
    benchmark::DoNotOptimize(walk.delivered);
  }
  state.counters["walks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RoutingWalkSized)->Arg(1000)->Arg(10000);

// Protocol delivery with the fault machinery off (Arg 0) and on (Arg 1,
// per-leg loss + jitter with retransmission). The pair bounds what the
// benign-fault extension costs on the protocol hot path; Arg 0 must stay
// at the pre-fault baseline since the gated draws add no work at zero
// rates.
void BM_ProtocolDeliver(benchmark::State& state) {
  const auto design = bench_design(3);
  sosnet::SosOverlay overlay{design, 7};
  sosnet::ProtocolConfig config;
  if (state.range(0) == 1) {
    config.faults.loss = 0.1;
    config.faults.jitter = 0.25;
  }
  const sosnet::ProtocolRouter router{overlay, config};
  common::Rng rng{11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.deliver(rng));
  }
  state.counters["deliveries/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProtocolDeliver)->Arg(0)->Arg(1);

void BM_ChordRingBuild(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  overlay::Network network{nodes, 13};
  for (auto _ : state) {
    overlay::ChordRing ring{network.ids()};
    benchmark::DoNotOptimize(ring.size());
  }
}
BENCHMARK(BM_ChordRingBuild)->Arg(1000)->Arg(10000);

void BM_ChordLookup(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  overlay::Network network{nodes, 13};
  const overlay::ChordRing ring{network.ids()};
  common::Rng rng{17};
  for (auto _ : state) {
    const int from = static_cast<int>(rng.next_below(ring.size()));
    const overlay::NodeId key{rng.next()};
    benchmark::DoNotOptimize(ring.lookup(from, key, [](int) { return true; }));
  }
}
BENCHMARK(BM_ChordLookup)->Arg(1000)->Arg(10000);

void BM_MonteCarloTrialBatch(benchmark::State& state) {
  const auto design = bench_design(3);
  const attack::SuccessiveAttacker attacker{bench_attack()};
  sim::MonteCarloConfig config;
  config.trials = 8;
  config.walks_per_trial = 10;
  config.threads = 1;
  for (auto _ : state) {
    config.seed += 1;
    benchmark::DoNotOptimize(sim::run_monte_carlo(
        design,
        [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
          return attacker.execute(overlay, rng);
        },
        config));
  }
}
BENCHMARK(BM_MonteCarloTrialBatch)->Unit(benchmark::kMillisecond);

// Steady-state per-trial cost on the default ext_mc configuration: one
// run_monte_carlo call per iteration, reported as trials per second. This is
// the headline number scripts/bench_baseline records in
// BENCH_monte_carlo.json.
void BM_MonteCarloSteadyState(benchmark::State& state) {
  const auto design = bench_design(3);
  const attack::SuccessiveAttacker attacker{bench_attack()};
  sim::MonteCarloConfig config;
  config.trials = static_cast<int>(state.range(0));
  config.walks_per_trial = 10;
  config.threads = 1;
  const sim::AttackFn attack_fn = [&attacker](sosnet::SosOverlay& overlay,
                                              common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
  for (auto _ : state) {
    config.seed += 1;
    benchmark::DoNotOptimize(sim::run_monte_carlo(design, attack_fn, config));
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(config.trials),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MonteCarloSteadyState)->Arg(32)->Unit(benchmark::kMillisecond);

// A whole mini figure sweep as one list-form run_monte_carlo pass: many
// points sharing the process-wide pool and its per-worker overlays.
void BM_SweepEngine(benchmark::State& state) {
  const attack::SuccessiveAttacker attacker{bench_attack()};
  const sim::AttackFn attack_fn = [&attacker](sosnet::SosOverlay& overlay,
                                              common::Rng& rng) {
    return attacker.execute(overlay, rng);
  };
  sim::MonteCarloConfig config;
  config.trials = 8;
  config.walks_per_trial = 10;
  std::vector<sim::MonteCarloPoint> points;
  for (int layers = 1; layers <= 6; ++layers)
    points.push_back({bench_design(layers), attack_fn, config});
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::run_monte_carlo(points).front().p_success);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(points.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepEngine)->Unit(benchmark::kMillisecond);

// --- Campaign engine: scheduler overhead per point, cold vs warm store ---
//
// The Cold/Warm pairs below run the same spec against a content-addressed
// result store. Cold computes every point and checkpoints it; warm serves
// every point from the store. The points/s ratio between the pair is the
// warm-cache speedup scripts/bench_baseline records in BENCH_campaign.json,
// and the warm number alone bounds the engine's per-point overhead (digest
// + store lookup + CSV assembly, no model evaluation).

std::string bench_store_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sos_perf_micro_" + std::to_string(::getpid()) + "_" + tag);
  return dir.string();
}

// 48-point analytic sweep (2 mappings x 2 layer counts x 12 budgets),
// mirroring the fig4a grid shape at model-only cost.
campaign::ScenarioSpec bench_campaign_spec() {
  campaign::ScenarioSpec spec;
  spec.name = "bench_sweep";
  spec.mode = campaign::ScenarioSpec::Mode::kSweep;
  spec.mc_trials = 0;
  spec.attacker = "one-burst";
  spec.break_in = {0};
  spec.congestion.clear();
  for (int budget = 0; budget <= 5500; budget += 500)
    spec.congestion.push_back(budget);
  spec.mappings = {"one-to-all", "one-to-one"};
  spec.layers = {1, 3};
  return spec;
}

void BM_CampaignColdSweep(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store = bench_store_dir("cold_sweep");
  std::size_t points = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(store);
    state.ResumeTiming();
    campaign::CampaignOptions options;
    options.store_dir = store;
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    points = report.total;
    benchmark::DoNotOptimize(report.computed);
  }
  std::filesystem::remove_all(store);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignColdSweep)
    ->UseRealTime()  // points are sharded across pool threads
    ->Unit(benchmark::kMillisecond);

void BM_CampaignWarmSweep(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store = bench_store_dir("warm_sweep");
  std::filesystem::remove_all(store);
  campaign::CampaignOptions options;
  options.store_dir = store;
  campaign::CampaignRunner{spec, options}.run();  // prime the store
  std::size_t points = 0;
  for (auto _ : state) {
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    points = report.total;
    benchmark::DoNotOptimize(report.cached);
  }
  std::filesystem::remove_all(store);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignWarmSweep)->UseRealTime()->Unit(benchmark::kMillisecond);

// --- Distributed execution: TCP coordinator throughput on the same spec ---
//
// BM_DistributedColdSweep runs the identical 48-point sweep through the
// RemoteWorkerPool: forked loopback workers register over TCP, pull
// work-stealing shards, and stream result frames back to the coordinator,
// which checkpoints each one. Its delta against BM_CampaignColdSweep is
// the price of out-of-process execution (fork, registration, framing,
// settle); the warm variant settles from the store before any worker
// registers, so it bounds the coordinator's fixed cost.
// scripts/bench_baseline records the pair in BENCH_distributed.json.

void BM_DistributedColdSweep(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store = bench_store_dir("distributed_cold");
  std::size_t points = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(store);
    state.ResumeTiming();
    campaign::RemotePoolOptions options;
    options.store_dir = store;
    campaign::RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    points = report.total;
    benchmark::DoNotOptimize(report.computed);
  }
  std::filesystem::remove_all(store);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DistributedColdSweep)
    ->UseRealTime()  // workers are separate processes on loopback TCP
    ->Unit(benchmark::kMillisecond);

void BM_DistributedWarmSweep(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store = bench_store_dir("distributed_warm");
  std::filesystem::remove_all(store);
  {
    campaign::RemotePoolOptions prime;
    prime.store_dir = store;
    campaign::RemoteWorkerPool{spec, prime}.run();  // prime the store
  }
  std::size_t points = 0;
  for (auto _ : state) {
    campaign::RemotePoolOptions options;
    options.store_dir = store;
    campaign::RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    points = report.total;
    benchmark::DoNotOptimize(report.cached);
  }
  std::filesystem::remove_all(store);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DistributedWarmSweep)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Store integrity + authenticated transport: the survivability tax ---
//
// BM_IntegritySealedFrameRoundTrip prices the v2 transport's per-frame
// work in isolation: seal (length-bound SipHash-2-4 MAC) plus verify-and
// -open, over inner messages from heartbeat-sized to a large result frame.
// BM_IntegrityFsckScan prices a full fsck pass over the primed 48-object
// store — the at-rest scan run_all.sh --fsck adds after a --resume sweep.
// BM_IntegrityWarmVerifiedSweep reruns the distributed warm sweep, where
// every cached point re-verifies its container checksum and the handshake
// is sealed; its acceptance is staying within ~10% of
// BM_DistributedWarmSweep (the integrity layer must be noise on a warm
// rerun). scripts/bench_baseline records all three in BENCH_integrity.json.

void BM_IntegritySealedFrameRoundTrip(benchmark::State& state) {
  const auto base = campaign::load_base_key("");
  const auto key = common::derive_session_key(base, 0x5ea1edf8a3e5u);
  const std::string inner(static_cast<std::size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    const auto sealed = campaign::seal_frame(inner, key);
    auto opened = campaign::open_frame(sealed, key);
    benchmark::DoNotOptimize(opened->size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inner.size()));
}
BENCHMARK(BM_IntegritySealedFrameRoundTrip)
    ->Arg(1)        // heartbeat: tag only
    ->Arg(64)       // assignment batch
    ->Arg(16384);   // result frame

void BM_IntegrityFsckScan(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store_dir = bench_store_dir("integrity_fsck");
  std::filesystem::remove_all(store_dir);
  campaign::CampaignOptions options;
  options.store_dir = store_dir;
  campaign::CampaignRunner{spec, options}.run();  // prime the store
  const campaign::ResultStore store{store_dir};
  std::size_t objects = store.object_digests().size();
  for (auto _ : state) {
    const auto findings = store.fsck();
    benchmark::DoNotOptimize(findings.size());
  }
  std::filesystem::remove_all(store_dir);
  state.counters["objects/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(objects),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IntegrityFsckScan)->Unit(benchmark::kMillisecond);

void BM_IntegrityWarmVerifiedSweep(benchmark::State& state) {
  const auto spec = bench_campaign_spec();
  const auto store = bench_store_dir("integrity_warm");
  std::filesystem::remove_all(store);
  {
    campaign::RemotePoolOptions prime;
    prime.store_dir = store;
    campaign::RemoteWorkerPool{spec, prime}.run();  // prime the store
  }
  std::size_t points = 0;
  for (auto _ : state) {
    campaign::RemotePoolOptions options;
    options.store_dir = store;
    campaign::RemoteWorkerPool pool{spec, options};
    const auto report = pool.run();
    points = report.total;
    benchmark::DoNotOptimize(report.cached);
  }
  std::filesystem::remove_all(store);
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IntegrityWarmVerifiedSweep)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Design-space optimizer: batched scoring + store-routed frontiers ---
//
// BM_OptimizerEvaluateDesigns is the BENCH_optimizer.json headline: the
// batched analytic path (one worst-case budget-split sweep per design,
// slot-per-design over the shared pool) must clear >= 1000 designs/s on a
// release build — the floor that keeps exhaustive search practical on
// 10^4-point grids. BM_OptimizerExhaustiveSearch prices the full
// branch-and-bound loop over the same space; the cold/warm OptimizeRunner
// pair prices the store-routed frontier, where cold pays search plus one
// Monte Carlo validation campaign per winner and warm serves every winner
// from its content-addressed store object.

optimize::DesignSpace bench_design_space() {
  optimize::DesignSpace space;
  space.total_overlay_nodes = 10000;
  space.filter_count = 10;
  space.layers = {1, 2, 3, 4};
  space.sos_nodes = {60, 80, 100, 120, 140, 160};
  space.mappings = {"one-to-one", "one-to-five", "one-to-all"};
  space.distributions = {"even", "decreasing"};
  return space;
}

optimize::AttackerObjective bench_optimizer_objective() {
  optimize::AttackerObjective objective;
  objective.model = optimize::AttackerModel::kOneBurst;
  objective.budget.total = 3000.0;
  objective.budget.break_in_cost = 4.0;
  objective.budget.congestion_cost = 1.0;
  objective.budget.break_in_success = 0.5;
  objective.split_steps = 21;
  return objective;
}

void BM_OptimizerEvaluateDesigns(benchmark::State& state) {
  const auto space = bench_design_space();
  const auto points = space.enumerate();
  const optimize::CostModel cost;
  const auto objective = bench_optimizer_objective();
  for (auto _ : state) {
    const auto scored = optimize::evaluate_designs(points, cost, objective);
    benchmark::DoNotOptimize(scored.data());
  }
  state.counters["designs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(points.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptimizerEvaluateDesigns)
    ->UseRealTime()  // scored over the shared pool
    ->Unit(benchmark::kMillisecond);

void BM_OptimizerExhaustiveSearch(benchmark::State& state) {
  const auto space = bench_design_space();
  const optimize::CostModel cost;
  const auto objective = bench_optimizer_objective();
  const optimize::ExhaustiveOptions options;
  long long evaluated = 0;
  for (auto _ : state) {
    const auto result =
        optimize::exhaustive_search(space, cost, objective, options);
    evaluated = result.stats.evaluated;
    benchmark::DoNotOptimize(result.frontier.data());
  }
  state.counters["evaluated"] = static_cast<double>(evaluated);
}
BENCHMARK(BM_OptimizerExhaustiveSearch)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Tiny frontier spec for the runner pair: the search is cheap, so the
// numbers isolate the per-winner validation-campaign cost.
optimize::OptimizeSpec bench_optimize_spec() {
  optimize::OptimizeSpec spec;
  spec.name = "bench_frontier";
  spec.space.total_overlay_nodes = 1000;
  spec.space.filter_count = 8;
  spec.space.layers = {2, 3};
  spec.space.sos_nodes = {24, 48};
  spec.space.mappings = {"one-to-one", "one-to-all"};
  spec.space.distributions = {"even"};
  spec.objective = bench_optimizer_objective();
  spec.objective.budget.total = 300.0;
  spec.objective.split_steps = 11;
  spec.validate_trials = 64;
  spec.mc_walks = 2;
  spec.seed = 0x9e37;
  return spec;
}

void BM_OptimizerColdFrontier(benchmark::State& state) {
  const auto spec = bench_optimize_spec();
  const auto store = bench_store_dir("optimize_cold");
  int winners = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(store);
    state.ResumeTiming();
    campaign::OptimizeOptions options;
    options.store_dir = store;
    campaign::OptimizeRunner runner{spec, options};
    const auto report = runner.run();
    winners = report.validated;
    benchmark::DoNotOptimize(report.winners.data());
  }
  std::filesystem::remove_all(store);
  state.counters["winners"] = winners;
}
BENCHMARK(BM_OptimizerColdFrontier)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_OptimizerWarmFrontier(benchmark::State& state) {
  const auto spec = bench_optimize_spec();
  const auto store = bench_store_dir("optimize_warm");
  std::filesystem::remove_all(store);
  {
    campaign::OptimizeOptions prime;
    prime.store_dir = store;
    campaign::OptimizeRunner{spec, prime}.run();  // prime the store
  }
  int winners = 0;
  for (auto _ : state) {
    campaign::OptimizeOptions options;
    options.store_dir = store;
    campaign::OptimizeRunner runner{spec, options};
    const auto report = runner.run();
    winners = report.validated;
    benchmark::DoNotOptimize(report.winners.data());
  }
  std::filesystem::remove_all(store);
  state.counters["winners"] = winners;
}
BENCHMARK(BM_OptimizerWarmFrontier)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Single registered figure (fig4a, analytic only) through the campaign
// path: cold pays the full legacy generator cost plus one checkpoint,
// warm is one store hit plus render.
void BM_CampaignColdFigure(benchmark::State& state) {
  experiments::Params params;
  params.mc_trials = 0;
  const auto spec = campaign::figure_spec("fig4a", params, 0);
  const auto store = bench_store_dir("cold_figure");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(store);
    state.ResumeTiming();
    campaign::CampaignOptions options;
    options.store_dir = store;
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    benchmark::DoNotOptimize(report.computed);
  }
  std::filesystem::remove_all(store);
  state.counters["figures/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignColdFigure)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CampaignWarmFigure(benchmark::State& state) {
  experiments::Params params;
  params.mc_trials = 0;
  const auto spec = campaign::figure_spec("fig4a", params, 0);
  const auto store = bench_store_dir("warm_figure");
  std::filesystem::remove_all(store);
  campaign::CampaignOptions options;
  options.store_dir = store;
  campaign::CampaignRunner{spec, options}.run();  // prime the store
  for (auto _ : state) {
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    benchmark::DoNotOptimize(runner.figure_csv("fig4a").size());
    benchmark::DoNotOptimize(report.cached);
  }
  std::filesystem::remove_all(store);
  state.counters["figures/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignWarmFigure)->UseRealTime()->Unit(benchmark::kMillisecond);

// The whole registered figure suite as one campaign (the run_all.sh
// --resume workload) at a tiny Monte Carlo load: cold regenerates every
// registered figure, warm serves the entire suite from the store. Their figures/s
// ratio is the full-suite warm-cache rerun speedup.
experiments::Params suite_bench_params() {
  experiments::Params params;
  params.mc_trials = 4;
  params.mc_walks = 2;
  params.seed = 7;
  return params;
}

void BM_CampaignColdSuite(benchmark::State& state) {
  const auto spec = campaign::suite_spec(suite_bench_params(), 4);
  const auto store = bench_store_dir("cold_suite");
  std::size_t points = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(store);
    state.ResumeTiming();
    campaign::CampaignOptions options;
    options.store_dir = store;
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    points = report.total;
    benchmark::DoNotOptimize(report.computed);
  }
  std::filesystem::remove_all(store);
  state.counters["figures/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignColdSuite)
    ->Iterations(1)  // one full 22-figure regeneration per repetition
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CampaignWarmSuite(benchmark::State& state) {
  const auto spec = campaign::suite_spec(suite_bench_params(), 4);
  const auto store = bench_store_dir("warm_suite");
  std::filesystem::remove_all(store);
  campaign::CampaignOptions options;
  options.store_dir = store;
  campaign::CampaignRunner{spec, options}.run();  // prime the store
  std::size_t points = 0;
  for (auto _ : state) {
    campaign::CampaignRunner runner{spec, options};
    const auto report = runner.run();
    points = report.total;
    benchmark::DoNotOptimize(report.cached);
  }
  std::filesystem::remove_all(store);
  state.counters["figures/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignWarmSuite)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Rare-event estimators (sim/sampling.h) — the BENCH_sampling.json workload.
//
// The acceptance reads off BM_SamplingStratifiedRare: its
// trials_saved_ratio counter is trials_for_wilson_half_width at the
// achieved estimate and half-width (the matched-CI naive cost) divided by
// the trials actually resolved, and must stay >= 10 at this P_S ~ 2e-4
// point. Resolved trial counts are seed-deterministic; only wall-clock
// varies across machines.
//
// DoNotOptimize goes through std::as_const: the non-const overload's
// "+m,r" constraint lets GCC write a scratch register back over the
// double, and these results are read after the loop for the counters.

/// Probe-calibrated rare-event point: N=10000, L=3, one-to-all, NC=3000
/// congests the non-filter layers to the edge, NT=1600 leaves P_S ~ 2e-4
/// carried almost entirely by the K=0 compromised-servlet slice.
core::SosDesign sampling_design() {
  return core::SosDesign::make(10000, 100, 3, 10,
                               core::MappingPolicy::one_to_all());
}

core::OneBurstAttack sampling_rare_attack() {
  return core::OneBurstAttack{1600, 3000, 0.5};
}

sim::MonteCarloConfig sampling_config() {
  sim::MonteCarloConfig config;
  config.walks_per_trial = 1;
  config.seed = 0x5055;
  return config;
}

sim::sampling::StoppingRule sampling_rule(int max_trials) {
  sim::sampling::StoppingRule rule;
  rule.relative = true;
  rule.ci_half_width = 0.25;
  rule.initial_trials = std::min(1024, max_trials);
  rule.max_trials = max_trials;
  return rule;
}

void report_sampling_counters(benchmark::State& state,
                              const sim::MonteCarloResult& result) {
  const double half = (result.ci.hi - result.ci.lo) / 2.0;
  state.counters["trials_resolved"] =
      static_cast<double>(result.resolved_trials);
  state.counters["ci_half_width"] = half;
  if (result.p_success > 0.0 && half > 0.0) {
    const double naive = sim::sampling::trials_for_wilson_half_width(
        result.p_success, half);
    state.counters["naive_trials_needed"] = naive;
    state.counters["trials_saved_ratio"] =
        naive / static_cast<double>(result.resolved_trials);
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(result.resolved_trials),
      benchmark::Counter::kIsRate);
}

/// Naive fixed-trial cost on the rare-event point: pins trials/s so the
/// trials_saved_ratio counters translate directly into wall-clock saved
/// (a conditioned trial costs the same rebuild + attack + walk work).
void BM_SamplingNaiveFixedTrials(benchmark::State& state) {
  const auto design = sampling_design();
  const auto attack = sampling_rare_attack();
  const attack::OneBurstAttacker attacker{attack};
  auto config = sampling_config();
  config.trials = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = sim::run_monte_carlo(
        design,
        [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
          return attacker.execute(overlay, rng);
        },
        config);
    benchmark::DoNotOptimize(result.p_success);
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(config.trials),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SamplingNaiveFixedTrials)
    ->Arg(4096)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Sequential stopping on an easy point (P_S ~ 0.5): the rule resolves in a
/// few doubling chunks, so this bounds the stopping machinery's overhead
/// over a fixed run of the same length.
void BM_SamplingSequentialEasy(benchmark::State& state) {
  const auto design = sampling_design();
  const core::OneBurstAttack attack{400, 2000, 0.5};
  const attack::OneBurstAttacker attacker{attack};
  const auto config = sampling_config();
  const auto rule = sampling_rule(1 << 15);
  sim::MonteCarloResult result;
  for (auto _ : state) {
    result = sim::sampling::run_sequential(
        design,
        [&attacker](sosnet::SosOverlay& overlay, common::Rng& rng) {
          return attacker.execute(overlay, rng);
        },
        config, rule);
    benchmark::DoNotOptimize(std::as_const(result).p_success);
  }
  report_sampling_counters(state, result);
}
BENCHMARK(BM_SamplingSequentialEasy)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The acceptance entry: stratified estimator on the rare-event point to a
/// 25% relative half-width. trials_saved_ratio must stay >= 10.
void BM_SamplingStratifiedRare(benchmark::State& state) {
  const auto design = sampling_design();
  const auto attack = sampling_rare_attack();
  const auto config = sampling_config();
  const auto rule = sampling_rule(1 << 17);
  sim::MonteCarloResult result;
  for (auto _ : state) {
    result = sim::sampling::run_stratified(design, attack, config, rule);
    benchmark::DoNotOptimize(std::as_const(result).p_success);
  }
  report_sampling_counters(state, result);
}
BENCHMARK(BM_SamplingStratifiedRare)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The conditioning law itself (hypergeometric-binomial mixture + stratum
/// boundaries): microseconds, so conditioning is free at campaign scale.
void BM_SamplingCompromiseLaw(benchmark::State& state) {
  for (auto _ : state) {
    const auto pmf = sim::sampling::servlet_compromise_pmf(10000, 33, 1600,
                                                           0.44);
    const auto edges = sim::sampling::stratum_boundaries(pmf, 10);
    benchmark::DoNotOptimize(pmf.data());
    benchmark::DoNotOptimize(edges.data());
  }
}
BENCHMARK(BM_SamplingCompromiseLaw);

}  // namespace
