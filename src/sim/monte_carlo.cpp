#include "sim/monte_carlo.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "sim/trial_engine.h"

namespace sos::sim {

namespace internal {

void run_trial(const core::SosDesign& design, const AttackFn& attack,
               const MonteCarloConfig& config, std::uint64_t seed,
               TrialContext& context, TrialRecord& record,
               std::int16_t* hop_slots) {
  // Distinct deterministic streams per trial: one for the topology build,
  // one for attack + walks.
  if (!context.overlay || context.built_from != &design) {
    context.overlay.emplace(design, seed);
    context.built_from = &design;
  } else {
    // Outside Chord mode the ring ids never influence an outcome, so the
    // rebuild skips re-deriving them.
    context.overlay->rebuild(seed, context.workspace,
                             /*reseed_ids=*/config.route_via_chord);
  }
  sosnet::SosOverlay& overlay = *context.overlay;
  common::Rng rng{common::mix64(seed)};

  const auto outcome = attack(overlay, rng);
  int broken_sos = 0, congested_sos = 0;
  for (const int count : outcome.broken_per_layer) broken_sos += count;
  for (const int count : outcome.congested_per_layer) congested_sos += count;
  record.broken = outcome.broken_in;
  record.broken_sos = broken_sos;
  record.congested = outcome.congested_nodes;
  record.congested_sos = congested_sos;
  record.congested_filters = outcome.congested_filters;
  record.disclosed = outcome.disclosed_at_congestion;

  int delivered = 0;
  for (int walk = 0; walk < config.walks_per_trial; ++walk) {
    if (config.route_via_chord) {
      context.walk = overlay.route_message_via_chord(rng);
    } else {
      overlay.route_message(rng, context.walk);
    }
    if (context.walk.delivered) {
      ++delivered;
      hop_slots[walk] = static_cast<std::int16_t>(context.walk.layer_hops);
    } else {
      hop_slots[walk] = -1;
    }
  }
  record.delivered = delivered;
  record.success_rate = static_cast<double>(delivered) /
                        static_cast<double>(config.walks_per_trial);
}

void for_each_trial(
    const MonteCarloConfig& config, int begin, int end,
    std::vector<TrialContext>& contexts,
    const std::function<void(int trial, TrialContext& context)>& body) {
  const int count = end - begin;
  if (count <= 0) return;

  int threads = config.threads;
  if (threads != 1) {
    ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();
    if (threads <= 0) threads = pool.size();
    threads = std::min({threads, pool.size(), count});
    if (threads > 1) {
      if (static_cast<int>(contexts.size()) < threads)
        contexts.resize(static_cast<std::size_t>(threads));
      // Chunked sharding: each scheduling unit is a block of consecutive
      // trials, so a worker's persistent overlay stays cache-resident across
      // the block instead of interleaving with other workers trial-by-trial
      // (at N in the millions the overlay state is the working set). Records
      // stay trial-indexed and the reduction runs in fixed trial order, so
      // results are bit-identical for any chunk size or thread count.
      const int chunk = std::clamp(count / (threads * 4), 1, 64);
      const int blocks = (count + chunk - 1) / chunk;
      pool.parallel_for(blocks, threads, [&](int block, int worker) {
        const int block_begin = begin + block * chunk;
        const int block_end = std::min(block_begin + chunk, end);
        auto& context = contexts[static_cast<std::size_t>(worker)];
        for (int trial = block_begin; trial < block_end; ++trial)
          body(trial, context);
      });
      return;
    }
  }

  if (contexts.empty()) contexts.resize(1);
  for (int trial = begin; trial < end; ++trial) body(trial, contexts[0]);
}

MonteCarloResult reduce_in_trial_order(const MonteCarloConfig& config,
                                       const std::vector<TrialRecord>& records,
                                       const std::vector<std::int16_t>& hops) {
  common::RunningStats trial_success;
  common::RunningStats broken;
  common::RunningStats broken_sos;
  common::RunningStats congested;
  common::RunningStats congested_sos;
  common::RunningStats congested_filters;
  common::RunningStats disclosed;
  common::RunningStats delivery_hops;
  std::uint64_t walks = 0;
  std::uint64_t deliveries = 0;

  for (std::size_t trial = 0; trial < records.size(); ++trial) {
    const TrialRecord& record = records[trial];
    broken.add(record.broken);
    broken_sos.add(record.broken_sos);
    congested.add(record.congested);
    congested_sos.add(record.congested_sos);
    congested_filters.add(record.congested_filters);
    disclosed.add(record.disclosed);
    const std::size_t base =
        trial * static_cast<std::size_t>(config.walks_per_trial);
    for (int walk = 0; walk < config.walks_per_trial; ++walk) {
      const std::int16_t hop = hops[base + static_cast<std::size_t>(walk)];
      if (hop >= 0) delivery_hops.add(hop);
    }
    walks += static_cast<std::uint64_t>(config.walks_per_trial);
    deliveries += static_cast<std::uint64_t>(record.delivered);
    trial_success.add(record.success_rate);
  }

  MonteCarloResult result;
  result.p_success = trial_success.mean();
  result.ci = common::mean_confidence_interval(trial_success);
  result.walks = walks;
  result.deliveries = deliveries;
  result.resolved_trials = static_cast<std::uint64_t>(records.size());
  result.wilson = common::wilson_interval(deliveries, walks);
  result.mean_broken = broken.mean();
  result.mean_broken_sos = broken_sos.mean();
  result.mean_congested = congested.mean();
  result.mean_congested_sos = congested_sos.mean();
  result.mean_congested_filters = congested_filters.mean();
  result.mean_disclosed = disclosed.mean();
  result.mean_delivery_hops = delivery_hops.mean();
  return result;
}

}  // namespace internal

std::vector<MonteCarloResult> run_monte_carlo(
    const std::vector<MonteCarloPoint>& points, ThreadPool* pool,
    int threads) {
  // Point p owns the pass's trials [first[p], first[p + 1]).
  std::vector<int> first{0};
  for (const MonteCarloPoint& point : points) {
    point.design.validate();
    const MonteCarloConfig& config = point.config;
    if (config.trials < 1)
      throw std::invalid_argument("MonteCarlo: trials must be >= 1");
    if (config.walks_per_trial < 1)
      throw std::invalid_argument("MonteCarlo: walks_per_trial must be >= 1");
    if (config.trials > std::numeric_limits<int>::max() - first.back())
      throw std::invalid_argument(
          "MonteCarlo: a list holds at most INT_MAX trials");
    first.push_back(first.back() + config.trials);
  }
  std::vector<std::vector<internal::TrialRecord>> records;
  std::vector<std::vector<std::int16_t>> hops;
  for (const MonteCarloPoint& point : points) {
    const auto trials = static_cast<std::size_t>(point.config.trials);
    records.emplace_back(trials);
    hops.emplace_back(
        trials * static_cast<std::size_t>(point.config.walks_per_trial));
  }

  MonteCarloConfig schedule;
  schedule.threads = threads;
  schedule.pool = pool;
  std::vector<internal::TrialContext> contexts;
  internal::for_each_trial(
      schedule, 0, first.back(), contexts,
      [&](int trial, internal::TrialContext& context) {
        const auto p = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), trial) -
            first.begin() - 1);
        const MonteCarloPoint& point = points[p];
        const auto local = static_cast<std::size_t>(trial - first[p]);
        internal::run_trial(
            point.design, point.attack, point.config,
            internal::trial_seed(point.config, static_cast<int>(local)),
            context, records[p][local],
            hops[p].data() +
                local * static_cast<std::size_t>(point.config.walks_per_trial));
      });

  std::vector<MonteCarloResult> results;
  results.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    results.push_back(internal::reduce_in_trial_order(points[p].config,
                                                      records[p], hops[p]));
  return results;
}

MonteCarloResult run_monte_carlo(const core::SosDesign& design,
                                 const AttackFn& attack,
                                 const MonteCarloConfig& config) {
  return run_monte_carlo({MonteCarloPoint{design, attack, config}},
                         config.pool, config.threads)
      .front();
}

}  // namespace sos::sim
