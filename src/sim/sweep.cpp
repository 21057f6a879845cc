#include "sim/sweep.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace sos::sim {

int SweepRunner::add(const core::SosDesign& design, AttackFn attack,
                     MonteCarloConfig config) {
  design.validate();
  if (config.trials < 1)
    throw std::invalid_argument("SweepRunner: trials must be >= 1");
  if (config.walks_per_trial < 1)
    throw std::invalid_argument("SweepRunner: walks_per_trial must be >= 1");
  Point point;
  point.design = design;
  point.attack = std::move(attack);
  point.config = config;
  points_.push_back(std::move(point));
  return static_cast<int>(points_.size()) - 1;
}

void SweepRunner::run() {
  int pending = 0;
  for (const Point& point : points_)
    if (!point.done) ++pending;
  if (pending == 0) return;

  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::shared();
  const int workers = std::min(pool.size(), pending);
  if (static_cast<int>(workers_.size()) < workers)
    workers_.resize(static_cast<std::size_t>(workers));
  // Point designs live inside points_, whose addresses may have changed since
  // the last run; never trust a cached overlay across run() calls.
  for (WorkerState& worker : workers_) worker.context.built_from = nullptr;

  // Point-major: one worker owns one point end to end, so a point's trials
  // run sequentially and its result matches a threads=1 run bit for bit.
  std::vector<Point*> todo;
  todo.reserve(static_cast<std::size_t>(pending));
  for (Point& point : points_)
    if (!point.done) todo.push_back(&point);

  if (workers <= 1) {
    for (Point* point : todo) run_point(*point, workers_.front());
  } else {
    pool.parallel_for(static_cast<int>(todo.size()), workers,
                      [&](int index, int worker) {
                        run_point(*todo[static_cast<std::size_t>(index)],
                                  workers_[static_cast<std::size_t>(worker)]);
                      });
  }
}

void SweepRunner::run_point(Point& point, WorkerState& worker) {
  const MonteCarloConfig& config = point.config;
  worker.records.assign(static_cast<std::size_t>(config.trials),
                        internal::TrialRecord{});
  worker.hops.assign(static_cast<std::size_t>(config.trials) *
                         static_cast<std::size_t>(config.walks_per_trial),
                     0);
  for (int trial = 0; trial < config.trials; ++trial) {
    internal::run_trial(point.design, point.attack, config,
                        internal::trial_seed(config, trial), worker.context,
                        worker.records[static_cast<std::size_t>(trial)],
                        worker.hops.data() +
                            static_cast<std::size_t>(trial) *
                                static_cast<std::size_t>(config.walks_per_trial));
  }
  point.result = internal::reduce_in_trial_order(config, worker.records,
                                                 worker.hops);
  point.done = true;
}

const MonteCarloResult& SweepRunner::result(int index) const {
  const Point& point = points_.at(static_cast<std::size_t>(index));
  if (!point.done)
    throw std::logic_error("SweepRunner: result() before run()");
  return point.result;
}

void SweepRunner::clear() { points_.clear(); }

}  // namespace sos::sim
