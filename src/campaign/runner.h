// CampaignRunner — executes a ScenarioSpec against a ResultStore.
//
// run() expands the spec into scenario points, digests each one, skips the
// points whose result objects already exist (warm cache), computes the
// rest, and durably checkpoints every completed point via the store's
// atomic writes. A campaign killed at any instant (kill -9 included) loses
// at most the points that were in flight; re-running the same spec against
// the same store re-executes only the unfinished points and yields final
// outputs bit-identical to an uninterrupted run.
//
// Every executor computes points through compute_points(), which touches
// no store: run() calls it one figure at a time or 16 sweep points at a
// time and checkpoints each batch in expansion order; a distributed worker
// calls it for one point. Per mode:
//   figures — each figure generator evaluates its closed forms on the
//             calling thread and fans out only its Monte Carlo, as one
//             sim::run_monte_carlo pass over ThreadPool::shared(); its
//             output is bit-identical at any pool size.
//   sweep   — the analytic column inline, the Monte Carlo overlay as one
//             sim::run_monte_carlo pass over all the points' trials, each
//             reduced in its own trial order, so results are bit-identical
//             for every worker count and batch.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/result_store.h"
#include "campaign/scenario_spec.h"

namespace sos::common {
class ThreadPool;
}  // namespace sos::common

namespace sos::campaign {

struct CampaignOptions {
  std::string store_dir;

  /// Sweep-mode pool; null = ThreadPool::shared(). Figures mode always
  /// uses the shared pool (inside the generators).
  common::ThreadPool* pool = nullptr;

  /// Test/ops injection hook, invoked after each newly computed point has
  /// been durably stored, with the running count of computed points. A
  /// throwing hook aborts the campaign exactly as a crash would — the store
  /// keeps every checkpoint written so far — which is how the resume tests
  /// simulate kill -9 without leaving the process.
  std::function<void(int completed)> checkpoint_hook;
};

struct PointStatus {
  CampaignPoint point;
  std::string digest;
  bool done = false;
  bool quarantined = false;  // a PointFailure record exists and !done
};

struct CampaignReport {
  int total = 0;
  int cached = 0;    // points served from the store without recomputation
  int computed = 0;  // points computed and checkpointed by this run
  int retried = 0;   // distributed runs: point attempts beyond the first
  int quarantined = 0;  // points recorded as PointFailure, not computed
  std::vector<PointStatus> points;
  std::vector<PointFailure> failures;  // one per quarantined point

  bool complete() const noexcept { return cached + computed == total; }
  /// Every point is either done or formally quarantined — the terminal
  /// state a distributed run guarantees (degraded mode when quarantined>0).
  bool settled() const noexcept {
    return cached + computed + quarantined == total;
  }
  bool degraded() const noexcept { return quarantined > 0; }
};

/// Computes the result bytes of `points` (expanded from `spec`) with no
/// store interaction: the bytes run() checkpoints and a distributed worker
/// sends back. Sweep points run on `pool`; figures on ThreadPool::shared().
std::vector<std::string> compute_points(const ScenarioSpec& spec,
                                        const std::vector<CampaignPoint>& points,
                                        common::ThreadPool& pool);

class CampaignRunner {
 public:
  /// Validates and expands the spec eagerly; opens (creates) the store.
  CampaignRunner(ScenarioSpec spec, CampaignOptions options);

  const ScenarioSpec& spec() const noexcept { return spec_; }
  const ResultStore& store() const noexcept { return store_; }
  const std::vector<CampaignPoint>& points() const noexcept { return points_; }
  const std::string& digest(int index) const { return digests_.at(index); }

  /// The manifest text for this campaign (header + index/digest/key lines).
  std::string manifest_text() const;

  /// Cache inventory without computing anything.
  CampaignReport status() const;

  /// Writes the manifest, computes every pending point, checkpoints each
  /// one. Exceptions (including from the checkpoint hook) propagate after
  /// all completed points are durable. In-process runs ignore quarantine
  /// records: a previously quarantined point is simply pending and, once
  /// computed, its record is cleared.
  CampaignReport run();

  /// compute_points() for point `index` alone, on the options' pool.
  std::string compute_point_bytes(int index) const;

  // --- Final outputs, assembled from the store (points must be done). ---

  /// Figures mode: the stored full rendering / extracted CSV of one figure.
  std::string figure_render(const std::string& figure_id) const;
  std::string figure_csv(const std::string& figure_id) const;

  /// Sweep mode: the campaign's CSV (header + one row per point, in
  /// expansion order). Quarantined points emit an NA row (axis values kept,
  /// every result column NA) so degraded campaigns still assemble without
  /// silently dropping rows; genuinely pending points still throw.
  std::string sweep_csv() const;

  /// Writes the campaign's final outputs under `results_dir` — figures
  /// mode: <bench_name>.txt + <bench_name>.csv per figure, byte-identical
  /// to what the legacy binary and scripts/run_all.sh produce; sweep mode:
  /// <campaign>.csv. Returns the written paths.
  std::vector<std::string> write_outputs(const std::string& results_dir) const;

 private:
  std::string loaded(int index) const;  // store load or throw
  common::ThreadPool& pool() const;

  ScenarioSpec spec_;
  CampaignOptions options_;
  ResultStore store_;
  std::vector<CampaignPoint> points_;
  std::vector<std::string> digests_;
};

}  // namespace sos::campaign
