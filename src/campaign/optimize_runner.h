// OptimizeRunner — runs an OptimizeSpec search and validates its frontier
// through the campaign engine.
//
// The search itself (sos::optimize) is pure analytic computation; what this
// layer adds is the Monte Carlo check of every frontier winner, routed
// through CampaignRunner + ResultStore rather than direct sim::MonteCarlo
// calls. Each winner becomes a single-point sweep campaign pinned at the
// attacker's worst-case split, all sharing one store directory: winner
// objects are content-addressed by (result scope + point key), so a
// re-run of the same optimization is fully warm, a kill -9 mid-validation
// loses at most the in-flight winner, and `--distributed` execution retries
// and quarantines poisoned winners exactly like any other campaign.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/remote_pool.h"
#include "campaign/runner.h"
#include "optimize/optimize.h"

namespace sos::campaign {

struct OptimizeOptions {
  std::string store_dir;

  /// Skip Monte Carlo validation entirely: the report's winners stay
  /// pending (the CLI maps that to exit code 2, like an unfinished
  /// campaign).
  bool search_only = false;

  /// When set, each winner's validation campaign runs on a
  /// RemoteWorkerPool (forked loopback workers, deadline/retry/backoff/
  /// quarantine) instead of in-process. store_dir is taken from this
  /// struct's store_dir; everything else applies verbatim.
  std::optional<RemotePoolOptions> distributed;

  common::ThreadPool* pool = nullptr;  // search + in-process validation
};

/// One frontier winner's validation state.
struct WinnerStatus {
  optimize::EvaluatedDesign design;
  std::string campaign;  // the single-point validation campaign's name
  std::string digest;    // the validation point's store digest
  bool done = false;
  bool quarantined = false;
  // Parsed from the stored row when done:
  double p_mc = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  int attempts = 0;  // distributed mode: 1 + charged retries
};

struct OptimizeReport {
  optimize::SearchResult search;
  std::vector<WinnerStatus> winners;  // frontier order
  int validated = 0;
  int pending = 0;
  int quarantined = 0;

  bool complete() const noexcept {
    return pending == 0 && quarantined == 0;
  }
  bool degraded() const noexcept { return quarantined > 0; }
};

class OptimizeRunner {
 public:
  /// Validates the spec and options; opens (creates) the store.
  OptimizeRunner(optimize::OptimizeSpec spec, OptimizeOptions options);

  const optimize::OptimizeSpec& spec() const noexcept { return spec_; }

  /// The single-point validation ScenarioSpec for one frontier winner:
  /// sweep mode, axes pinned to the winner's design and the attacker's
  /// worst-case split, mc_trials = the optimize spec's validate_trials.
  static ScenarioSpec winner_spec(const optimize::OptimizeSpec& spec,
                                  const optimize::EvaluatedDesign& winner);

  /// Runs the configured searcher, then (unless search_only) validates
  /// every frontier winner through the campaign engine. Winners whose
  /// store objects already exist are served warm without recomputation.
  OptimizeReport run();

  /// Search + store inventory only: never computes Monte Carlo. The search
  /// re-runs (it is deterministic and cheap next to validation), then each
  /// winner is classified done / pending / quarantined from the store.
  OptimizeReport status();

  /// The frontier table as CSV (header + one row per winner, frontier
  /// order). Validation columns are NA for pending/quarantined winners.
  std::string frontier_csv(const OptimizeReport& report) const;

  /// Writes <results_dir>/<name>_frontier.csv; returns the written paths.
  std::vector<std::string> write_outputs(const OptimizeReport& report,
                                         const std::string& results_dir) const;

 private:
  optimize::SearchResult run_search() const;
  OptimizeReport assemble(optimize::SearchResult search, bool validate);
  /// Classifies one winner from its campaign report, parses the stored
  /// validation row when done, and folds it into the report's counters.
  void finish_winner(WinnerStatus& status, const CampaignRunner& runner,
                     const CampaignReport& campaign,
                     OptimizeReport& report) const;

  optimize::OptimizeSpec spec_;
  OptimizeOptions options_;
};

}  // namespace sos::campaign
