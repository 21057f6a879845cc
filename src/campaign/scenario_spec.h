// ScenarioSpec — the declarative description of one experiment campaign.
//
// The paper's evaluation (and every extension since) is a grid of scenario
// points: design axes (L, mapping, node distribution) × attacker (budgets,
// rounds) × substrate faults × Monte Carlo load. Historically each figure
// hand-rolled that grid in its own main(); a spec captures the same grid as
// a small key=value text file so campaigns can be expanded, digested,
// cached and resumed by the CampaignRunner without touching code.
//
// Two modes:
//   mode = figures  — the campaign is a list of registered figure ids
//                     (fig4a .. ext_faults); each figure is one scenario
//                     point whose result is the figure's full rendering.
//   mode = sweep    — a generic cross product break_in × congestion ×
//                     mapping × layers evaluated under one attacker, with
//                     the analytic model column and an optional Monte Carlo
//                     overlay, plus optional steady-state benign faults.
//
// Syntax: one `key = value` per line, blank lines and `#` comments ignored.
// Every field is validated on parse with an error naming the offending
// field and the accepted values — the same "(accepted:)" convention as
// FaultConfig::validate and NodeDistribution::parse.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/figures.h"
#include "faults/fault_config.h"

namespace sos::campaign {

struct ScenarioSpec {
  enum class Mode { kFigures, kSweep };

  /// spec.mc_trials value meaning "each figure's registered default trial
  /// count" (what the legacy per-figure binaries use when no --mc-trials
  /// flag is given). Only meaningful in figures mode.
  static constexpr int kPerFigureDefaultTrials = -1;

  /// Adaptive trial resolution, spelled `mc_trials = auto:ci=<w>[:rel]
  /// [:max=<n>][:estimator=<e>]`. When enabled the sweep's Monte Carlo
  /// points run a sim::sampling estimator until the requested confidence
  /// half-width instead of a fixed trial count; the resolved counts land in
  /// the point rows, so cached/resumed points are exact. Sweep mode only.
  struct AutoTrials {
    bool enabled = false;
    double ci = 0.05;        // target half-width (absolute, or relative to p̂)
    bool relative = false;
    int max_trials = 1 << 20;
    std::string estimator = "sequential";  // sequential|stratified

    /// Canonical `auto:...` rendering: fixed option order, every option
    /// explicit except `:rel` (present only when set). parse(render())
    /// reproduces the struct, and result_scope() embeds this text, so two
    /// specs share cached points iff their rules resolve identically.
    std::string render() const;
  };

  std::string name;  // campaign name; becomes file/store naming material
  Mode mode = Mode::kFigures;

  /// Figures mode: registered figure ids, in execution order.
  std::vector<std::string> figures;

  // --- System parameters shared by both modes (Section 3.1.2 defaults). ---
  int total_overlay = 10000;  // N
  int sos_nodes = 100;        // n
  int filters = 10;
  double p_break = 0.5;  // P_B
  int mc_trials = kPerFigureDefaultTrials;  // sweep mode defaults to 0
  AutoTrials auto_trials;  // when enabled, mc_trials is forced to 0
  int mc_walks = 10;
  std::uint64_t seed = 0x5055ULL;

  // --- Sweep-mode axes. ---
  std::string attacker = "one-burst";  // one-burst | successive
  std::vector<int> layers{3};
  std::vector<std::string> mappings{"one-to-all"};  // MappingPolicy labels
  std::string distribution = "even";                // NodeDistribution label
  std::vector<int> break_in{0};                     // N_T axis
  std::vector<int> congestion{2000};                // N_C axis
  int rounds = 3;               // successive attacker only
  double prior_knowledge = 0.2; // P_E, successive attacker only

  /// Optional steady-state benign faults applied to sweep points (Monte
  /// Carlo trials get apply_steady_state_faults; the model column switches
  /// to DegradedSubstrateModel). Default-constructed = ideal substrate.
  faults::FaultConfig faults;

  bool successive() const noexcept { return attacker == "successive"; }

  /// Parses a spec from text / a file. Throws std::invalid_argument with an
  /// "(accepted:)" message on the first bad line, duplicate or unknown key,
  /// or invalid field value (validate() runs before returning).
  static ScenarioSpec parse(const std::string& text);
  static ScenarioSpec parse_file(const std::string& path);

  /// Field-level validation (everything except figure-id existence, which
  /// needs the registry — see campaign::expand). Throws std::invalid_argument
  /// in the "(accepted:)" style.
  void validate() const;

  /// Normalized, parseable rendering: fixed key order, expanded ranges,
  /// %.17g doubles. parse(canonical()) reproduces the spec exactly, and the
  /// campaign's spec digest is computed over this text.
  std::string canonical() const;

  /// The subset of fields that determine a *point's* computed bytes (system
  /// params, attacker scope, Monte Carlo load, faults) — deliberately
  /// excluding the campaign name and the axis lists, so editing a sweep's
  /// grid keeps every already-computed point cache-valid.
  std::string result_scope() const;

  /// experiments::Params view of the shared system parameters, with
  /// mc_trials resolved to `resolved_trials` (a point-specific value:
  /// figure registry default or the spec's own count).
  experiments::Params params_with_trials(int resolved_trials) const;
};

}  // namespace sos::campaign
