// OptimizeSpec — the declarative description of one design-space search.
//
// Same contract as campaign::ScenarioSpec, applied to optimization: a small
// `key = value` text file captures the design space, cost model, attacker
// objective, search knobs and validation load, so a search can be digested,
// rerun warm and resumed by the campaign layer without touching code.
// Syntax: one `key = value` per line, blank lines and `#` comments ignored;
// every field is validated on parse with an "(accepted:)" error.
#pragma once

#include <cstdint>
#include <string>

#include "optimize/cost_model.h"
#include "optimize/design_space.h"
#include "optimize/objective.h"
#include "optimize/search.h"

namespace sos::optimize {

struct OptimizeSpec {
  enum class Searcher { kAuto, kExhaustive, kAnneal };

  std::string name = "design-frontier";

  DesignSpace space;
  CostModel cost;
  AttackerObjective objective;

  /// kAuto picks exhaustive when size() <= auto_exhaustive_max, else SA.
  Searcher searcher = Searcher::kAuto;
  int auto_exhaustive_max = 4096;
  AnnealOptions anneal;  // anneal.pool is never set from text

  /// Monte Carlo validation load per frontier winner (campaign-routed).
  int validate_trials = 200;
  int mc_walks = 10;
  std::uint64_t seed = 0x5055ULL;

  /// Which searcher a run will actually use, resolving kAuto.
  Searcher resolved_searcher() const;

  static const char* searcher_label(Searcher searcher);

  static OptimizeSpec parse(const std::string& text);
  static OptimizeSpec parse_file(const std::string& path);

  /// Field-level validation ("(accepted:)" style); parse() runs it before
  /// returning.
  void validate() const;
};

}  // namespace sos::optimize
