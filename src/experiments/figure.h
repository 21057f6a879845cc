// Figure data model + rendering for the benchmark harness.
//
// Every regenerated paper figure is expressed as: long-format table (CSV),
// one plot series per curve, and a list of qualitative checks — the claims
// the paper makes in prose about that figure, evaluated against the freshly
// computed data and printed PASS/FAIL.
#pragma once

#include <string>
#include <vector>

#include "common/ascii_plot.h"
#include "common/table.h"

namespace sos::experiments {

struct Check {
  std::string claim;   // paper's statement, paraphrased
  bool passed = false;
  std::string detail;  // the numbers behind the verdict
};

struct Figure {
  std::string id;     // "fig4a"
  std::string title;
  std::string x_label;
  std::string y_label = "P_S";
  common::Table table{std::vector<std::string>{"placeholder"}};
  std::vector<common::Series> series;
  std::vector<Check> checks;
  std::vector<std::string> notes;  // modeling caveats worth printing
};

/// Full textual rendering: header, CSV block (between "# CSV begin/end"
/// fences for machine extraction), ASCII chart, checks, notes.
std::string render_figure(const Figure& figure);

/// Recovers the CSV block from a render_figure() text (the bytes between
/// the "# CSV begin/end" fences) — exactly figure.table.to_csv() for that
/// figure. Throws std::invalid_argument if the fences are missing.
std::string extract_figure_csv(const std::string& render_text);

/// Convenience for building checks from comparisons.
Check make_check(std::string claim, bool passed, std::string detail);

}  // namespace sos::experiments
