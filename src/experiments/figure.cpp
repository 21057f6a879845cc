#include "experiments/figure.h"

#include <stdexcept>

namespace sos::experiments {

std::string render_figure(const Figure& figure) {
  std::string out;
  out += "==============================================================\n";
  out += " " + figure.id + ": " + figure.title + "\n";
  out += "==============================================================\n\n";

  out += "# CSV begin " + figure.id + "\n";
  out += figure.table.to_csv();
  out += "# CSV end\n\n";

  common::PlotOptions options;
  options.fix_y01 = true;
  options.title = figure.title;
  options.x_label = figure.x_label;
  options.y_label = figure.y_label;
  common::AsciiPlot plot{options};
  for (const auto& series : figure.series) plot.add_series(series);
  out += plot.render();
  out += "\n";

  if (!figure.checks.empty()) {
    out += "Qualitative checks (paper claims vs this run):\n";
    for (const auto& check : figure.checks) {
      out += std::string("  [") + (check.passed ? "PASS" : "FAIL") + "] " +
             check.claim;
      if (!check.detail.empty()) out += "  (" + check.detail + ")";
      out += "\n";
    }
    out += "\n";
  }
  for (const auto& note : figure.notes) out += "note: " + note + "\n";
  if (!figure.notes.empty()) out += "\n";
  return out;
}

std::string extract_figure_csv(const std::string& render_text) {
  constexpr const char* kBegin = "# CSV begin";
  constexpr const char* kEnd = "# CSV end";
  const auto begin_mark = render_text.find(kBegin);
  if (begin_mark == std::string::npos)
    throw std::invalid_argument("extract_figure_csv: no '# CSV begin' fence");
  const auto start = render_text.find('\n', begin_mark);
  const auto end = start == std::string::npos
                       ? std::string::npos
                       : render_text.find(kEnd, start);
  if (start == std::string::npos || end == std::string::npos)
    throw std::invalid_argument("extract_figure_csv: no '# CSV end' fence");
  return render_text.substr(start + 1, end - start - 1);
}

Check make_check(std::string claim, bool passed, std::string detail) {
  return Check{std::move(claim), passed, std::move(detail)};
}

}  // namespace sos::experiments
