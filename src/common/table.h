// Aligned ASCII tables + CSV emission for the experiment harness.
//
// Every bench binary prints its figure both as a machine-readable CSV block
// and as a human-readable table, so results can be diffed and re-plotted
// without extra tooling.
#pragma once

#include <string>
#include <vector>

namespace sos::common {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; pads/truncates nothing — must match header count.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const noexcept { return rows_.size(); }
  std::size_t column_count() const noexcept { return headers_.size(); }

  /// Aligned, boxed ASCII rendering.
  std::string to_ascii() const;

  /// RFC-4180-ish CSV (fields containing comma/quote/newline are quoted).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quotes a single CSV field if needed.
std::string csv_escape(const std::string& field);

}  // namespace sos::common
