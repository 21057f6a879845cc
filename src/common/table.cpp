#include "common/table.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"

namespace sos::common {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: empty header row");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += ' ';
      line += pad_left(row[c], widths[c]);
      line += " |";
    }
    line += '\n';
    return line;
  };
  std::string rule = "+";
  for (std::size_t w : widths) {
    rule += std::string(w + 2, '-');
    rule += '+';
  }
  rule += '\n';

  std::string out = rule + render_row(headers_) + rule;
  for (const auto& row : rows_) out += render_row(row);
  out += rule;
  return out;
}

std::string Table::to_csv() const {
  std::string out;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += csv_escape(row[c]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace sos::common
