// Small string helpers shared by the table/CLI/report code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sos::common {

std::vector<std::string> split(std::string_view text, char delim);
std::string trim(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);

/// Fixed-precision formatting without <format>: e.g. format_double(0.12345, 3)
/// == "0.123". Negative zero is normalized to "0...".
std::string format_double(double value, int precision);

/// Left padding to a given width (no truncation).
std::string pad_left(std::string text, std::size_t width);

/// join({"a","b"}, ", ") == "a, b"
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace sos::common
