// The spec grammar of campaign::ScenarioSpec and optimize::OptimizeSpec:
// `key = value` lines, '#' comments, each key at most once, and the value
// parsers both use. Errors are std::invalid_argument in the "<Owner>: bad
// <field> '<value>' (accepted: <grammar>)" style; each spec passes its own
// owner name and keeps its own key list.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sos::common {

class SpecGrammar {
 public:
  constexpr explicit SpecGrammar(std::string_view owner) : owner_(owner) {}

  [[noreturn]] void reject(const std::string& field, const std::string& value,
                           const std::string& accepted) const;

  /// Calls `on_entry(key, value)` for every `key = value` line of `text`,
  /// in order, with both sides trimmed. Rejects a line without '=' or with
  /// an empty key, and a key seen before, when it reaches that line.
  using OnEntry = std::function<void(const std::string&, const std::string&)>;
  void for_each_entry(const std::string& text, const OnEntry& on_entry) const;

  long long parse_int(const std::string& key, const std::string& value) const;
  double parse_double(const std::string& key, const std::string& value) const;
  /// A non-negative integer, decimal or 0x hex.
  std::uint64_t parse_seed(const std::string& key,
                           const std::string& value) const;
  /// "1,2,4" or "1..8" (inclusive) or a mix: "1..3, 8".
  std::vector<int> parse_int_list(const std::string& key,
                                  const std::string& value) const;

 private:
  std::string_view owner_;
};

/// Comma-separated names, trimmed; empty items are dropped.
std::vector<std::string> parse_name_list(const std::string& value);

/// %.17g: enough digits that text -> double -> text round-trips exactly, so
/// a spec's canonical() text is a fixed point and digests are stable.
std::string fmt_double(double value);

/// {1, 2, 4} -> "1, 2, 4".
std::string join_ints(const std::vector<int>& values);

/// A non-empty name of letters, digits, '_', '-' and '.'.
bool valid_name(const std::string& name);

}  // namespace sos::common
