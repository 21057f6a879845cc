#include "common/spec_grammar.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/strings.h"

namespace sos::common {

void SpecGrammar::reject(const std::string& field, const std::string& value,
                         const std::string& accepted) const {
  throw std::invalid_argument(std::string(owner_) + ": bad " + field + " '" +
                              value + "' (accepted: " + accepted + ")");
}

void SpecGrammar::for_each_entry(const std::string& text,
                                 const OnEntry& on_entry) const {
  constexpr const char* kLines =
      "'key = value' lines, blank lines, and # comments";
  std::vector<std::string> seen;
  for (const auto& raw_line : split(text, '\n')) {
    std::string line{raw_line};
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) reject("line", line, kLines);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) reject("line", line, kLines);
    for (const auto& prior : seen)
      if (prior == key) reject("duplicate key", key, "each key at most once");
    seen.push_back(key);
    on_entry(key, value);
  }
}

long long SpecGrammar::parse_int(const std::string& key,
                                 const std::string& value) const {
  const char* text = value.c_str();
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') reject(key, value, "an integer");
  return parsed;
}

double SpecGrammar::parse_double(const std::string& key,
                                 const std::string& value) const {
  const char* text = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0') reject(key, value, "a real number");
  return parsed;
}

std::uint64_t SpecGrammar::parse_seed(const std::string& key,
                                      const std::string& value) const {
  if (value.empty() || value[0] == '-')
    reject(key, value, "a non-negative integer, decimal or 0x hex");
  const char* text = value.c_str();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0')
    reject(key, value, "a non-negative integer, decimal or 0x hex");
  return parsed;
}

std::vector<int> SpecGrammar::parse_int_list(const std::string& key,
                                             const std::string& value) const {
  constexpr const char* kAccepted =
      "comma-separated integers and lo..hi ranges, e.g. 1,2,4 or 1..8";
  std::vector<int> out;
  for (const auto& raw : split(value, ',')) {
    const std::string item = trim(raw);
    if (item.empty()) reject(key, value, kAccepted);
    const auto dots = item.find("..");
    if (dots == std::string::npos) {
      out.push_back(static_cast<int>(parse_int(key, item)));
      continue;
    }
    const std::string lo_text = trim(item.substr(0, dots));
    const std::string hi_text = trim(item.substr(dots + 2));
    if (lo_text.empty() || hi_text.empty()) reject(key, value, kAccepted);
    const int lo = static_cast<int>(parse_int(key, lo_text));
    const int hi = static_cast<int>(parse_int(key, hi_text));
    if (lo > hi) reject(key, value, kAccepted);
    for (int i = lo; i <= hi; ++i) out.push_back(i);
  }
  if (out.empty()) reject(key, value, kAccepted);
  return out;
}

std::vector<std::string> parse_name_list(const std::string& value) {
  std::vector<std::string> out;
  for (const auto& raw : split(value, ',')) {
    const std::string item = trim(raw);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string join_ints(const std::vector<int>& values) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const int v : values) parts.push_back(std::to_string(v));
  return join(parts, ", ");
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace sos::common
