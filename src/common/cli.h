// Minimal typed command-line parsing for the example and bench binaries.
//
// Syntax: --key=value, --key value, or bare --flag. Unknown keys are
// collected and reported so misspelled sweep parameters fail loudly instead
// of silently running the default experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sos::common {

class Args {
 public:
  Args(int argc, const char* const* argv);

  std::optional<std::string> raw(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys the binary never queried; call after all get_* calls.
  std::vector<std::string> unused_keys() const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace sos::common
