#include "common/cli.h"

#include <stdexcept>

#include "common/strings.h"

namespace sos::common {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--")) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is another option or missing.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::optional<std::string> Args::raw(const std::string& key) const {
  touched_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                *v + "'");
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects a number, got '" + *v +
                                "'");
  }
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("--" + key + " expects a boolean, got '" + *v +
                              "'");
}

std::vector<std::string> Args::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : values_) {
    const auto it = touched_.find(key);
    if (it == touched_.end() || !it->second) out.push_back(key);
  }
  return out;
}

}  // namespace sos::common
