#include "campaign/scenario_spec.h"

#include <cstdlib>
#include <stdexcept>

#include "common/files.h"
#include "common/spec_grammar.h"
#include "common/strings.h"
#include "core/distribution.h"
#include "core/mapping.h"

namespace sos::campaign {

namespace {

constexpr common::SpecGrammar kGrammar{"ScenarioSpec"};
using common::fmt_double;
using common::join_ints;
using common::parse_name_list;
using common::valid_name;

[[noreturn]] void reject(const std::string& field, const std::string& value,
                         const std::string& accepted) {
  kGrammar.reject(field, value, accepted);
}

constexpr const char* kKnownKeys =
    "campaign, mode, figures, n, sos, filters, p_break, mc_trials, mc_walks, "
    "seed, attacker, layers, mappings, distribution, break_in, congestion, "
    "rounds, prior_knowledge, fault_node_mtbf, fault_node_mttr, "
    "fault_filter_flap_mtbf, fault_filter_flap_mttr, fault_lossy_fraction";

constexpr const char* kAutoTrialsAccepted =
    "'default', a non-negative trial count, or "
    "auto:ci=<half-width>[:rel][:max=<trials>]"
    "[:estimator=<sequential|stratified>]";

/// `auto[:ci=<w>][:rel][:max=<n>][:estimator=<e>]`, each option at most
/// once. Any malformed token rejects with the full accepted grammar.
ScenarioSpec::AutoTrials parse_auto_trials(const std::string& value) {
  ScenarioSpec::AutoTrials out;
  out.enabled = true;
  const auto tokens = common::split(value, ':');
  if (tokens.empty() || common::trim(tokens[0]) != "auto")
    reject("mc_trials", value, kAutoTrialsAccepted);
  bool saw_ci = false, saw_rel = false, saw_max = false, saw_estimator = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string token = common::trim(tokens[i]);
    if (token == "rel") {
      if (saw_rel) reject("mc_trials", value, kAutoTrialsAccepted);
      saw_rel = true;
      out.relative = true;
    } else if (token.rfind("ci=", 0) == 0) {
      if (saw_ci) reject("mc_trials", value, kAutoTrialsAccepted);
      saw_ci = true;
      const std::string body = token.substr(3);
      const char* text = body.c_str();
      char* end = nullptr;
      out.ci = std::strtod(text, &end);
      if (body.empty() || end == text || *end != '\0')
        reject("mc_trials", value, kAutoTrialsAccepted);
    } else if (token.rfind("max=", 0) == 0) {
      if (saw_max) reject("mc_trials", value, kAutoTrialsAccepted);
      saw_max = true;
      const std::string body = token.substr(4);
      const char* text = body.c_str();
      char* end = nullptr;
      const long long parsed = std::strtoll(text, &end, 10);
      if (body.empty() || end == text || *end != '\0')
        reject("mc_trials", value, kAutoTrialsAccepted);
      out.max_trials = static_cast<int>(parsed);
    } else if (token.rfind("estimator=", 0) == 0) {
      if (saw_estimator) reject("mc_trials", value, kAutoTrialsAccepted);
      saw_estimator = true;
      out.estimator = token.substr(10);
    } else {
      reject("mc_trials", value, kAutoTrialsAccepted);
    }
  }
  return out;
}

}  // namespace

std::string ScenarioSpec::AutoTrials::render() const {
  std::string out = "auto:ci=" + fmt_double(ci);
  if (relative) out += ":rel";
  out += ":max=" + std::to_string(max_trials);
  out += ":estimator=" + estimator;
  return out;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  bool mc_trials_set = false;
  kGrammar.for_each_entry(text, [&](const std::string& key,
                                    const std::string& value) {
    if (key == "campaign") {
      spec.name = value;
    } else if (key == "mode") {
      if (value == "figures") {
        spec.mode = Mode::kFigures;
      } else if (value == "sweep") {
        spec.mode = Mode::kSweep;
      } else {
        reject("mode", value, "figures, sweep");
      }
    } else if (key == "figures") {
      spec.figures = parse_name_list(value);
    } else if (key == "n") {
      spec.total_overlay = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "sos") {
      spec.sos_nodes = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "filters") {
      spec.filters = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "p_break") {
      spec.p_break = kGrammar.parse_double(key, value);
    } else if (key == "mc_trials") {
      mc_trials_set = true;
      if (value == "default") {
        spec.mc_trials = kPerFigureDefaultTrials;
      } else if (value.rfind("auto", 0) == 0) {
        spec.auto_trials = parse_auto_trials(value);
        spec.mc_trials = 0;  // the rule, not a fixed count, drives MC points
      } else {
        spec.mc_trials = static_cast<int>(kGrammar.parse_int(key, value));
      }
    } else if (key == "mc_walks") {
      spec.mc_walks = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "seed") {
      spec.seed = kGrammar.parse_seed(key, value);
    } else if (key == "attacker") {
      spec.attacker = value;
    } else if (key == "layers") {
      spec.layers = kGrammar.parse_int_list(key, value);
    } else if (key == "mappings") {
      spec.mappings = parse_name_list(value);
    } else if (key == "distribution") {
      spec.distribution = value;
    } else if (key == "break_in") {
      spec.break_in = kGrammar.parse_int_list(key, value);
    } else if (key == "congestion") {
      spec.congestion = kGrammar.parse_int_list(key, value);
    } else if (key == "rounds") {
      spec.rounds = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "prior_knowledge") {
      spec.prior_knowledge = kGrammar.parse_double(key, value);
    } else if (key == "fault_node_mtbf") {
      spec.faults.node_mtbf = kGrammar.parse_double(key, value);
    } else if (key == "fault_node_mttr") {
      spec.faults.node_mttr = kGrammar.parse_double(key, value);
    } else if (key == "fault_filter_flap_mtbf") {
      spec.faults.filter_flap_mtbf = kGrammar.parse_double(key, value);
    } else if (key == "fault_filter_flap_mttr") {
      spec.faults.filter_flap_mttr = kGrammar.parse_double(key, value);
    } else if (key == "fault_lossy_fraction") {
      spec.faults.lossy_fraction = kGrammar.parse_double(key, value);
    } else {
      reject("key", key, kKnownKeys);
    }
  });

  // Sweep campaigns default to analytic-only; "per-figure default" has no
  // meaning without a figure registry entry.
  if (spec.mode == Mode::kSweep && !mc_trials_set) spec.mc_trials = 0;

  spec.validate();
  return spec;
}

ScenarioSpec ScenarioSpec::parse_file(const std::string& path) {
  const auto text = common::read_file(path);
  if (!text)
    throw std::invalid_argument("ScenarioSpec: cannot read spec file '" +
                                path + "'");
  return parse(*text);
}

void ScenarioSpec::validate() const {
  if (!valid_name(name))
    reject("campaign", name,
           "a non-empty name of letters, digits, '_', '-', '.'");
  if (total_overlay < 1)
    reject("n", std::to_string(total_overlay), "a positive overlay size");
  if (sos_nodes < 1 || sos_nodes > total_overlay)
    reject("sos", std::to_string(sos_nodes), "an integer in [1, n]");
  if (filters < 1)
    reject("filters", std::to_string(filters), "a positive filter count");
  if (p_break < 0.0 || p_break > 1.0)
    reject("p_break", fmt_double(p_break), "a probability in [0, 1]");
  if (mc_walks < 1)
    reject("mc_walks", std::to_string(mc_walks), "a positive walk count");

  if (mode == Mode::kFigures) {
    if (auto_trials.enabled)
      reject("mc_trials", auto_trials.render(),
             "'default' or a non-negative trial count (auto trials apply to "
             "sweep campaigns only)");
    if (mc_trials < 0 && mc_trials != kPerFigureDefaultTrials)
      reject("mc_trials", std::to_string(mc_trials),
             "'default' or a non-negative trial count");
    if (figures.empty())
      reject("figures", "",
             "a non-empty comma-separated list of registered figure ids "
             "(see sos_campaign list)");
    return;
  }

  // Sweep mode.
  if (mc_trials < 0)
    reject("mc_trials", std::to_string(mc_trials),
           "a non-negative trial count");
  if (auto_trials.enabled) {
    if (!(auto_trials.ci > 0.0) || !(auto_trials.ci < 1.0))
      reject("mc_trials", auto_trials.render(),
             "auto trials with ci in (0, 1)");
    if (auto_trials.max_trials < 2)
      reject("mc_trials", auto_trials.render(),
             "auto trials with max >= 2");
    const bool known_estimator = auto_trials.estimator == "sequential" ||
                                 auto_trials.estimator == "stratified";
    if (!known_estimator)
      reject("mc_trials", auto_trials.render(),
             "estimator sequential, stratified");
    if (auto_trials.estimator != "sequential" && attacker != "one-burst")
      reject("mc_trials", auto_trials.render(),
             "the stratified estimator with attacker = one-burst (it "
             "conditions on the one-burst compromised-servlet count)");
  }
  if (attacker != "one-burst" && attacker != "successive")
    reject("attacker", attacker, "one-burst, successive");
  if (layers.empty()) reject("layers", "", "a non-empty list of layer counts");
  for (const int l : layers)
    if (l < 1 || l > sos_nodes)
      reject("layers", std::to_string(l),
             "layer counts in [1, sos] so every layer keeps at least one "
             "node");
  if (mappings.empty())
    reject("mappings", "", "a non-empty list of mapping policies");
  for (const auto& label : mappings) {
    try {
      core::MappingPolicy::parse(label);
    } catch (const std::invalid_argument&) {
      reject("mappings", label,
             "one-to-one, one-to-two, one-to-five, one-to-half, one-to-all, "
             "a fixed count, or a fraction in (0, 1]");
    }
  }
  try {
    core::NodeDistribution::parse(distribution);
  } catch (const std::invalid_argument&) {
    reject("distribution", distribution,
           "even, increasing, decreasing, or custom:w1,w2,...");
  }
  if (break_in.empty())
    reject("break_in", "", "a non-empty list of break-in budgets");
  for (const int b : break_in)
    if (b < 0 || b > total_overlay)
      reject("break_in", std::to_string(b), "budgets in [0, n]");
  if (congestion.empty())
    reject("congestion", "", "a non-empty list of congestion budgets");
  for (const int c : congestion)
    if (c < 0 || c > total_overlay)
      reject("congestion", std::to_string(c), "budgets in [0, n]");
  if (rounds < 1)
    reject("rounds", std::to_string(rounds), "a round count >= 1");
  if (prior_knowledge < 0.0 || prior_knowledge > 1.0)
    reject("prior_knowledge", fmt_double(prior_knowledge),
           "a probability in [0, 1]");
  faults.validate();  // FaultConfig's own "(accepted:)" messages
}

std::string ScenarioSpec::canonical() const {
  std::string out;
  out += "campaign = " + name + "\n";
  out += std::string("mode = ") +
         (mode == Mode::kFigures ? "figures" : "sweep") + "\n";
  if (mode == Mode::kFigures)
    out += "figures = " + common::join(figures, ", ") + "\n";
  out += "n = " + std::to_string(total_overlay) + "\n";
  out += "sos = " + std::to_string(sos_nodes) + "\n";
  out += "filters = " + std::to_string(filters) + "\n";
  out += "p_break = " + fmt_double(p_break) + "\n";
  if (auto_trials.enabled) {
    out += "mc_trials = " + auto_trials.render() + "\n";
  } else {
    out += "mc_trials = " + (mc_trials == kPerFigureDefaultTrials
                                 ? std::string("default")
                                 : std::to_string(mc_trials)) +
           "\n";
  }
  out += "mc_walks = " + std::to_string(mc_walks) + "\n";
  out += "seed = " + std::to_string(seed) + "\n";
  if (mode == Mode::kSweep) {
    out += "attacker = " + attacker + "\n";
    out += "layers = " + join_ints(layers) + "\n";
    out += "mappings = " + common::join(mappings, ", ") + "\n";
    out += "distribution = " + distribution + "\n";
    out += "break_in = " + join_ints(break_in) + "\n";
    out += "congestion = " + join_ints(congestion) + "\n";
    if (successive()) {
      out += "rounds = " + std::to_string(rounds) + "\n";
      out += "prior_knowledge = " + fmt_double(prior_knowledge) + "\n";
    }
    if (faults.enabled()) {
      out += "fault_node_mtbf = " + fmt_double(faults.node_mtbf) + "\n";
      out += "fault_node_mttr = " + fmt_double(faults.node_mttr) + "\n";
      out += "fault_filter_flap_mtbf = " + fmt_double(faults.filter_flap_mtbf) +
             "\n";
      out +=
          "fault_filter_flap_mttr = " + fmt_double(faults.filter_flap_mttr) +
          "\n";
      out += "fault_lossy_fraction = " + fmt_double(faults.lossy_fraction) +
             "\n";
    }
  }
  return out;
}

std::string ScenarioSpec::result_scope() const {
  std::string out;
  out += std::string("mode=") +
         (mode == Mode::kFigures ? "figures" : "sweep") + "\n";
  out += "n=" + std::to_string(total_overlay) + "\n";
  out += "sos=" + std::to_string(sos_nodes) + "\n";
  out += "filters=" + std::to_string(filters) + "\n";
  out += "p_break=" + fmt_double(p_break) + "\n";
  out += "mc_walks=" + std::to_string(mc_walks) + "\n";
  out += "seed=" + std::to_string(seed) + "\n";
  if (mode == Mode::kSweep) {
    // Figures-mode trials are resolved per point (and live in the point
    // key); sweep trials are shared, so they scope every point. An auto
    // rule renders its canonical form here — fixed-trial scopes keep their
    // exact historical bytes, so existing cached points stay warm.
    out += "mc_trials=" +
           (auto_trials.enabled ? auto_trials.render()
                                : std::to_string(mc_trials)) +
           "\n";
    out += "attacker=" + attacker + "\n";
    out += "distribution=" + distribution + "\n";
    if (successive()) {
      out += "rounds=" + std::to_string(rounds) + "\n";
      out += "prior_knowledge=" + fmt_double(prior_knowledge) + "\n";
    }
    if (faults.enabled()) {
      out += "fault_node_mtbf=" + fmt_double(faults.node_mtbf) + "\n";
      out += "fault_node_mttr=" + fmt_double(faults.node_mttr) + "\n";
      out += "fault_filter_flap_mtbf=" + fmt_double(faults.filter_flap_mtbf) +
             "\n";
      out += "fault_filter_flap_mttr=" + fmt_double(faults.filter_flap_mttr) +
             "\n";
      out += "fault_lossy_fraction=" + fmt_double(faults.lossy_fraction) +
             "\n";
    }
  }
  return out;
}

experiments::Params ScenarioSpec::params_with_trials(
    int resolved_trials) const {
  experiments::Params params;
  params.total_overlay = total_overlay;
  params.sos_nodes = sos_nodes;
  params.filters = filters;
  params.p_break = p_break;
  params.mc_trials = resolved_trials;
  params.mc_walks = mc_walks;
  params.seed = seed;
  return params;
}

}  // namespace sos::campaign
