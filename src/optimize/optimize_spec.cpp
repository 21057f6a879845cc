#include "optimize/optimize_spec.h"

#include <stdexcept>

#include "common/files.h"
#include "common/spec_grammar.h"
#include "common/strings.h"

namespace sos::optimize {

namespace {

constexpr common::SpecGrammar kGrammar{"OptimizeSpec"};
using common::fmt_double;
using common::join_ints;
using common::parse_name_list;
using common::valid_name;

[[noreturn]] void reject(const std::string& field, const std::string& value,
                         const std::string& accepted) {
  kGrammar.reject(field, value, accepted);
}

constexpr const char* kKnownKeys =
    "optimize, n, filters, layers, sos, mappings, distributions, cost_node, "
    "cost_filter, cost_layer, cost_link, attacker, budget_total, "
    "budget_break_in_cost, budget_congestion_cost, rounds, prior_knowledge, "
    "p_break, split_steps, searcher, auto_exhaustive_max, sa_restarts, "
    "sa_iterations, sa_t_initial, sa_t_final, sa_seed, validate_trials, "
    "mc_walks, seed";

OptimizeSpec::Searcher parse_searcher(const std::string& value) {
  if (value == "auto") return OptimizeSpec::Searcher::kAuto;
  if (value == "exhaustive") return OptimizeSpec::Searcher::kExhaustive;
  if (value == "anneal") return OptimizeSpec::Searcher::kAnneal;
  reject("searcher", value, "auto, exhaustive, anneal");
}

}  // namespace

const char* OptimizeSpec::searcher_label(Searcher searcher) {
  switch (searcher) {
    case Searcher::kAuto: return "auto";
    case Searcher::kExhaustive: return "exhaustive";
    case Searcher::kAnneal: return "anneal";
  }
  return "auto";
}

OptimizeSpec::Searcher OptimizeSpec::resolved_searcher() const {
  if (searcher != Searcher::kAuto) return searcher;
  return space.size() <= static_cast<std::size_t>(auto_exhaustive_max)
             ? Searcher::kExhaustive
             : Searcher::kAnneal;
}

OptimizeSpec OptimizeSpec::parse(const std::string& text) {
  OptimizeSpec spec;
  kGrammar.for_each_entry(text, [&](const std::string& key,
                                    const std::string& value) {
    if (key == "optimize") {
      spec.name = value;
    } else if (key == "n") {
      spec.space.total_overlay_nodes =
          static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "filters") {
      spec.space.filter_count =
          static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "layers") {
      spec.space.layers = kGrammar.parse_int_list(key, value);
    } else if (key == "sos") {
      spec.space.sos_nodes = kGrammar.parse_int_list(key, value);
    } else if (key == "mappings") {
      spec.space.mappings = parse_name_list(value);
    } else if (key == "distributions") {
      spec.space.distributions = parse_name_list(value);
    } else if (key == "cost_node") {
      spec.cost.node_cost = kGrammar.parse_double(key, value);
    } else if (key == "cost_filter") {
      spec.cost.filter_cost = kGrammar.parse_double(key, value);
    } else if (key == "cost_layer") {
      spec.cost.layer_cost = kGrammar.parse_double(key, value);
    } else if (key == "cost_link") {
      spec.cost.link_cost = kGrammar.parse_double(key, value);
    } else if (key == "attacker") {
      spec.objective.model = parse_attacker_model(value);
    } else if (key == "budget_total") {
      spec.objective.budget.total = kGrammar.parse_double(key, value);
    } else if (key == "budget_break_in_cost") {
      spec.objective.budget.break_in_cost = kGrammar.parse_double(key, value);
    } else if (key == "budget_congestion_cost") {
      spec.objective.budget.congestion_cost = kGrammar.parse_double(key, value);
    } else if (key == "rounds") {
      spec.objective.budget.rounds =
          static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "prior_knowledge") {
      spec.objective.budget.prior_knowledge = kGrammar.parse_double(key, value);
    } else if (key == "p_break") {
      spec.objective.budget.break_in_success =
          kGrammar.parse_double(key, value);
    } else if (key == "split_steps") {
      spec.objective.split_steps =
          static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "searcher") {
      spec.searcher = parse_searcher(value);
    } else if (key == "auto_exhaustive_max") {
      spec.auto_exhaustive_max =
          static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "sa_restarts") {
      spec.anneal.restarts = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "sa_iterations") {
      spec.anneal.iterations = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "sa_t_initial") {
      spec.anneal.t_initial = kGrammar.parse_double(key, value);
    } else if (key == "sa_t_final") {
      spec.anneal.t_final = kGrammar.parse_double(key, value);
    } else if (key == "sa_seed") {
      spec.anneal.seed = kGrammar.parse_seed(key, value);
    } else if (key == "validate_trials") {
      spec.validate_trials = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "mc_walks") {
      spec.mc_walks = static_cast<int>(kGrammar.parse_int(key, value));
    } else if (key == "seed") {
      spec.seed = kGrammar.parse_seed(key, value);
    } else {
      reject("key", key, kKnownKeys);
    }
  });

  spec.validate();
  return spec;
}

OptimizeSpec OptimizeSpec::parse_file(const std::string& path) {
  const auto text = common::read_file(path);
  if (!text)
    throw std::invalid_argument("OptimizeSpec: cannot read spec file '" +
                                path + "'");
  return parse(*text);
}

void OptimizeSpec::validate() const {
  if (!valid_name(name))
    reject("optimize", name,
           "a non-empty name of letters, digits, '_', '-', '.'");
  space.validate();
  cost.validate();
  objective.validate();
  if (auto_exhaustive_max < 1)
    reject("auto_exhaustive_max", std::to_string(auto_exhaustive_max),
           "an integer >= 1");
  if (anneal.restarts < 1)
    reject("sa_restarts", std::to_string(anneal.restarts),
           "an integer >= 1");
  if (anneal.iterations < 1)
    reject("sa_iterations", std::to_string(anneal.iterations),
           "an integer >= 1");
  if (!(anneal.t_initial > 0.0) || !(anneal.t_final > 0.0) ||
      anneal.t_final > anneal.t_initial)
    reject("sa_t_initial/sa_t_final",
           fmt_double(anneal.t_initial) + " / " + fmt_double(anneal.t_final),
           "t_initial >= t_final > 0");
  if (validate_trials < 0)
    reject("validate_trials", std::to_string(validate_trials),
           "an integer >= 0 (0 disables the Monte Carlo check)");
  if (mc_walks < 1)
    reject("mc_walks", std::to_string(mc_walks), "an integer >= 1");
}

std::string OptimizeSpec::canonical() const {
  std::string out;
  out += "optimize = " + name + "\n";
  out += "n = " + std::to_string(space.total_overlay_nodes) + "\n";
  out += "filters = " + std::to_string(space.filter_count) + "\n";
  out += "layers = " + join_ints(space.layers) + "\n";
  out += "sos = " + join_ints(space.sos_nodes) + "\n";
  out += "mappings = " + common::join(space.mappings, ", ") + "\n";
  out += "distributions = " + common::join(space.distributions, ", ") + "\n";
  out += "cost_node = " + fmt_double(cost.node_cost) + "\n";
  out += "cost_filter = " + fmt_double(cost.filter_cost) + "\n";
  out += "cost_layer = " + fmt_double(cost.layer_cost) + "\n";
  out += "cost_link = " + fmt_double(cost.link_cost) + "\n";
  out += std::string("attacker = ") + attacker_model_label(objective.model) +
         "\n";
  out += "budget_total = " + fmt_double(objective.budget.total) + "\n";
  out += "budget_break_in_cost = " +
         fmt_double(objective.budget.break_in_cost) + "\n";
  out += "budget_congestion_cost = " +
         fmt_double(objective.budget.congestion_cost) + "\n";
  out += "rounds = " + std::to_string(objective.budget.rounds) + "\n";
  out += "prior_knowledge = " + fmt_double(objective.budget.prior_knowledge) +
         "\n";
  out += "p_break = " + fmt_double(objective.budget.break_in_success) + "\n";
  out += "split_steps = " + std::to_string(objective.split_steps) + "\n";
  out += std::string("searcher = ") + searcher_label(searcher) + "\n";
  out += "auto_exhaustive_max = " + std::to_string(auto_exhaustive_max) + "\n";
  out += "sa_restarts = " + std::to_string(anneal.restarts) + "\n";
  out += "sa_iterations = " + std::to_string(anneal.iterations) + "\n";
  out += "sa_t_initial = " + fmt_double(anneal.t_initial) + "\n";
  out += "sa_t_final = " + fmt_double(anneal.t_final) + "\n";
  out += "sa_seed = " + std::to_string(anneal.seed) + "\n";
  out += "validate_trials = " + std::to_string(validate_trials) + "\n";
  out += "mc_walks = " + std::to_string(mc_walks) + "\n";
  out += "seed = " + std::to_string(seed) + "\n";
  return out;
}

}  // namespace sos::optimize
