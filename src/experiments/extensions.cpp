// Extension experiments beyond the paper's printed figures (DESIGN.md §3):
// the N_C sensitivity the paper cut for space, model-vs-Monte-Carlo
// validation, exact-vs-average-case error, the Section 5 adaptive attacker,
// repair dynamics, and Chord transport fidelity.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "common/histogram.h"
#include "core/budget_frontier.h"
#include "core/exact_models.h"
#include "experiments/detail.h"
#include "experiments/figures.h"
#include "sosnet/protocol.h"
#include "sim/defense.h"
#include "sim/timeline.h"

namespace sos::experiments {

namespace {

using detail::fmt;

int effective_trials(const Params& params, int fallback = 40) {
  return params.mc_trials > 0 ? params.mc_trials : fallback;
}

}  // namespace

Figure ext_nc_sensitivity(const Params& params) {
  Figure figure;
  figure.id = "ext_nc";
  figure.title = "P_S vs N_C (successive attack; the sweep ref [3] keeps)";
  figure.x_label = "congestion budget N_C";
  figure.table = common::Table{{"L", "mapping", "N_C", "P_S_model"}};

  const std::vector<int> budgets{0, 500, 1000, 2000, 3000, 4000, 6000, 8000};
  std::map<std::string, std::map<int, double>> model_values;
  for (const int layers : {3, 5}) {
    for (const auto& mapping :
         {core::MappingPolicy::one_to_two(),
          core::MappingPolicy::one_to_five()}) {
      const auto design = detail::make_design(params, layers, mapping);
      common::Series series;
      series.label =
          "L=" + std::to_string(layers) + " " + mapping.label();
      for (const int budget_c : budgets) {
        auto attack = detail::default_successive(params);
        attack.congestion_budget = budget_c;
        const double p = core::SuccessiveModel::p_success(design, attack);
        series.xs.push_back(budget_c);
        series.ys.push_back(p);
        model_values[series.label][budget_c] = p;
        figure.table.add_row({std::to_string(layers), mapping.label(),
                              std::to_string(budget_c), fmt(p)});
      }
      figure.series.push_back(std::move(series));
    }
  }

  bool monotone = true;
  for (const auto& [label, by_nc] : model_values) {
    double prev = 2.0;
    for (const auto& [budget_c, p] : by_nc) {
      if (p > prev + 1e-9) monotone = false;
      prev = p;
    }
  }
  figure.checks.push_back(make_check(
      "P_S decreases monotonically in N_C for every configuration", monotone,
      ""));
  {
    double lo = 2.0, hi = -1.0, largest_move = 0.0;
    for (const auto& [label, by_nc] : model_values) {
      lo = std::min(lo, by_nc.at(2000));
      hi = std::max(hi, by_nc.at(2000));
      largest_move =
          std::max(largest_move, std::fabs(by_nc.at(2000) - by_nc.at(4000)));
    }
    figure.checks.push_back(make_check(
        "design choice dominates budget: configurations separate more than "
        "doubling N_C (2000 -> 4000) moves any one curve",
        hi - lo > largest_move,
        "spread at NC=2000: " + fmt(hi - lo) +
            ", largest move 2000 -> 4000: " + fmt(largest_move)));
  }
  return figure;
}

Figure ext_model_vs_montecarlo(const Params& params) {
  Figure figure;
  figure.id = "ext_mc";
  figure.title = "average-case model vs Monte Carlo ground truth";
  figure.x_label = "configuration index";
  figure.table = common::Table{{"config", "P_S_model", "P_S_mc", "mc_ci_lo",
                                "mc_ci_hi", "abs_err"}};

  Params mc_params = params;
  mc_params.mc_trials = effective_trials(params, 60);

  struct Case {
    std::string label;
    int layers;
    core::MappingPolicy mapping;
    core::SuccessiveAttack attack;
  };
  std::vector<Case> cases;
  const auto add_case = [&](std::string label, int layers,
                            core::MappingPolicy mapping, int budget_t,
                            int budget_c, int rounds, double prior) {
    core::SuccessiveAttack attack;
    attack.break_in_budget = budget_t;
    attack.congestion_budget = budget_c;
    attack.break_in_success = params.p_break;
    attack.rounds = rounds;
    attack.prior_knowledge = prior;
    cases.push_back(Case{std::move(label), layers, mapping, attack});
  };
  add_case("pure congestion L=3 1-to-1", 3, core::MappingPolicy::one_to_one(),
           0, 2000, 1, 0.0);
  add_case("pure congestion L=8 1-to-1", 8, core::MappingPolicy::one_to_one(),
           0, 6000, 1, 0.0);
  add_case("one-burst L=3 1-to-5", 3, core::MappingPolicy::one_to_five(),
           2000, 2000, 1, 0.0);
  add_case("one-burst L=3 1-to-all", 3, core::MappingPolicy::one_to_all(),
           2000, 2000, 1, 0.0);
  add_case("successive defaults L=3 1-to-5", 3,
           core::MappingPolicy::one_to_five(), 200, 2000, 3, 0.2);
  add_case("successive defaults L=4 1-to-2", 4,
           core::MappingPolicy::one_to_two(), 200, 2000, 3, 0.2);
  add_case("successive deep L=5 1-to-5 R=5", 5,
           core::MappingPolicy::one_to_five(), 2000, 2000, 5, 0.2);
  add_case("prior knowledge only L=3 1-to-2", 3,
           core::MappingPolicy::one_to_two(), 0, 2000, 3, 0.5);

  detail::McBatch batch{mc_params};
  std::vector<double> models;
  for (const Case& c : cases) {
    const auto design = detail::make_design(params, c.layers, c.mapping);
    models.push_back(core::SuccessiveModel::p_success(design, c.attack));
    batch.add(design, c.attack);
  }
  batch.run();

  common::Series model_series{"model", {}, {}};
  common::Series mc_series{"monte-carlo", {}, {}};
  double max_err = 0.0, sum_err = 0.0;
  for (std::size_t index = 0; index < cases.size(); ++index) {
    const auto& c = cases[index];
    const double p_model = models[index];
    const auto& mc = batch.result(static_cast<int>(index));
    const double err = std::fabs(p_model - mc.p_success);
    max_err = std::max(max_err, err);
    sum_err += err;
    model_series.xs.push_back(static_cast<double>(index));
    model_series.ys.push_back(p_model);
    mc_series.xs.push_back(static_cast<double>(index));
    mc_series.ys.push_back(mc.p_success);
    figure.table.add_row({c.label, fmt(p_model), fmt(mc.p_success),
                          fmt(mc.ci.lo), fmt(mc.ci.hi), fmt(err)});
  }
  figure.series.push_back(std::move(model_series));
  figure.series.push_back(std::move(mc_series));

  const double mean_err = sum_err / static_cast<double>(cases.size());
  figure.checks.push_back(make_check(
      "average-case analysis tracks the simulated overlay (mean |err| < "
      "0.05)",
      mean_err < 0.05, "mean abs err: " + fmt(mean_err)));
  figure.checks.push_back(make_check(
      "no configuration diverges badly (max |err| < 0.12)", max_err < 0.12,
      "max abs err: " + fmt(max_err)));
  figure.notes.push_back(
      "known model/simulator gaps: the model ignores cross-round disclosure "
      "of previously failed random targets and uses the paper's Eq. (11) "
      "pool bookkeeping (see DESIGN.md)");
  return figure;
}

Figure ext_exact_vs_average(const Params& params) {
  Figure figure;
  figure.id = "ext_exact";
  figure.title = "exact DP vs average-case model, pure random congestion";
  figure.x_label = "congestion budget N_C";
  figure.table = common::Table{
      {"L", "mapping", "N_C", "P_S_exact", "P_S_avg", "avg_minus_exact"}};

  const std::vector<int> budgets{1000, 2000, 4000, 6000, 8000};
  double worst_gap_all = 0.0;
  double worst_gap_one = 0.0;

  // The exact model's layer DP is budget independent, so one
  // p_success_curve call per design amortizes it over the budget grid.
  for (const int layers : {1, 3, 8}) {
    for (const auto& mapping :
         {core::MappingPolicy::one_to_one(), core::MappingPolicy::one_to_half(),
          core::MappingPolicy::one_to_all()}) {
      const auto design = detail::make_design(params, layers, mapping);
      const auto exact_curve =
          core::ExactRandomCongestionModel::p_success_curve(design, budgets);
      common::Series exact_series;
      exact_series.label = "L=" + std::to_string(layers) + " " +
                           mapping.label() + " exact";
      for (std::size_t i = 0; i < budgets.size(); ++i) {
        const int budget_c = budgets[i];
        const double exact = exact_curve[i];
        const double average = core::OneBurstModel::p_success(
            design, core::OneBurstAttack{0, budget_c, params.p_break});
        exact_series.xs.push_back(budget_c);
        exact_series.ys.push_back(exact);
        const double gap = average - exact;
        if (mapping.label() == "one-to-all")
          worst_gap_all = std::max(worst_gap_all, gap);
        if (mapping.label() == "one-to-one")
          worst_gap_one = std::max(worst_gap_one, std::fabs(gap));
        figure.table.add_row({std::to_string(layers), mapping.label(),
                              std::to_string(budget_c), fmt(exact),
                              fmt(average), fmt(gap)});
      }
      figure.series.push_back(std::move(exact_series));
    }
  }

  figure.checks.push_back(make_check(
      "mean-plugging is exact for one-to-one mapping (hop prob is linear in "
      "the congested count)",
      worst_gap_one < 5e-3, "max |gap|: " + fmt(worst_gap_one, 5)));
  figure.checks.push_back(make_check(
      "mean-plugging only over-estimates P_S for one-to-all (fluctuations "
      "can wipe a layer; the mean cannot)",
      worst_gap_all >= 0.0, "max gap: " + fmt(worst_gap_all, 5)));
  return figure;
}

Figure ext_adaptive_attacker(const Params& params) {
  Figure figure;
  figure.id = "ext_adaptive";
  figure.title =
      "Section 5 adaptive attacker (traffic monitoring) vs Algorithm 1";
  figure.x_label = "break-in budget N_T";
  figure.table = common::Table{
      {"N_T", "P_S_standard", "P_S_adaptive", "ci_lo_adaptive",
       "ci_hi_adaptive"}};

  Params mc_params = params;
  mc_params.mc_trials = effective_trials(params);

  const auto design =
      detail::make_design(params, 4, core::MappingPolicy::one_to_five());
  common::Series standard_series{"standard successive", {}, {}};
  common::Series adaptive_series{"adaptive (monitors predecessors)", {}, {}};

  attack::SuccessiveAttackerOptions adaptive_options;
  adaptive_options.monitor_predecessors = true;
  adaptive_options.monitor_detection = 0.5;
  // Each budget queues its standard attack, then its adaptive one.
  const std::vector<int> budgets{100, 200, 400, 800, 1600};
  detail::McBatch batch{mc_params};
  for (const int budget_t : budgets) {
    auto attack = detail::default_successive(params);
    attack.break_in_budget = budget_t;
    batch.add(design, attack);
    batch.add(design, attack, adaptive_options);
  }
  batch.run();

  bool adaptive_weaker_everywhere = true;
  int point = 0;
  for (const int budget_t : budgets) {
    const auto& standard = batch.result(point++);
    const auto& adaptive = batch.result(point++);
    standard_series.xs.push_back(budget_t);
    standard_series.ys.push_back(standard.p_success);
    adaptive_series.xs.push_back(budget_t);
    adaptive_series.ys.push_back(adaptive.p_success);
    if (adaptive.p_success > standard.p_success + 0.05)
      adaptive_weaker_everywhere = false;
    figure.table.add_row({std::to_string(budget_t), fmt(standard.p_success),
                          fmt(adaptive.p_success), fmt(adaptive.ci.lo),
                          fmt(adaptive.ci.hi)});
  }
  figure.series.push_back(std::move(standard_series));
  figure.series.push_back(std::move(adaptive_series));

  figure.checks.push_back(make_check(
      "extra intelligence never helps the defender: adaptive P_S <= "
      "standard P_S (within noise)",
      adaptive_weaker_everywhere, ""));
  figure.notes.push_back(
      "the adaptive attacker realizes the paper's Section 5 refinement: a "
      "captured node also reveals which previous-layer nodes forward "
      "through it (detection probability 0.5)");
  return figure;
}

Figure ext_repair_dynamics(const Params& params) {
  Figure figure;
  figure.id = "ext_repair";
  figure.title = "dynamic repair during the successive attack (Section 5)";
  figure.x_label = "per-round repair probability";
  figure.table = common::Table{
      {"repair_rate", "P_S_mc", "ci_lo", "ci_hi", "mean_repaired"}};

  Params mc_params = params;
  mc_params.mc_trials = effective_trials(params);

  const auto design =
      detail::make_design(params, 3, core::MappingPolicy::one_to_five());
  auto attack = detail::default_successive(params);
  attack.break_in_budget = 2000;
  attack.rounds = 5;

  common::Series series{"P_S with repair", {}, {}};
  std::map<double, double> values;
  for (const double rate : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    const sim::DefenseConfig repair{.repair_rate = rate};
    // Trials run on the pool's threads: an integer sum is exact in any
    // arrival order, so the mean is deterministic at a fixed seed.
    std::atomic<long long> repaired{0};
    const auto mc = sim::run_monte_carlo(
        design,
        [&](sosnet::SosOverlay& overlay, common::Rng& rng) {
          auto outcome = sim::run_successive_attack_with_defense(
              overlay, attack, repair, rng);
          repaired +=
              outcome.tally.repaired_nodes + outcome.tally.repaired_filters;
          return outcome.attack;
        },
        detail::mc_config(mc_params));
    const double mean_repaired = static_cast<double>(repaired.load()) /
                                 static_cast<double>(mc.resolved_trials);
    series.xs.push_back(rate);
    series.ys.push_back(mc.p_success);
    values[rate] = mc.p_success;
    figure.table.add_row({fmt(rate, 2), fmt(mc.p_success), fmt(mc.ci.lo),
                          fmt(mc.ci.hi), fmt(mean_repaired, 1)});
  }
  figure.series.push_back(std::move(series));

  figure.checks.push_back(make_check(
      "repair restores availability: P_S(rate=0.8) substantially beats "
      "P_S(rate=0)",
      values.at(0.8) > values.at(0.0) + 0.1,
      "0.0: " + fmt(values.at(0.0)) + ", 0.8: " + fmt(values.at(0.8))));
  figure.notes.push_back(
      "supports the paper's argument that large R is risky for the "
      "attacker: slow multi-round campaigns give the defender time to "
      "detect and repair");
  return figure;
}

Figure ext_chord_fidelity(const Params& params) {
  Figure figure;
  figure.id = "ext_chord";
  figure.title = "Chord transport fidelity (congested bystanders break paths)";
  figure.x_label = "congested fraction of the overlay";
  figure.table = common::Table{
      {"congested_fraction", "P_S_layer_walk", "P_S_via_chord", "ci_lo",
       "ci_hi"}};

  // Chord ring construction is O(N * 64 * log N) per trial; run this
  // experiment on a smaller overlay (documented in the note below).
  Params chord_params = params;
  chord_params.total_overlay = 2000;
  chord_params.mc_trials = std::max(8, effective_trials(params) / 4);

  const auto design =
      detail::make_design(chord_params, 3, core::MappingPolicy::one_to_all());

  common::Series plain_series{"layer walk only", {}, {}};
  common::Series chord_series{"with Chord transport", {}, {}};
  bool chord_weaker = true;
  for (const double fraction : {0.1, 0.2, 0.4, 0.6}) {
    const int budget =
        static_cast<int>(fraction * chord_params.total_overlay);
    const attack::RandomCongestionAttacker attacker{budget};
    const auto attack_fn = [&attacker](sosnet::SosOverlay& overlay,
                                       common::Rng& rng) {
      return attacker.execute(overlay, rng);
    };
    auto config = detail::mc_config(chord_params);
    const auto plain = sim::run_monte_carlo(design, attack_fn, config);
    config.route_via_chord = true;
    const auto chord = sim::run_monte_carlo(design, attack_fn, config);

    plain_series.xs.push_back(fraction);
    plain_series.ys.push_back(plain.p_success);
    chord_series.xs.push_back(fraction);
    chord_series.ys.push_back(chord.p_success);
    if (chord.p_success > plain.p_success + 0.05) chord_weaker = false;
    figure.table.add_row({fmt(fraction, 2), fmt(plain.p_success),
                          fmt(chord.p_success), fmt(chord.ci.lo),
                          fmt(chord.ci.hi)});
  }
  figure.series.push_back(std::move(plain_series));
  figure.series.push_back(std::move(chord_series));

  figure.checks.push_back(make_check(
      "accounting for the Chord transport can only lower P_S (congested "
      "bystanders break lookups)",
      chord_weaker, ""));
  figure.notes.push_back(
      "N reduced to 2000 for this experiment (per-trial Chord ring build); "
      "both modes use the same attacks and topologies");
  figure.notes.push_back(
      "the paper (like SOS [1]) treats transport as ideal; this bench "
      "quantifies what that abstraction hides");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_latency_tradeoff(const Params& params) {
  Figure figure;
  figure.id = "ext_latency";
  figure.title =
      "timely delivery (Section 5): layering buys resilience, costs hops";
  figure.x_label = "number of layers L";
  figure.table = common::Table{{"L", "mapping", "P_S_model", "layer_hops",
                                "chord_transport_hops"}};

  // Transport length is measured on a healthy overlay (latency is a
  // property of the path, not of the attack); resilience under the default
  // successive attack comes from the analytical model.
  Params chord_params = params;
  chord_params.total_overlay = 2000;
  const auto attack = detail::default_successive(params);

  common::Series resilience{"P_S (one-to-five)", {}, {}};
  common::Series latency{"transport hops / 60 (one-to-five)", {}, {}};
  std::map<int, double> hops_by_layers;
  std::map<int, double> p_by_layers;

  for (int layers = 1; layers <= 8; ++layers) {
    for (const auto& mapping :
         {core::MappingPolicy::one_to_one(), core::MappingPolicy::one_to_five(),
          core::MappingPolicy::one_to_all()}) {
      const auto design = detail::make_design(params, layers, mapping);
      const double p_model = core::SuccessiveModel::p_success(design, attack);

      // Measure the Chord transport cost of one delivery on a healthy
      // (small) overlay of the same shape.
      const auto small = detail::make_design(chord_params, layers, mapping);
      sosnet::SosOverlay overlay{small, params.seed + layers};
      common::Rng rng{params.seed ^ 0x1a7eull};
      double transport = 0.0;
      constexpr int kWalks = 30;
      for (int walk = 0; walk < kWalks; ++walk)
        transport += overlay.route_message_via_chord(rng).transport_hops;
      transport /= kWalks;

      figure.table.add_row({std::to_string(layers), mapping.label(),
                            detail::fmt(p_model),
                            std::to_string(layers + 1),
                            detail::fmt(transport, 1)});
      if (mapping.label() == "one-to-five") {
        resilience.xs.push_back(layers);
        resilience.ys.push_back(p_model);
        latency.xs.push_back(layers);
        latency.ys.push_back(transport / 60.0);
        hops_by_layers[layers] = transport;
        p_by_layers[layers] = p_model;
      }
    }
  }
  figure.series.push_back(std::move(resilience));
  figure.series.push_back(std::move(latency));

  figure.checks.push_back(make_check(
      "transport cost grows with L (more inter-layer lookups)",
      hops_by_layers.at(8) > hops_by_layers.at(1),
      "L=1: " + detail::fmt(hops_by_layers.at(1), 1) +
          " hops, L=8: " + detail::fmt(hops_by_layers.at(8), 1) + " hops"));
  {
    int best_layers = 1;
    for (const auto& [layers, p] : p_by_layers)
      if (p > p_by_layers.at(best_layers)) best_layers = layers;
    figure.checks.push_back(make_check(
        "resilience peaks at intermediate L, so latency-optimal (L=1) and "
        "resilience-optimal designs differ",
        best_layers > 1,
        "best L for P_S: " + std::to_string(best_layers)));
  }
  figure.notes.push_back(
      "transport hops measured on a healthy N=2000 overlay via Chord "
      "(expected ~log2(N)/2 per inter-layer edge); layer hops are always "
      "L+1");
  return figure;
}

Figure ext_pool_bookkeeping(const Params& params) {
  Figure figure;
  figure.id = "ext_pool";
  figure.title =
      "ablation: Eq. (11) random-target pool, paper vs refined bookkeeping";
  figure.x_label = "break-in budget N_T";
  figure.table = common::Table{
      {"N_T", "P_S_paper_pool", "P_S_refined_pool", "difference"}};

  // A deep architecture with moderate mapping keeps P_S mid-range across
  // the sweep, which is where pool-size differences can actually register
  // (collapsed configurations hide any bookkeeping difference at 0).
  const auto design =
      detail::make_design(params, 4, core::MappingPolicy::one_to_two());
  common::Series paper_series{"paper pool (Eq. 11)", {}, {}};
  common::Series refined_series{"refined pool", {}, {}};
  double max_diff = 0.0;

  for (const int budget_t : {0, 200, 500, 1000, 2000, 4000, 8000}) {
    auto attack = detail::default_successive(params);
    attack.break_in_budget = budget_t;

    core::SuccessiveOptions paper_opts;
    paper_opts.paper_faithful_pool = true;
    core::SuccessiveOptions refined_opts;
    refined_opts.paper_faithful_pool = false;
    const double p_paper =
        core::SuccessiveModel::p_success(design, attack, paper_opts);
    const double p_refined =
        core::SuccessiveModel::p_success(design, attack, refined_opts);
    max_diff = std::max(max_diff, std::fabs(p_paper - p_refined));

    paper_series.xs.push_back(budget_t);
    paper_series.ys.push_back(p_paper);
    refined_series.xs.push_back(budget_t);
    refined_series.ys.push_back(p_refined);
    figure.table.add_row({std::to_string(budget_t), detail::fmt(p_paper),
                          detail::fmt(p_refined),
                          detail::fmt(p_paper - p_refined)});
  }
  figure.series.push_back(std::move(paper_series));
  figure.series.push_back(std::move(refined_series));

  figure.checks.push_back(make_check(
      "the paper's simplified pool bookkeeping is benign (max difference "
      "< 0.05 across the N_T sweep)",
      max_diff < 0.05, "max |difference|: " + detail::fmt(max_diff, 4)));
  figure.notes.push_back(
      "paper pool: Eq. (11) subtracts only SOS break-in attempts from the "
      "random-target pool; refined pool also subtracts attempts that landed "
      "on innocent overlay nodes");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_migration_defense(const Params& params) {
  Figure figure;
  figure.id = "ext_migration";
  figure.title =
      "role-migration defense: reactive repair vs proactive rotation";
  figure.x_label = "per-round rotation probability";
  figure.table = common::Table{{"reactive_rate", "proactive_rate", "P_S_mc",
                                "ci_lo", "ci_hi", "mean_migrated",
                                "mean_sos_broken"}};

  Params mc_params = params;
  mc_params.mc_trials = effective_trials(params, 60);

  const auto design =
      detail::make_design(params, 3, core::MappingPolicy::one_to_five());
  auto attack = detail::default_successive(params);
  attack.break_in_budget = 2000;
  attack.rounds = 4;

  common::Series reactive_series{"reactive only (rate on x)", {}, {}};
  common::Series proactive_series{"reactive 1.0 + proactive (rate on x)",
                                  {},
                                  {}};
  double p_none = 0.0, p_best_proactive = 0.0, p_reactive_only = 0.0;

  const auto measure = [&](const sim::DefenseConfig& config) {
    // Trials run on the pool's threads: an integer sum is exact in any
    // arrival order, so the mean is deterministic at a fixed seed. The SOS
    // break-in mean is the engine's own, reduced in trial order.
    std::atomic<long long> migrated{0};
    const auto mc = sim::run_monte_carlo(
        design,
        [&](sosnet::SosOverlay& overlay, common::Rng& rng) {
          auto outcome = sim::run_successive_attack_with_defense(
              overlay, attack, config, rng);
          migrated += outcome.tally.migrated;
          return outcome.attack;
        },
        detail::mc_config(mc_params));
    const double mean_migrated = static_cast<double>(migrated.load()) /
                                 static_cast<double>(mc.resolved_trials);
    figure.table.add_row({fmt(config.migration_rate, 2),
                          fmt(config.proactive_rate, 2), fmt(mc.p_success),
                          fmt(mc.ci.lo), fmt(mc.ci.hi), fmt(mean_migrated, 1),
                          fmt(mc.mean_broken_sos, 1)});
    return mc.p_success;
  };

  for (const double rate : {0.0, 0.25, 0.5, 1.0}) {
    const double p = measure({.migration_rate = rate});
    reactive_series.xs.push_back(rate);
    reactive_series.ys.push_back(p);
    if (rate == 0.0) p_none = p;
    if (rate == 1.0) p_reactive_only = p;
  }
  for (const double rate : {0.0, 0.25, 0.5, 0.75}) {
    const double p = measure({.migration_rate = 1.0, .proactive_rate = rate});
    proactive_series.xs.push_back(rate);
    proactive_series.ys.push_back(p);
    p_best_proactive = std::max(p_best_proactive, p);
  }
  figure.series.push_back(std::move(reactive_series));
  figure.series.push_back(std::move(proactive_series));

  figure.checks.push_back(make_check(
      "proactive rotation decisively beats purely reactive migration",
      p_best_proactive > p_reactive_only + 0.05,
      "no defense: " + fmt(p_none) + ", reactive 1.0: " +
          fmt(p_reactive_only) + ", best proactive: " +
          fmt(p_best_proactive)));
  figure.notes.push_back(
      "reactive migration only restores layer health; proactive rotation "
      "also invalidates the attacker's pending intelligence, so break-ins "
      "land on retired bystanders and the disclosure cascade starves");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_budget_split(const Params& params) {
  Figure figure;
  figure.id = "ext_budget";
  figure.title =
      "rational attacker: P_S vs break-in share of a fixed budget";
  figure.x_label = "fraction of budget spent on break-ins";
  figure.table = common::Table{{"design", "fraction", "N_T", "N_C", "P_S"}};

  core::AttackBudget budget;
  budget.total = 4000.0;
  budget.break_in_cost = 2.0;
  budget.congestion_cost = 1.0;
  budget.break_in_success = params.p_break;

  struct Entry {
    std::string label;
    core::SosDesign design;
  };
  const std::vector<Entry> designs{
      {"L=1 one-to-all (congestion-optimal)",
       detail::make_design(params, 1, core::MappingPolicy::one_to_all())},
      {"L=3 one-to-all (original SOS)",
       detail::make_design(params, 3, core::MappingPolicy::one_to_all())},
      {"L=4 one-to-two (paper's pick)",
       detail::make_design(params, 4, core::MappingPolicy::one_to_two())},
      {"L=6 one-to-one (break-in-optimal)",
       detail::make_design(params, 6, core::MappingPolicy::one_to_one())},
  };

  std::map<std::string, double> worst_by_design;
  std::map<std::string, std::vector<core::BudgetSplit>> curve_by_design;
  for (const auto& entry : designs) {
    common::Series series{entry.label, {}, {}};
    auto curve = core::BudgetFrontier::sweep(entry.design, budget, 21);
    const double worst = core::BudgetFrontier::worst_case(curve).p_success;
    for (const auto& split : curve) {
      series.xs.push_back(split.fraction);
      series.ys.push_back(split.p_success);
      figure.table.add_row({entry.label, fmt(split.fraction, 2),
                            std::to_string(split.break_in_budget),
                            std::to_string(split.congestion_budget),
                            fmt(split.p_success)});
    }
    worst_by_design[entry.label] = worst;
    curve_by_design[entry.label] = std::move(curve);
    figure.series.push_back(std::move(series));
  }

  const double worst_original =
      worst_by_design.at("L=3 one-to-all (original SOS)");
  const double worst_balanced =
      worst_by_design.at("L=4 one-to-two (paper's pick)");
  figure.checks.push_back(make_check(
      "against the optimal split, the balanced design dominates the "
      "original SOS shape",
      worst_balanced > worst_original + 0.05,
      "worst-case P_S: original " + fmt(worst_original) + ", balanced " +
          fmt(worst_balanced)));
  {
    const auto& curve =
        curve_by_design.at("L=3 one-to-all (original SOS)");
    figure.checks.push_back(make_check(
        "the original SOS survives the all-congestion split but collapses "
        "once budget moves into break-ins",
        curve.front().p_success > 0.99 &&
            worst_original < 0.05,
        "f=0: " + fmt(curve.front().p_success) +
            ", worst: " + fmt(worst_original)));
  }
  figure.notes.push_back(
      "budget: 4000 units, break-in attempt costs 2 units, congesting a "
      "node costs 1; successive attack with R=3, P_E=0.2");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_protocol_semantics(const Params& params) {
  Figure figure;
  figure.id = "ext_protocol";
  figure.title =
      "delivery semantics: paper's dead-end walk vs failover protocol";
  figure.x_label = "congestion budget N_C";
  figure.table = common::Table{{"N_C", "P_S_model", "P_S_commit",
                                "P_S_backtrack", "latency_mean",
                                "latency_p95", "messages_mean"}};

  // Smaller overlay so hundreds of protocol deliveries per point stay
  // cheap; the comparison is within-system, so scale does not matter.
  Params scaled = params;
  scaled.total_overlay = 2000;
  const auto design =
      detail::make_design(scaled, 3, core::MappingPolicy::one_to_two());
  const int trials = std::max(30, effective_trials(params, 60));

  common::Series model_series{"paper model", {}, {}};
  common::Series commit_series{"commit protocol", {}, {}};
  common::Series backtrack_series{"backtracking protocol", {}, {}};

  bool backtrack_dominates = true;
  common::RunningStats latency_light, latency_heavy;
  const std::vector<int> budgets{200, 600, 1000, 1400, 1800};
  for (const int budget_c : budgets) {
    const core::OneBurstAttack attack{0, budget_c, params.p_break};
    const double p_model = core::OneBurstModel::p_success(design, attack);

    const attack::OneBurstAttacker attacker{attack};
    int commit_ok = 0, backtrack_ok = 0, total = 0;
    common::RunningStats latency;
    common::RunningStats messages;
    std::vector<double> latencies;
    for (int trial = 0; trial < trials; ++trial) {
      sosnet::SosOverlay overlay{design,
                                 params.seed + static_cast<std::uint64_t>(
                                                   trial * 131 + budget_c)};
      common::Rng rng{params.seed ^ static_cast<std::uint64_t>(
                                        trial * 977 + budget_c)};
      attacker.execute(overlay, rng);
      sosnet::ProtocolConfig commit;
      commit.backtrack = false;
      const sosnet::ProtocolRouter commit_router{overlay, commit};
      const sosnet::ProtocolRouter backtrack_router{overlay, {}};
      for (int walk = 0; walk < 8; ++walk, ++total) {
        // Paired comparison: both routers replay the same random stream,
        // so they draw identical client contacts and failover orders up to
        // the first point where their behavior genuinely diverges.
        common::Rng commit_rng = rng.fork();
        common::Rng backtrack_rng = commit_rng;
        if (commit_router.deliver(commit_rng).delivered) ++commit_ok;
        const auto outcome = backtrack_router.deliver(backtrack_rng);
        if (outcome.delivered) {
          ++backtrack_ok;
          latency.add(outcome.latency);
          latencies.push_back(outcome.latency);
        }
        messages.add(outcome.messages);
      }
    }
    const double p_commit = static_cast<double>(commit_ok) / total;
    const double p_backtrack = static_cast<double>(backtrack_ok) / total;
    if (p_backtrack + 0.02 < p_commit) backtrack_dominates = false;
    if (budget_c == budgets.front()) latency_light = latency;
    if (budget_c == budgets.back()) latency_heavy = latency;

    model_series.xs.push_back(budget_c);
    model_series.ys.push_back(p_model);
    commit_series.xs.push_back(budget_c);
    commit_series.ys.push_back(p_commit);
    backtrack_series.xs.push_back(budget_c);
    backtrack_series.ys.push_back(p_backtrack);
    figure.table.add_row(
        {std::to_string(budget_c), fmt(p_model), fmt(p_commit),
         fmt(p_backtrack), detail::fmt_mean(latency, 1),
         latencies.empty() ? "-" : fmt(common::quantile(latencies, 0.95), 1),
         fmt(messages.mean(), 1)});
    if (budget_c == 1000 && !latencies.empty()) {
      common::Histogram histogram{0.0, 40.0, 10};
      for (const double value : latencies) histogram.add(value);
      figure.notes.push_back(
          "delivery-latency histogram at NC=1000 (successful backtracking "
          "deliveries):\n" +
          histogram.render(32));
    }
  }
  figure.series.push_back(std::move(model_series));
  figure.series.push_back(std::move(commit_series));
  figure.series.push_back(std::move(backtrack_series));

  figure.checks.push_back(make_check(
      "backtracking delivery dominates the paper's dead-end semantics "
      "(within noise)",
      backtrack_dominates, ""));
  figure.checks.push_back(make_check(
      "resilience is paid in latency: successful deliveries slow down as "
      "congestion grows",
      latency_heavy.mean() > latency_light.mean() + 1.0,
      "mean latency light: " + detail::fmt_mean(latency_light, 1) +
          ", heavy: " + detail::fmt_mean(latency_heavy, 1)));
  figure.notes.push_back(
      "latency units: one overlay hop = 1, retransmission timeout = 4; "
      "N scaled to 2000 for per-delivery simulation cost");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_attack_timeline(const Params& params) {
  Figure figure;
  figure.id = "ext_timeline";
  figure.title = "availability during the campaign (defense comparison)";
  figure.x_label = "time (break-in round = 1 unit; flood at t=4)";
  figure.table = common::Table{{"defense", "time", "availability",
                                "good_members", "congested_filters"}};

  // L=5 so the disclosure cascade cannot reach the filter ring within the
  // four rounds — otherwise every defense ends at P_S ~ 0 and nothing can
  // be compared.
  Params scaled = params;
  scaled.total_overlay = 2000;
  const auto design =
      detail::make_design(scaled, 5, core::MappingPolicy::one_to_five());
  core::SuccessiveAttack attack;
  attack.break_in_budget = 400;
  attack.congestion_budget = 400;
  attack.break_in_success = params.p_break;
  attack.prior_knowledge = 0.2;
  attack.rounds = 4;

  struct Defense {
    std::string label;
    sim::TimelineConfig config;
  };
  std::vector<Defense> defenses(3);
  defenses[0].label = "no defense";
  defenses[1].label = "repair 0.5/round";
  defenses[1].config.defense.repair_rate = 0.5;
  defenses[2].label = "rotation 0.5/round";
  defenses[2].config.defense.migration_rate = 1.0;
  defenses[2].config.defense.proactive_rate = 0.5;

  const int seeds = std::max(8, effective_trials(params, 24) / 3);
  std::map<std::string, double> final_availability;
  for (const auto& defense : defenses) {
    // Average the (piecewise-constant) curves over several campaigns.
    std::map<double, common::RunningStats> by_time;
    std::map<double, common::RunningStats> good_by_time;
    std::map<double, common::RunningStats> filters_by_time;
    for (int seed = 0; seed < seeds; ++seed) {
      sosnet::SosOverlay overlay{design,
                                 params.seed + static_cast<std::uint64_t>(seed)};
      common::Rng rng{params.seed ^ static_cast<std::uint64_t>(seed * 71 + 5)};
      const auto result =
          sim::run_attack_timeline(overlay, attack, defense.config, rng);
      for (const auto& point : result.points) {
        by_time[point.time].add(point.availability);
        good_by_time[point.time].add(point.good_members);
        filters_by_time[point.time].add(point.congested_filters);
      }
    }
    common::Series series{defense.label, {}, {}};
    for (const auto& [time, stats] : by_time) {
      series.xs.push_back(time);
      series.ys.push_back(stats.mean());
      figure.table.add_row({defense.label, fmt(time, 2), fmt(stats.mean()),
                            fmt(good_by_time[time].mean(), 1),
                            fmt(filters_by_time[time].mean(), 2)});
    }
    final_availability[defense.label] = series.ys.back();
    figure.series.push_back(std::move(series));
  }

  figure.checks.push_back(make_check(
      "every curve starts at full availability",
      [&] {
        for (const auto& series : figure.series)
          if (series.ys.front() < 0.999) return false;
        return true;
      }(),
      ""));
  figure.checks.push_back(make_check(
      "rotation ends the campaign with the highest availability",
      final_availability.at("rotation 0.5/round") >=
              final_availability.at("no defense") &&
          final_availability.at("rotation 0.5/round") >=
              final_availability.at("repair 0.5/round") - 0.02,
      "no defense: " + fmt(final_availability.at("no defense")) +
          ", repair: " + fmt(final_availability.at("repair 0.5/round")) +
          ", rotation: " + fmt(final_availability.at("rotation 0.5/round"))));
  figure.notes.push_back(
      "N scaled to 2000, NT=400, NC=400, R=4; availability sampled by 200 "
      "client probes per grid point, averaged over campaigns");
  figure.notes.push_back(
      "emergent finding: plain repair can END BELOW the undefended run. A "
      "repaired node keeps its disclosed identity, so the flood re-targets "
      "it immediately — repair converts the attacker's spent break-in "
      "intelligence into congestion efficiency. Rotation replaces the "
      "identity itself and does not suffer this.");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_hardening_placement(const Params& params) {
  Figure figure;
  figure.id = "ext_hardening";
  figure.title =
      "where to spend intrusion hardening: front vs uniform vs inner layers";
  figure.x_label = "hardening budget (total break-in resistance bought)";
  figure.table = common::Table{
      {"placement", "budget", "factors", "P_S_model"}};

  // A budget of H buys a total reduction of H in the sum of per-layer
  // break-in multipliers (each multiplier stays in [0,1]).
  const int layers = 4;
  const auto base_design =
      detail::make_design(params, layers, core::MappingPolicy::one_to_five());
  auto attack = detail::default_successive(params);
  attack.break_in_budget = 2000;

  const auto evaluate = [&](std::vector<double> factors) {
    auto design = base_design;
    design.hardening = std::move(factors);
    design.validate();
    return core::SuccessiveModel::p_success(design, attack);
  };
  const auto label_factors = [](const std::vector<double>& factors) {
    std::string out;
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (i > 0) out += '/';
      out += fmt(factors[i], 2);
    }
    return out;
  };

  struct Placement {
    std::string label;
    // Returns the factor vector that spends `budget` this way.
    std::vector<double> (*spend)(double, int);
  };
  const std::vector<Placement> placements{
      {"front (outer layers first)",
       [](double budget, int count) {
         std::vector<double> factors(count, 1.0);
         for (int i = 0; i < count && budget > 0.0; ++i) {
           const double spend = std::min(1.0, budget);
           factors[i] = 1.0 - spend;
           budget -= spend;
         }
         return factors;
       }},
      {"uniform",
       [](double budget, int count) {
         return std::vector<double>(count,
                                    std::max(0.0, 1.0 - budget / count));
       }},
      {"inner (layers near the target first)",
       [](double budget, int count) {
         std::vector<double> factors(count, 1.0);
         for (int i = count - 1; i >= 0 && budget > 0.0; --i) {
           const double spend = std::min(1.0, budget);
           factors[i] = 1.0 - spend;
           budget -= spend;
         }
         return factors;
       }},
  };

  std::map<std::string, std::map<double, double>> values;
  for (const auto& placement : placements) {
    common::Series series{placement.label, {}, {}};
    for (const double budget : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}) {
      const auto factors = placement.spend(budget, layers);
      const double p = evaluate(factors);
      series.xs.push_back(budget);
      series.ys.push_back(p);
      values[placement.label][budget] = p;
      figure.table.add_row({placement.label, fmt(budget, 1),
                            label_factors(factors), fmt(p)});
    }
    figure.series.push_back(std::move(series));
  }

  figure.checks.push_back(make_check(
      "hardening never hurts (monotone in budget, every placement)",
      [&] {
        for (const auto& [label, by_budget] : values) {
          double prev = -1.0;
          for (const auto& [budget, p] : by_budget) {
            if (p < prev - 1e-9) return false;
            prev = p;
          }
        }
        return true;
      }(),
      ""));
  {
    const double inner =
        values.at("inner (layers near the target first)").at(1.5);
    const double front = values.at("front (outer layers first)").at(1.5);
    const double uniform = values.at("uniform").at(1.5);
    figure.checks.push_back(make_check(
        "inner-layer hardening dominates at equal budget (cascade damage "
        "concentrates near the target)",
        inner > uniform && inner > front,
        "budget 1.5: inner " + fmt(inner) + ", uniform " + fmt(uniform) +
            ", front " + fmt(front)));
  }
  figure.notes.push_back(
      "defender-side extension of the paper's uniform-P_B model: the "
      "attacker's effective break-in success at layer i is P_B * factor_i; "
      "a budget of H reduces the sum of factors by H");
  return figure;
}

}  // namespace sos::experiments

namespace sos::experiments {

Figure ext_mapping_profile(const Params& params) {
  Figure figure;
  figure.id = "ext_profile";
  figure.title =
      "per-hop mapping profiles: where to place neighbor-table width";
  figure.x_label = "break-in budget N_T";
  figure.table =
      common::Table{{"profile", "degrees", "N_T", "P_S_model"}};

  // Equal total degree budget (12 across the 4 hops of an L=3 design).
  struct Profile {
    std::string label;
    std::vector<int> degrees;
  };
  const std::vector<Profile> profiles{
      {"uniform", {3, 3, 3, 3}},
      {"tapered (wide outer, narrow inner)", {5, 4, 2, 1}},
      {"reversed (narrow outer, wide inner)", {1, 2, 4, 5}},
  };

  const auto make_profiled = [&](const std::vector<int>& degrees) {
    auto design =
        detail::make_design(params, 3, core::MappingPolicy::one_to_two());
    design.mapping_profile.clear();
    for (const int degree : degrees)
      design.mapping_profile.push_back(core::MappingPolicy::fixed(degree));
    design.validate();
    return design;
  };

  std::map<std::string, std::map<int, double>> values;
  for (const auto& profile : profiles) {
    const auto design = make_profiled(profile.degrees);
    common::Series series{profile.label, {}, {}};
    std::string degree_text;
    for (std::size_t i = 0; i < profile.degrees.size(); ++i) {
      if (i > 0) degree_text += '/';
      degree_text += std::to_string(profile.degrees[i]);
    }
    for (const int budget_t : {0, 200, 500, 1000, 2000, 4000}) {
      auto attack = detail::default_successive(params);
      attack.break_in_budget = budget_t;
      const double p = core::SuccessiveModel::p_success(design, attack);
      series.xs.push_back(budget_t);
      series.ys.push_back(p);
      values[profile.label][budget_t] = p;
      figure.table.add_row({profile.label, degree_text,
                            std::to_string(budget_t), fmt(p)});
    }
    figure.series.push_back(std::move(series));
  }

  {
    const double tapered =
        values.at("tapered (wide outer, narrow inner)").at(2000);
    const double uniform = values.at("uniform").at(2000);
    const double reversed =
        values.at("reversed (narrow outer, wide inner)").at(2000);
    figure.checks.push_back(make_check(
        "at equal total degree, tapering width toward the target dominates "
        "(NT=2000)",
        tapered > uniform && uniform > reversed,
        "tapered " + fmt(tapered) + " > uniform " + fmt(uniform) +
            " > reversed " + fmt(reversed)));
  }
  {
    bool always = true;
    for (const int budget_t : {200, 500, 1000, 2000, 4000})
      if (values.at("tapered (wide outer, narrow inner)").at(budget_t) <
          values.at("uniform").at(budget_t))
        always = false;
    figure.checks.push_back(make_check(
        "the tapered profile dominates uniform across the whole break-in "
        "sweep",
        always, ""));
  }
  figure.notes.push_back(
      "design insight beyond the paper's uniform m_i: disclosure near the "
      "target is fatal (a captured Layer-L node reveals filters), so that "
      "is where tables must be narrow; outer hops can buy availability "
      "cheaply because their disclosures are survivable");
  return figure;
}

}  // namespace sos::experiments
