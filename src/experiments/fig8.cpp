// Figure 8: sensitivity of P_S to the break-in budget N_T.
// (a) under different overlay sizes N and mapping degrees (L = 3);
// (b) under different layer counts and mapping degrees (N = 10000).
#include <map>

#include "experiments/detail.h"
#include "experiments/figures.h"

namespace sos::experiments {

namespace {

using detail::fmt;

const std::vector<int>& nt_sweep() {
  static const std::vector<int> budgets{0,    200,  400,  800,  1200,
                                        1600, 2000, 2800, 3600, 4000};
  return budgets;
}

core::SuccessiveAttack attack_with_nt(const Params& params, int budget_t) {
  auto attack = detail::default_successive(params);
  attack.break_in_budget = budget_t;
  return attack;
}

}  // namespace

Figure fig8a(const Params& params) {
  Figure figure;
  figure.id = "fig8a";
  figure.title = "P_S vs N_T under different N and mapping (L=3)";
  figure.x_label = "break-in budget N_T";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"N", "mapping", "N_T", "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  const std::vector<core::MappingPolicy> mappings{
      core::MappingPolicy::one_to_two(), core::MappingPolicy::one_to_five()};
  // [N][mapping][NT]
  std::map<int, std::map<std::string, std::map<int, double>>> model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const int total : {10000, 20000}) {
    for (const auto& mapping : mappings) {
      Params scaled = params;
      scaled.total_overlay = total;
      const auto design = detail::make_design(scaled, 3, mapping);
      common::Series series;
      series.label = "N=" + std::to_string(total) + " " + mapping.label();
      for (const int budget_t : nt_sweep()) {
        const auto attack = attack_with_nt(params, budget_t);
        const double p_model =
            core::SuccessiveModel::p_success(design, attack);
        series.xs.push_back(budget_t);
        series.ys.push_back(p_model);
        model_values[total][mapping.label()][budget_t] = p_model;
        detail::DeferredRow row{{std::to_string(total), mapping.label(),
                                 std::to_string(budget_t), fmt(p_model)},
                                -1};
        if (with_mc) row.mc = batch.add(design, attack);
        rows.push_back(std::move(row));
      }
      figure.series.push_back(std::move(series));
    }
  }
  detail::emit_rows(figure.table, batch, rows);

  {
    bool monotone = true;
    for (const auto& [total, by_mapping] : model_values)
      for (const auto& [mapping, by_nt] : by_mapping) {
        double prev = 2.0;
        for (const auto& [budget_t, p] : by_nt) {
          if (p > prev + 1e-9) monotone = false;
          prev = p;
        }
      }
    figure.checks.push_back(make_check(
        "larger N_T gives smaller P_S (every curve)", monotone, ""));
  }
  {
    bool dilution = true;
    for (const auto& mapping : mappings)
      for (const int budget_t : nt_sweep())
        if (model_values[20000][mapping.label()][budget_t] <
            model_values[10000][mapping.label()][budget_t] - 1e-9)
          dilution = false;
    figure.checks.push_back(make_check(
        "a larger overlay (N=20000) improves P_S pointwise", dilution, ""));
  }
  {
    // The paper's "stable part": once the disclosure-driven transition has
    // happened (at small N_T, powered by P_E and the round cascade), extra
    // break-in budget only adds slow random attrition, so the curve is much
    // flatter than at the transition.
    const auto& two = model_values[20000]["one-to-two"];
    const double transition = two.at(0) - two.at(400);
    const double mid = two.at(400) - two.at(1600);
    const auto& five = model_values[20000]["one-to-five"];
    const double plateau = five.at(200) - five.at(4000);
    figure.checks.push_back(make_check(
        "curves show a disclosure transition followed by a much flatter "
        "stable region (N=20000)",
        transition > 1.5 * mid && plateau < 0.01,
        "one-to-two drop(0->400): " + fmt(transition) +
            " vs drop(400->1600): " + fmt(mid) +
            "; one-to-five drop(200->4000): " + fmt(plateau)));
  }
  return figure;
}

Figure fig8b(const Params& params) {
  Figure figure;
  figure.id = "fig8b";
  figure.title = "P_S vs N_T under different L and mapping (N=10000)";
  figure.x_label = "break-in budget N_T";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"L", "mapping", "N_T", "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  const std::vector<core::MappingPolicy> mappings{
      core::MappingPolicy::one_to_two(), core::MappingPolicy::one_to_five()};
  std::map<int, std::map<std::string, std::map<int, double>>> model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const int layers : {3, 5}) {
    for (const auto& mapping : mappings) {
      const auto design = detail::make_design(params, layers, mapping);
      common::Series series;
      series.label = "L=" + std::to_string(layers) + " " + mapping.label();
      for (const int budget_t : nt_sweep()) {
        const auto attack = attack_with_nt(params, budget_t);
        const double p_model =
            core::SuccessiveModel::p_success(design, attack);
        series.xs.push_back(budget_t);
        series.ys.push_back(p_model);
        model_values[layers][mapping.label()][budget_t] = p_model;
        detail::DeferredRow row{{std::to_string(layers), mapping.label(),
                                 std::to_string(budget_t), fmt(p_model)},
                                -1};
        if (with_mc) row.mc = batch.add(design, attack);
        rows.push_back(std::move(row));
      }
      figure.series.push_back(std::move(series));
    }
  }
  detail::emit_rows(figure.table, batch, rows);

  {
    bool monotone = true;
    for (const auto& [layers, by_mapping] : model_values)
      for (const auto& [mapping, by_nt] : by_mapping) {
        double prev = 2.0;
        for (const auto& [budget_t, p] : by_nt) {
          if (p > prev + 1e-9) monotone = false;
          prev = p;
        }
      }
    figure.checks.push_back(make_check(
        "larger N_T gives smaller P_S (every curve)", monotone, ""));
  }
  {
    // Higher mapping degree = more sensitivity to N_T (L=5 curves).
    const double drop_two = model_values[5]["one-to-two"].at(0) -
                            model_values[5]["one-to-two"].at(2000);
    const double drop_five = model_values[5]["one-to-five"].at(0) -
                             model_values[5]["one-to-five"].at(2000);
    figure.checks.push_back(make_check(
        "higher mapping degrees are more sensitive to N_T (L=5)",
        drop_five > drop_two,
        "one-to-five drop: " + fmt(drop_five) +
            ", one-to-two drop: " + fmt(drop_two)));
  }
  {
    bool deeper_wins = true;
    for (const int budget_t : nt_sweep())
      if (model_values[5]["one-to-five"].at(budget_t) <
          model_values[3]["one-to-five"].at(budget_t) - 1e-9)
        deeper_wins = false;
    figure.checks.push_back(make_check(
        "more layers keep P_S higher across the N_T sweep (one-to-five)",
        deeper_wins, ""));
  }
  return figure;
}

}  // namespace sos::experiments
