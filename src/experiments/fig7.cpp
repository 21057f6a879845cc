// Figure 7: sensitivity of P_S to the number of break-in rounds R under
// different layer counts (mapping one-to-five, even distribution).
#include <cmath>
#include <map>

#include "experiments/detail.h"
#include "experiments/figures.h"

namespace sos::experiments {

namespace {
using detail::fmt;
constexpr int kMaxRounds = 10;
}  // namespace

Figure fig7(const Params& params) {
  Figure figure;
  figure.id = "fig7";
  figure.title = "P_S vs R under different L (one-to-five, NT=200 NC=2000)";
  figure.x_label = "break-in rounds R";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"L", "R", "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  const auto mapping = core::MappingPolicy::one_to_five();
  std::map<int, std::map<int, double>> model_values;  // [L][R]
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const int layers : {2, 3, 4, 5}) {
    const auto design = detail::make_design(params, layers, mapping);
    common::Series series;
    series.label = "L=" + std::to_string(layers);
    for (int rounds = 1; rounds <= kMaxRounds; ++rounds) {
      auto attack = detail::default_successive(params);
      attack.rounds = rounds;
      const double p_model = core::SuccessiveModel::p_success(design, attack);
      series.xs.push_back(rounds);
      series.ys.push_back(p_model);
      model_values[layers][rounds] = p_model;
      detail::DeferredRow row{
          {std::to_string(layers), std::to_string(rounds), fmt(p_model)}, -1};
      if (with_mc) row.mc = batch.add(design, attack);
      rows.push_back(std::move(row));
    }
    figure.series.push_back(std::move(series));
  }
  detail::emit_rows(figure.table, batch, rows);

  {
    bool monotone = true;
    for (const auto& [layers, by_r] : model_values) {
      double prev = 2.0;
      for (const auto& [rounds, p] : by_r) {
        if (p > prev + 1e-9) monotone = false;
        prev = p;
      }
    }
    figure.checks.push_back(
        make_check("P_S decreases as R increases (every L)", monotone, ""));
  }
  {
    const auto drop = [&](int layers) {
      return model_values[layers][1] - model_values[layers][3];
    };
    figure.checks.push_back(make_check(
        "larger L is less sensitive to R (drop R=1 to R=3)",
        drop(3) > drop(5),
        "L=3 drop: " + fmt(drop(3)) + ", L=5 drop: " + fmt(drop(5))));
  }
  {
    // Collapse happens once the disclosure cascade reaches the filters,
    // i.e. around R = L; below that point deep layering dominates. (Past
    // collapse every curve sits within noise of zero, hence the tolerance.)
    bool deeper_wins = true;
    for (int rounds = 1; rounds <= kMaxRounds; ++rounds)
      if (model_values[5][rounds] < model_values[2][rounds] - 0.01)
        deeper_wins = false;
    figure.checks.push_back(make_check(
        "more layers provide more protection at every R (L=5 vs L=2, "
        "tolerance 0.01)",
        deeper_wins,
        "at R=3: L=2 " + fmt(model_values[2][3]) + " vs L=5 " +
            fmt(model_values[5][3])));
  }
  return figure;
}

}  // namespace sos::experiments
