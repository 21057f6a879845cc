// Figure 4: sensitivity of P_S to L and the mapping degree under the
// one-burst attack. (a) pure congestion (N_T = 0) at N_C in {2000, 6000};
// (b) N_C = 2000 with break-in budgets N_T in {200, 2000}.
#include <algorithm>
#include <map>

#include "experiments/detail.h"
#include "experiments/figures.h"

namespace sos::experiments {

namespace {

using detail::fmt;

const std::vector<core::MappingPolicy>& fig4_mappings() {
  static const std::vector<core::MappingPolicy> mappings{
      core::MappingPolicy::one_to_one(), core::MappingPolicy::one_to_half(),
      core::MappingPolicy::one_to_all()};
  return mappings;
}

constexpr int kMaxLayers = 8;

struct CurveKey {
  int intensity;            // N_C for (a), N_T for (b)
  std::string mapping;
  friend bool operator<(const CurveKey& a, const CurveKey& b) {
    if (a.intensity != b.intensity) return a.intensity < b.intensity;
    return a.mapping < b.mapping;
  }
};

}  // namespace

Figure fig4a(const Params& params) {
  Figure figure;
  figure.id = "fig4a";
  figure.title = "P_S vs L, one-burst, pure congestion (N_T=0)";
  figure.x_label = "number of layers L";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"N_C", "mapping", "L", "P_S_model"};
  if (with_mc) {
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  }
  figure.table = common::Table{headers};

  std::map<CurveKey, common::Series> curves;
  std::map<CurveKey, std::map<int, double>> model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const int budget_c : {2000, 6000}) {
    for (const auto& mapping : fig4_mappings()) {
      const CurveKey key{budget_c, mapping.label()};
      auto& series = curves[key];
      series.label = "NC=" + std::to_string(budget_c) + " " + mapping.label();
      for (int layers = 1; layers <= kMaxLayers; ++layers) {
        const auto design = detail::make_design(params, layers, mapping);
        const core::OneBurstAttack attack{0, budget_c, params.p_break};
        const double p_model = core::OneBurstModel::p_success(design, attack);
        series.xs.push_back(layers);
        series.ys.push_back(p_model);
        model_values[key][layers] = p_model;
        detail::DeferredRow row{{std::to_string(budget_c), mapping.label(),
                                 std::to_string(layers), fmt(p_model)},
                                -1};
        if (with_mc) row.mc = batch.add(design, attack);
        rows.push_back(std::move(row));
      }
    }
  }
  detail::emit_rows(figure.table, batch, rows);
  for (auto& [key, series] : curves) figure.series.push_back(std::move(series));

  // Paper claims for Fig. 4(a).
  const auto value = [&](int intensity, const char* mapping, int layers) {
    return model_values.at(CurveKey{intensity, mapping}).at(layers);
  };
  {
    const double l1 = value(2000, "one-to-one", 1);
    const double l8 = value(2000, "one-to-one", 8);
    figure.checks.push_back(make_check(
        "under pure congestion P_S decreases as L grows (one-to-one)",
        l1 > l8, "L=1: " + fmt(l1) + ", L=8: " + fmt(l8)));
  }
  {
    const double p_one = value(6000, "one-to-one", 3);
    const double p_half = value(6000, "one-to-half", 3);
    const double p_all = value(6000, "one-to-all", 3);
    figure.checks.push_back(make_check(
        "higher mapping degree increases P_S without break-ins (L=3, NC=6000)",
        p_one < p_half && p_half <= p_all,
        "one: " + fmt(p_one) + ", half: " + fmt(p_half) +
            ", all: " + fmt(p_all)));
  }
  {
    bool pointwise = true;
    for (const auto& mapping : fig4_mappings()) {
      for (int layers = 1; layers <= kMaxLayers; ++layers) {
        if (value(6000, mapping.label().c_str(), layers) >
            value(2000, mapping.label().c_str(), layers) + 1e-9)
          pointwise = false;
      }
    }
    figure.checks.push_back(make_check(
        "increasing N_C decreases P_S (pointwise 6000 vs 2000)", pointwise,
        ""));
  }
  figure.notes.push_back(
      "the average-case model reports P_S = 1 for one-to-all/one-to-half "
      "whenever the mean congested count stays below the mapping degree; "
      "bench/ext_exact_vs_average quantifies the fluctuation effect the "
      "mean hides");
  return figure;
}

Figure fig4b(const Params& params) {
  Figure figure;
  figure.id = "fig4b";
  figure.title = "P_S vs L, one-burst with break-ins (N_C=2000)";
  figure.x_label = "number of layers L";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"N_T", "mapping", "L", "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  std::map<CurveKey, common::Series> curves;
  std::map<CurveKey, std::map<int, double>> model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const int budget_t : {200, 2000}) {
    for (const auto& mapping : fig4_mappings()) {
      const CurveKey key{budget_t, mapping.label()};
      auto& series = curves[key];
      series.label = "NT=" + std::to_string(budget_t) + " " + mapping.label();
      for (int layers = 1; layers <= kMaxLayers; ++layers) {
        const auto design = detail::make_design(params, layers, mapping);
        const core::OneBurstAttack attack{budget_t, 2000, params.p_break};
        const double p_model = core::OneBurstModel::p_success(design, attack);
        series.xs.push_back(layers);
        series.ys.push_back(p_model);
        model_values[key][layers] = p_model;
        detail::DeferredRow row{{std::to_string(budget_t), mapping.label(),
                                 std::to_string(layers), fmt(p_model)},
                                -1};
        if (with_mc) row.mc = batch.add(design, attack);
        rows.push_back(std::move(row));
      }
    }
  }
  detail::emit_rows(figure.table, batch, rows);
  for (auto& [key, series] : curves) figure.series.push_back(std::move(series));

  const auto value = [&](int intensity, const char* mapping, int layers) {
    return model_values.at(CurveKey{intensity, mapping}).at(layers);
  };
  {
    double worst = 0.0;
    for (int layers = 1; layers <= kMaxLayers; ++layers)
      worst = std::max(worst, value(2000, "one-to-all", layers));
    figure.checks.push_back(make_check(
        "one-to-all collapses (P_S ~ 0) under heavy break-in (NT=2000)",
        worst < 1e-3, "max over L: " + fmt(worst, 6)));
  }
  {
    const double p_one = value(2000, "one-to-one", 3);
    const double p_all = value(2000, "one-to-all", 3);
    figure.checks.push_back(make_check(
        "under heavy break-in a high mapping degree is harmful (L=3)",
        p_one > p_all, "one: " + fmt(p_one) + ", all: " + fmt(p_all)));
  }
  {
    bool pointwise = true;
    for (const auto& mapping : fig4_mappings())
      for (int layers = 1; layers <= kMaxLayers; ++layers)
        if (value(2000, mapping.label().c_str(), layers) >
            value(200, mapping.label().c_str(), layers) + 1e-9)
          pointwise = false;
    figure.checks.push_back(make_check(
        "increasing N_T decreases P_S (pointwise 2000 vs 200)", pointwise,
        ""));
  }
  {
    const double shallow = value(2000, "one-to-half", 2);
    const double deep = value(2000, "one-to-half", 6);
    figure.checks.push_back(make_check(
        "more layers improve resilience to break-ins (one-to-half)",
        deep > shallow, "L=2: " + fmt(shallow) + ", L=6: " + fmt(deep)));
  }
  return figure;
}

}  // namespace sos::experiments
