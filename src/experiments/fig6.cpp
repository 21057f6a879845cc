// Figure 6: successive attack at the Section 3.2.3 defaults
// (N_T=200, N_C=2000, R=3, P_B=0.5, P_E=0.2).
// (a) P_S vs L for five mapping degrees; (b) node-distribution sweep.
#include <algorithm>
#include <cmath>
#include <map>

#include "experiments/detail.h"
#include "experiments/figures.h"

namespace sos::experiments {

namespace {

using detail::fmt;

const std::vector<core::MappingPolicy>& fig6_mappings() {
  static const std::vector<core::MappingPolicy> mappings{
      core::MappingPolicy::one_to_one(), core::MappingPolicy::one_to_two(),
      core::MappingPolicy::one_to_five(), core::MappingPolicy::one_to_half(),
      core::MappingPolicy::one_to_all()};
  return mappings;
}

constexpr int kMaxLayers = 8;

}  // namespace

Figure fig6a(const Params& params) {
  Figure figure;
  figure.id = "fig6a";
  figure.title = "P_S vs L, successive attack (NT=200 NC=2000 R=3 PE=0.2)";
  figure.x_label = "number of layers L";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"mapping", "L", "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  const auto attack = detail::default_successive(params);

  double best = -1.0;
  std::string best_label;
  std::map<std::string, std::map<int, double>> model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const auto& mapping : fig6_mappings()) {
    common::Series series;
    series.label = mapping.label();
    for (int layers = 1; layers <= kMaxLayers; ++layers) {
      const auto design = detail::make_design(params, layers, mapping);
      const double p_model = core::SuccessiveModel::p_success(design, attack);
      series.xs.push_back(layers);
      series.ys.push_back(p_model);
      model_values[mapping.label()][layers] = p_model;
      if (p_model > best) {
        best = p_model;
        best_label = mapping.label() + " L=" + std::to_string(layers);
      }
      detail::DeferredRow row{
          {mapping.label(), std::to_string(layers), fmt(p_model)}, -1};
      if (with_mc) row.mc = batch.add(design, attack);
      rows.push_back(std::move(row));
    }
    figure.series.push_back(std::move(series));
  }
  detail::emit_rows(figure.table, batch, rows);

  figure.checks.push_back(make_check(
      "P_S is sensitive to both L and the mapping degree under the "
      "successive attack",
      [&] {
        double lo = 2.0, hi = -1.0;
        for (const auto& [label, by_l] : model_values)
          for (const auto& [layers, p] : by_l) {
            lo = std::min(lo, p);
            hi = std::max(hi, p);
          }
        return hi - lo > 0.5;
      }(),
      "best configuration: " + best_label + " with P_S=" + fmt(best)));
  {
    // Paper: "the one with L=4 and mapping degree one-to-two provides the
    // best overall performance" among its plotted configurations.
    const double best_12 = model_values["one-to-two"][4];
    bool beats_others = true;
    for (const auto& mapping : fig6_mappings()) {
      for (int layers = 1; layers <= kMaxLayers; ++layers) {
        if (mapping.label() == "one-to-two" && layers == 4) continue;
        // Allow small-degree tie-breaking noise at +2%.
        if (model_values[mapping.label()][layers] > best_12 + 0.02)
          beats_others = false;
      }
    }
    figure.checks.push_back(make_check(
        "L=4 with one-to-two mapping is (near-)optimal among the plotted "
        "configurations",
        beats_others, "P_S(L=4, one-to-two)=" + fmt(best_12)));
  }
  return figure;
}

Figure fig6b(const Params& params) {
  Figure figure;
  figure.id = "fig6b";
  figure.title = "P_S vs node distribution, successive attack";
  figure.x_label = "number of layers L";

  const bool with_mc = params.mc_trials > 0;
  std::vector<std::string> headers{"distribution", "mapping", "L",
                                   "P_S_model"};
  if (with_mc)
    headers.insert(headers.end(), {"P_S_mc", "mc_ci_lo", "mc_ci_hi"});
  figure.table = common::Table{headers};

  const auto attack = detail::default_successive(params);
  const std::vector<core::NodeDistribution> distributions{
      core::NodeDistribution::even(), core::NodeDistribution::increasing(),
      core::NodeDistribution::decreasing()};
  const std::vector<core::MappingPolicy> mappings{
      core::MappingPolicy::one_to_two(), core::MappingPolicy::one_to_five()};

  // model_values[mapping][distribution][L]
  std::map<std::string, std::map<std::string, std::map<int, double>>>
      model_values;
  detail::McBatch batch{params};
  std::vector<detail::DeferredRow> rows;

  for (const auto& mapping : mappings) {
    for (const auto& dist : distributions) {
      common::Series series;
      series.label = dist.label() + " " + mapping.label();
      for (int layers = 2; layers <= kMaxLayers; ++layers) {
        const auto design =
            detail::make_design(params, layers, mapping, dist);
        const double p_model =
            core::SuccessiveModel::p_success(design, attack);
        series.xs.push_back(layers);
        series.ys.push_back(p_model);
        model_values[mapping.label()][dist.label()][layers] = p_model;
        detail::DeferredRow row{{dist.label(), mapping.label(),
                                 std::to_string(layers), fmt(p_model)},
                                -1};
        if (with_mc) row.mc = batch.add(design, attack);
        rows.push_back(std::move(row));
      }
      figure.series.push_back(std::move(series));
    }
  }
  detail::emit_rows(figure.table, batch, rows);

  {
    const auto& by_dist = model_values["one-to-five"];
    const double inc = by_dist.at("increasing").at(4);
    const double even = by_dist.at("even").at(4);
    const double dec = by_dist.at("decreasing").at(4);
    figure.checks.push_back(make_check(
        "increasing node distribution performs best (one-to-five, L=4)",
        inc > even && even > dec,
        "inc: " + fmt(inc) + ", even: " + fmt(even) + ", dec: " + fmt(dec)));
  }
  {
    const auto spread = [&](const char* mapping, int layers) {
      const auto& by_dist = model_values[mapping];
      const double inc = by_dist.at("increasing").at(layers);
      const double dec = by_dist.at("decreasing").at(layers);
      return std::fabs(inc - dec);
    };
    figure.checks.push_back(make_check(
        "sensitivity to the distribution is larger at the higher mapping "
        "degree (L=4)",
        spread("one-to-five", 4) > spread("one-to-two", 4),
        "one-to-five spread: " + fmt(spread("one-to-five", 4)) +
            ", one-to-two spread: " + fmt(spread("one-to-two", 4))));
  }
  {
    const auto spread5 = [&](int layers) {
      const auto& by_dist = model_values["one-to-five"];
      return std::fabs(by_dist.at("increasing").at(layers) -
                       by_dist.at("decreasing").at(layers));
    };
    figure.checks.push_back(make_check(
        "sensitivity to the distribution shrinks as L grows (one-to-five)",
        spread5(4) > spread5(7),
        "L=4 spread: " + fmt(spread5(4)) + ", L=7 spread: " + fmt(spread5(7))));
  }
  return figure;
}

}  // namespace sos::experiments
