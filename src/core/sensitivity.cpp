#include "core/sensitivity.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/successive_model.h"

namespace sos::core {

namespace {

int bump_10_percent(int value) {
  return value + std::max(1, value / 10);
}

}  // namespace

const SensitivityEntry* SensitivityReport::best_design_move() const {
  const SensitivityEntry* best = nullptr;
  for (const auto& entry : design_moves)
    if (entry.delta > 0.0 && (best == nullptr || entry.delta > best->delta))
      best = &entry;
  return best;
}

const SensitivityEntry* SensitivityReport::worst_attack_knob() const {
  const SensitivityEntry* worst = nullptr;
  for (const auto& entry : attack_knobs)
    if (worst == nullptr || entry.delta < worst->delta) worst = &entry;
  return worst;
}

SensitivityReport analyze_sensitivity(const SosDesign& design,
                                      const SuccessiveAttack& attack,
                                      const NodeDistribution& distribution) {
  // One evaluator serves the operating point and every attack knob; each
  // design move evaluates the base attack against its own design.
  SuccessiveEvaluator evaluator{design};
  attack.validate(design.total_overlay_nodes);

  SensitivityReport report;
  report.base = evaluator.p_success(attack);
  const auto add = [&](std::vector<SensitivityEntry>& entries,
                       std::string label, double perturbed) {
    entries.push_back(
        {std::move(label), report.base, perturbed, perturbed - report.base});
  };
  const auto add_attack = [&](std::string label,
                              const SuccessiveAttack& variant) {
    add(report.attack_knobs, std::move(label), evaluator.p_success(variant));
  };

  {
    auto variant = attack;
    variant.break_in_budget = std::min(design.total_overlay_nodes,
                                       bump_10_percent(attack.break_in_budget));
    add_attack("N_T +10%", variant);
  }
  {
    auto variant = attack;
    variant.congestion_budget = std::min(
        design.total_overlay_nodes, bump_10_percent(attack.congestion_budget));
    add_attack("N_C +10%", variant);
  }
  {
    auto variant = attack;
    variant.break_in_success =
        std::min(1.0, attack.break_in_success * 1.1 + 1e-3);
    add_attack("P_B +10%", variant);
  }
  {
    auto variant = attack;
    variant.prior_knowledge =
        std::min(1.0, attack.prior_knowledge * 1.1 + 1e-3);
    add_attack("P_E +10%", variant);
  }
  {
    auto variant = attack;
    variant.rounds = attack.rounds + 1;
    add_attack("R +1", variant);
  }

  const auto add_design = [&](std::string label, const SosDesign& variant) {
    add(report.design_moves, std::move(label),
        SuccessiveEvaluator{variant}.p_success(attack));
  };

  const int layers = design.layers();
  const int sos_nodes = design.sos_node_count();
  const auto rebuild = [&](int new_layers, MappingPolicy mapping,
                           const NodeDistribution& dist) {
    return SosDesign::make(design.total_overlay_nodes, sos_nodes, new_layers,
                           design.filter_count, mapping, dist);
  };

  if (layers > 1)
    add_design("L -> " + std::to_string(layers - 1),
               rebuild(layers - 1, design.mapping, distribution));
  if (sos_nodes >= layers + 1)
    add_design("L -> " + std::to_string(layers + 1),
               rebuild(layers + 1, design.mapping, distribution));

  // One-notch mapping moves: the nearest named policies around the current
  // first-layer degree.
  const int degree = design.degree_into(1);
  if (degree > 1)
    add_design("mapping -> fixed " + std::to_string(degree - 1),
               rebuild(layers, MappingPolicy::fixed(degree - 1), distribution));
  add_design("mapping -> fixed " + std::to_string(degree + 1),
             rebuild(layers, MappingPolicy::fixed(degree + 1), distribution));

  for (const auto& dist :
       {NodeDistribution::even(), NodeDistribution::increasing(),
        NodeDistribution::decreasing()}) {
    if (dist.label() == distribution.label() || layers == 1) continue;
    add_design("distribution -> " + dist.label(),
               rebuild(layers, design.mapping, dist));
  }

  return report;
}

}  // namespace sos::core
