#include "core/exact_models.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/mathx.h"

namespace sos::core {

using common::clamp01;
using common::log_binomial;

double ExactRandomCongestionModel::p_success(const SosDesign& design,
                                             int congestion_budget) {
  thread_local Workspace workspace;
  thread_local std::vector<int> budgets(1);
  thread_local std::vector<double> out(1);
  budgets[0] = congestion_budget;
  p_success_curve(design, budgets, out, workspace);
  return out[0];
}

std::vector<double> ExactRandomCongestionModel::p_success_curve(
    const SosDesign& design, const std::vector<int>& budgets) {
  Workspace workspace;
  std::vector<double> out;
  p_success_curve(design, budgets, out, workspace);
  return out;
}

void ExactRandomCongestionModel::p_success_curve(const SosDesign& design,
                                                 const std::vector<int>& budgets,
                                                 std::vector<double>& out,
                                                 Workspace& workspace) {
  design.validate();
  const int big_n = design.total_overlay_nodes;
  for (int budget : budgets)
    if (budget < 0 || budget > big_n)
      throw std::invalid_argument(
          "ExactRandomCongestionModel: N_C out of range");

  const int layers = design.layers();
  const int sos = design.sos_node_count();
  const int innocents = big_n - sos;

  // W_i(s) = sum over (c_1..c_i) with sum c = s of
  //          prod_{t<=i} C(n_t, c_t) * (1 - C(c_t, m_t)/C(n_t, m_t)).
  // Magnitudes stay below C(n, s) <= 2^n, safe in double for n ~ few hundred.
  // The whole DP is independent of the congestion budget.
  auto& weights = workspace.weights;
  auto& next = workspace.next;
  auto& factor = workspace.factor;
  weights.assign(1, 1.0);
  for (int i = 1; i <= layers; ++i) {
    const int size = design.layer_size(i);
    const int degree = design.degree_into(i);
    // Per-congested-count weight for this layer, hoisted out of the (s, c)
    // double loop: factor[c] = C(size, c) * (1 - P(size, c, degree)), with
    // the P sweep evaluated incrementally in O(size) total.
    factor.assign(static_cast<std::size_t>(size) + 1, 0.0);
    common::SubsetProbSweep blocked(static_cast<double>(size), degree);
    for (int c = 0; c <= size; ++c) {
      const double good_hop = 1.0 - blocked.value();
      if (good_hop != 0.0)
        factor[static_cast<std::size_t>(c)] =
            std::exp(log_binomial(size, c)) * good_hop;
      if (c < size) blocked.advance();
    }
    next.assign(weights.size() + static_cast<std::size_t>(size), 0.0);
    for (std::size_t s = 0; s < weights.size(); ++s) {
      if (weights[s] == 0.0) continue;
      for (int c = 0; c <= size; ++c) {
        const double f = factor[static_cast<std::size_t>(c)];
        if (f == 0.0) continue;
        next[s + static_cast<std::size_t>(c)] += weights[s] * f;
      }
    }
    std::swap(weights, next);
  }

  // Mixing step: O(S) per budget against the shared weights. The
  // hypergeometric tail term C(I, B-s) / C(N, B) is advanced with the exact
  // ratio C(I, o-1)/C(I, o) = o / (I-o+1), so each budget pays a single exp
  // instead of one per reachable state; the term never exceeds 1 by
  // Vandermonde, so the running product cannot overflow.
  out.resize(budgets.size());
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const int congestion_budget = budgets[b];
    const double log_total = log_binomial(big_n, congestion_budget);
    const int s_begin = std::max(0, congestion_budget - innocents);
    const int s_end =
        std::min(static_cast<int>(weights.size()) - 1, congestion_budget);
    double p_success = 0.0;
    if (s_begin <= s_end) {
      double term = std::exp(
          log_binomial(innocents, congestion_budget - s_begin) - log_total);
      for (int s = s_begin;; ++s) {
        p_success += weights[static_cast<std::size_t>(s)] * term;
        if (s == s_end) break;
        const int outside = congestion_budget - s;
        term *= static_cast<double>(outside) /
                static_cast<double>(innocents - outside + 1);
      }
    }
    out[b] = clamp01(p_success);
  }
}

double OriginalSosModel::p_success(const SosDesign& design,
                                   int congestion_budget) {
  thread_local Workspace workspace;
  thread_local std::vector<int> budgets(1);
  thread_local std::vector<double> out(1);
  budgets[0] = congestion_budget;
  p_success_curve(design, budgets, out, workspace);
  return out[0];
}

void OriginalSosModel::p_success_curve(const SosDesign& design,
                                       const std::vector<int>& budgets,
                                       std::vector<double>& out,
                                       Workspace& workspace) {
  design.validate();
  if (!(design.mapping == MappingPolicy::one_to_all()))
    throw std::invalid_argument(
        "OriginalSosModel: requires one-to-all mapping");
  const int big_n = design.total_overlay_nodes;
  for (int budget : budgets)
    if (budget < 0 || budget > big_n)
      throw std::invalid_argument("OriginalSosModel: N_C out of range");
  const int layers = design.layers();
  if (layers > 20)
    throw std::invalid_argument("OriginalSosModel: L too large for 2^L sum");

  // Subset sizes and inclusion-exclusion signs depend only on the design;
  // compute them once for the whole budget batch.
  const std::size_t masks = (std::size_t{1} << layers) - 1;
  auto& mask_nodes = workspace.mask_nodes;
  auto& mask_sign = workspace.mask_sign;
  mask_nodes.resize(masks);
  mask_sign.resize(masks);
  for (unsigned mask = 1; mask <= masks; ++mask) {
    int nodes_in_subset = 0;
    int bits = 0;
    for (int i = 0; i < layers; ++i) {
      if (mask & (1u << i)) {
        nodes_in_subset += design.layer_size(i + 1);
        ++bits;
      }
    }
    mask_nodes[mask - 1] = nodes_in_subset;
    mask_sign[mask - 1] = (bits % 2 == 1) ? 1.0 : -1.0;
  }

  // Inclusion-exclusion over "layer entirely congested" events, per budget.
  out.resize(budgets.size());
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const int congestion_budget = budgets[b];
    const double log_total = log_binomial(big_n, congestion_budget);
    double p_blocked = 0.0;
    for (std::size_t mask = 0; mask < masks; ++mask) {
      const int nodes_in_subset = mask_nodes[mask];
      if (nodes_in_subset > congestion_budget) continue;
      const double log_ways =
          log_binomial(big_n - nodes_in_subset,
                       congestion_budget - nodes_in_subset);
      p_blocked += mask_sign[mask] * std::exp(log_ways - log_total);
    }
    out[b] = clamp01(1.0 - p_blocked);
  }
}

}  // namespace sos::core
