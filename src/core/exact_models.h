// Exact (non-average-case) reference models for the pure random-congestion
// regime (N_T = 0).
//
// The paper argues that exhaustively enumerating attacked-node combinations
// costs Theta((n/L)^{2L}) and settles for an average-case analysis. For the
// *random congestion* sub-case, however, the per-layer congested counts
// (c_1, ..., c_L) follow a multivariate hypergeometric law, and
//   P_S = E[ prod_i (1 - P(n_i, c_i, m_i)) ]
// factors through a layer-by-layer dynamic program in O(L * n * n) — so the
// expectation can be computed exactly. These models quantify how much the
// paper's "plug in the mean s_i" approximation distorts P_S (it is exact in
// neither direction a priori because P(n, s, m) is non-linear in s).
//
// The DP is independent of the congestion budget N_C: only the final mixing
// step (weighing each total congested-SOS count against the ways to place
// the remaining budget on innocent nodes) depends on it. The *_curve entry
// points exploit that, computing the DP once and mixing every budget in a
// sweep against it — an O(B*L*S*n) per-point sweep becomes O(L*S*n + B*S).
//
// Both models leave the filter layer untouched: under pure random congestion
// filters are never hit (footnote 2), so P_{L+1} = 1.
#pragma once

#include <vector>

#include "core/design.h"

namespace sos::core {

class ExactRandomCongestionModel {
 public:
  /// Reusable DP scratch (mirrors PR 1's TopologyWorkspace pattern): the
  /// ping-pong weight buffers and the per-layer factor table. Steady-state
  /// batch evaluation allocates nothing.
  struct Workspace {
    std::vector<double> weights;  // W_i(s), reused across layers and calls
    std::vector<double> next;     // ping-pong partner of `weights`
    std::vector<double> factor;   // per-layer C(n_i, c) * (1 - P(n_i, c, m_i))
  };

  /// Exact E[P_S] when `congestion_budget` overlay nodes out of N are
  /// congested uniformly at random (no break-ins). Still uses the expected
  /// per-hop success 1 - C(c_i, m_i)/C(n_i, m_i) given the congested counts
  /// (randomness of neighbor-table contents), but takes the exact
  /// expectation over the joint law of (c_1, ..., c_L). Delegates to
  /// p_success_curve with a single budget, so per-point and batch results
  /// are bit-identical by construction.
  static double p_success(const SosDesign& design, int congestion_budget);

  /// Batch form: one DP pass, then every budget mixed against the shared
  /// weights. out[b] corresponds to budgets[b].
  static std::vector<double> p_success_curve(const SosDesign& design,
                                             const std::vector<int>& budgets);

  /// Allocation-aware batch form; `out` is resized to budgets.size().
  static void p_success_curve(const SosDesign& design,
                              const std::vector<int>& budgets,
                              std::vector<double>& out, Workspace& workspace);
};

/// The original SOS architecture of Keromytis et al. (the paper's baseline
/// [1]): L layers with one-to-all mapping, random congestion. With
/// one-to-all, a path exists iff no layer is entirely congested, so P_S has
/// a closed inclusion-exclusion form over the 2^L layer subsets:
///   P_S = 1 - sum_{S != {}} (-1)^{|S|+1} C(N - n_S, N_C - n_S) / C(N, N_C).
class OriginalSosModel {
 public:
  /// Per-design scratch: the subset node-counts and inclusion-exclusion
  /// signs for every non-empty layer mask, which do not depend on the
  /// congestion budget and are cached across a batch of budgets.
  struct Workspace {
    std::vector<int> mask_nodes;   // n_S per non-empty mask
    std::vector<double> mask_sign; // +1 / -1 per non-empty mask
  };

  /// Exact P_S. Requires design.mapping == one-to-all (the formula counts a
  /// layer as blocking only when *all* of it is congested). The paper's
  /// original architecture is design L=3; any L is accepted. Delegates to
  /// p_success_curve with a single budget (bit-identical to batch).
  static double p_success(const SosDesign& design, int congestion_budget);

  /// Batch form: per-mask subset sizes computed once, every budget mixed
  /// against them. out[b] corresponds to budgets[b]; `out` is resized to
  /// budgets.size().
  static void p_success_curve(const SosDesign& design,
                              const std::vector<int>& budgets,
                              std::vector<double>& out, Workspace& workspace);
};

}  // namespace sos::core
