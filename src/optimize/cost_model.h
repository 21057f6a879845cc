// Deployment cost model for SOS architectures.
//
// The paper ranks designs purely by P_S; a deployer ranks them by P_S *per
// dollar*. This model prices the four resources a design consumes:
//   - overlay nodes   (n SOS nodes to provision and operate),
//   - filters         (the protected ring; priced separately because filter
//                      capacity is the scarce, heavily-provisioned resource),
//   - layers          (each layer adds operational complexity: key
//                      management, monitoring, reshuffle machinery),
//   - mapping links   (every neighbor-table entry is state to distribute and
//                      keep consistent; wide mappings buy availability at
//                      exactly this price).
// The link term counts the design's actual fan-out: m_1 client contacts plus
// n_{i-1} * m_i neighbor entries for every hop into layers 2..L+1. That is
// what makes one-to-all designs expensive and lets the Pareto frontier trade
// resilience against state.
#pragma once

#include <string>

#include "core/design.h"

namespace sos::optimize {

struct CostModel {
  double node_cost = 1.0;     // per SOS overlay node
  double filter_cost = 10.0;  // per filter-ring node
  double layer_cost = 25.0;   // per layer (operational complexity)
  double link_cost = 0.05;    // per neighbor-table entry

  /// Throws std::invalid_argument listing accepted ranges ("(accepted:"
  /// golden-error style, same contract as campaign::ScenarioSpec) when any
  /// price is negative or every price is zero (a free design space makes
  /// every design cost-optimal and the frontier degenerate).
  void validate() const;

  /// Total neighbor-table entries of `design`: m_1 (client contact list)
  /// + sum over hops i in [2, L+1] of n_{i-1} * m_i.
  static long long link_count(const core::SosDesign& design);

  /// node_cost*n + filter_cost*f + layer_cost*L + link_cost*link_count.
  /// `design` must be valid.
  double deployment_cost(const core::SosDesign& design) const;
};

}  // namespace sos::optimize
