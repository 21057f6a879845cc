// SosDesign — the generalized SOS architecture of Section 2.
//
// Captures the three design features the paper studies: number of layers L,
// node distribution per layer n_1..n_L, and mapping degree m_i; plus the
// substrate parameters N (total overlay nodes) and the filter ring size.
// Layer indices are 1-based to match the paper; index L+1 denotes the filter
// layer throughout.
#pragma once

#include <string>
#include <vector>

#include "core/distribution.h"
#include "core/mapping.h"

namespace sos::core {

struct SosDesign {
  int total_overlay_nodes = 10000;      // N: SOS nodes + innocent overlay nodes
  std::vector<int> layer_sizes;         // n_1..n_L (SOS nodes only)
  int filter_count = 10;                // n_{L+1}; filters sit outside N
  MappingPolicy mapping = MappingPolicy::one_to_all();

  /// Optional per-layer intrusion hardening: the attacker's effective
  /// break-in success at Layer i is P_B * hardening[i-1]. Empty = no
  /// hardening (factor 1 everywhere); otherwise must have exactly L
  /// entries in [0, 1]. This is a defender-side extension beyond the
  /// paper's uniform-P_B model (filters are already unbreakable).
  std::vector<double> hardening;

  /// Optional per-hop mapping profile: entry i (0-based) overrides
  /// `mapping` for the hop *into* layer i+1 (so entry 0 is the client
  /// contact list, entry L the filter contacts). Empty = uniform `mapping`
  /// everywhere (the paper's setting); otherwise must have exactly L+1
  /// entries. Lets designs trade availability (wide outer hops) against
  /// disclosure containment (narrow inner hops) within one architecture.
  std::vector<MappingPolicy> mapping_profile;

  /// Convenience constructor matching the paper's parameterization.
  static SosDesign make(int total_overlay_nodes, int sos_nodes, int layers,
                        int filter_count, MappingPolicy mapping,
                        const NodeDistribution& distribution =
                            NodeDistribution::even());

  int layers() const noexcept { return static_cast<int>(layer_sizes.size()); }
  int sos_node_count() const noexcept;  // n

  /// Size of layer `i` for i in [1, L+1]; i == L+1 is the filter ring.
  int layer_size(int i) const;

  /// m_i: the number of Layer-i neighbors a Layer-(i-1) node keeps, for i in
  /// [1, L+1]. i == 1 gives the client contact-list size; i == L+1 the
  /// number of filters each Layer-L node knows.
  int degree_into(int i) const;

  /// Break-in success multiplier of layer `i` (1-based, i in [1, L]); 1.0
  /// when unhardened.
  double hardening_factor(int i) const;

  /// Throws std::invalid_argument with a precise message on any violated
  /// invariant (empty layer, n > N, non-positive filter count, ...).
  void validate() const;

  /// "L=3 n=[34,33,33] m=one-to-five N=10000 f=10"
  std::string summary() const;
};

}  // namespace sos::core
