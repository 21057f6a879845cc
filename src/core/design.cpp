#include "core/design.h"

#include <numeric>
#include <stdexcept>

namespace sos::core {

SosDesign SosDesign::make(int total_overlay_nodes, int sos_nodes, int layers,
                          int filter_count, MappingPolicy mapping,
                          const NodeDistribution& distribution) {
  SosDesign design;
  design.total_overlay_nodes = total_overlay_nodes;
  design.layer_sizes = distribution.layer_sizes(sos_nodes, layers);
  design.filter_count = filter_count;
  design.mapping = mapping;
  design.validate();
  return design;
}

int SosDesign::sos_node_count() const noexcept {
  return std::accumulate(layer_sizes.begin(), layer_sizes.end(), 0);
}

int SosDesign::layer_size(int i) const {
  if (i < 1 || i > layers() + 1)
    throw std::out_of_range("SosDesign::layer_size: layer index " +
                            std::to_string(i));
  if (i == layers() + 1) return filter_count;
  return layer_sizes[static_cast<std::size_t>(i - 1)];
}

int SosDesign::degree_into(int i) const {
  const int size = layer_size(i);  // also validates the index
  if (!mapping_profile.empty())
    return mapping_profile[static_cast<std::size_t>(i - 1)].degree_for(size);
  return mapping.degree_for(size);
}

double SosDesign::hardening_factor(int i) const {
  if (i < 1 || i > layers())
    throw std::out_of_range("SosDesign::hardening_factor: layer index " +
                            std::to_string(i));
  if (hardening.empty()) return 1.0;
  return hardening[static_cast<std::size_t>(i - 1)];
}

void SosDesign::validate() const {
  if (layer_sizes.empty())
    throw std::invalid_argument("SosDesign: at least one layer required");
  for (std::size_t i = 0; i < layer_sizes.size(); ++i) {
    if (layer_sizes[i] < 1)
      throw std::invalid_argument("SosDesign: layer " + std::to_string(i + 1) +
                                  " is empty");
  }
  if (filter_count < 1)
    throw std::invalid_argument("SosDesign: filter_count must be >= 1");
  if (sos_node_count() > total_overlay_nodes)
    throw std::invalid_argument(
        "SosDesign: more SOS nodes than overlay nodes (n > N)");
  if (total_overlay_nodes < 1)
    throw std::invalid_argument("SosDesign: N must be >= 1");
  if (!hardening.empty()) {
    if (static_cast<int>(hardening.size()) != layers())
      throw std::invalid_argument(
          "SosDesign: hardening must have one entry per layer");
    for (const double factor : hardening)
      if (factor < 0.0 || factor > 1.0)
        throw std::invalid_argument(
            "SosDesign: hardening factors must be in [0, 1]");
  }
  if (!mapping_profile.empty() &&
      static_cast<int>(mapping_profile.size()) != layers() + 1)
    throw std::invalid_argument(
        "SosDesign: mapping_profile must have L+1 entries (one per hop)");
}

std::string SosDesign::summary() const {
  std::string sizes;
  for (std::size_t i = 0; i < layer_sizes.size(); ++i) {
    if (i > 0) sizes += ',';
    sizes += std::to_string(layer_sizes[i]);
  }
  return "L=" + std::to_string(layers()) + " n=[" + sizes +
         "] m=" + mapping.label() + " N=" + std::to_string(total_overlay_nodes) +
         " f=" + std::to_string(filter_count);
}

}  // namespace sos::core
