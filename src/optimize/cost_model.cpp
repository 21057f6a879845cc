#include "optimize/cost_model.h"

#include <sstream>
#include <stdexcept>

namespace sos::optimize {

namespace {

[[noreturn]] void reject(const std::string& field, double value,
                         const std::string& accepted) {
  std::ostringstream text;
  text << "CostModel: bad " << field << " '" << value << "' (accepted: "
       << accepted << ")";
  throw std::invalid_argument(text.str());
}

}  // namespace

void CostModel::validate() const {
  if (node_cost < 0.0) reject("node_cost", node_cost, "a real >= 0");
  if (filter_cost < 0.0) reject("filter_cost", filter_cost, "a real >= 0");
  if (layer_cost < 0.0) reject("layer_cost", layer_cost, "a real >= 0");
  if (link_cost < 0.0) reject("link_cost", link_cost, "a real >= 0");
  if (node_cost == 0.0 && filter_cost == 0.0 && layer_cost == 0.0 &&
      link_cost == 0.0)
    throw std::invalid_argument(
        "CostModel: all prices are zero (accepted: at least one of "
        "node_cost/filter_cost/layer_cost/link_cost > 0 — a free design "
        "space has a degenerate frontier)");
}

long long CostModel::link_count(const core::SosDesign& design) {
  const int layers = design.layers();
  // m_1: every client keeps that many Layer-1 contacts; charged once as the
  // advertised contact-list size (client population is not a design knob).
  long long links = design.degree_into(1);
  for (int i = 2; i <= layers + 1; ++i) {
    links += static_cast<long long>(design.layer_size(i - 1)) *
             design.degree_into(i);
  }
  return links;
}

double CostModel::deployment_cost(const core::SosDesign& design) const {
  return node_cost * design.sos_node_count() +
         filter_cost * design.filter_count + layer_cost * design.layers() +
         link_cost * static_cast<double>(link_count(design));
}

}  // namespace sos::optimize
