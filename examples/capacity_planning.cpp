// Capacity planning: how many SOS nodes (and which shape) are needed to
// guarantee a target P_S against a given intelligent attack? Sweeps n for a
// family of designs and reports the cheapest deployment that clears the
// availability bar — the provisioning question an operator of such an
// overlay would actually ask.
//
//   ./capacity_planning [--target=0.55] [--nt=200] [--nc=2000] [--rounds=3]
//                       [--pe=0.2] [--max-sos=400]
#include <cstdio>
#include <exception>
#include <optional>
#include <vector>

#include "common/cli.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/successive_model.h"

using namespace sos;  // NOLINT: example brevity

int main(int argc, char** argv) try {
  const common::Args args{argc, argv};

  core::SuccessiveAttack attack;
  attack.break_in_budget = static_cast<int>(args.get_int("nt", 200));
  attack.congestion_budget = static_cast<int>(args.get_int("nc", 2000));
  attack.break_in_success = args.get_double("pb", 0.5);
  attack.prior_knowledge = args.get_double("pe", 0.2);
  attack.rounds = static_cast<int>(args.get_int("rounds", 3));

  const double target = args.get_double("target", 0.55);
  const int total = static_cast<int>(args.get_int("n", 10000));
  const int filters = static_cast<int>(args.get_int("filters", 10));
  const int max_sos = static_cast<int>(args.get_int("max-sos", 400));

  std::printf(
      "provisioning for P_S >= %.2f under attack %s PE=%.2f (N=%d)\n\n",
      target, attack.summary().c_str(), attack.prior_knowledge, total);

  struct Shape {
    int layers;
    core::MappingPolicy mapping;
    core::NodeDistribution dist;
  };
  const std::vector<Shape> shapes{
      {3, core::MappingPolicy::one_to_all(), core::NodeDistribution::even()},
      {3, core::MappingPolicy::one_to_five(), core::NodeDistribution::even()},
      {4, core::MappingPolicy::one_to_two(), core::NodeDistribution::even()},
      {4, core::MappingPolicy::one_to_five(),
       core::NodeDistribution::increasing()},
      {5, core::MappingPolicy::one_to_two(),
       core::NodeDistribution::increasing()},
      {6, core::MappingPolicy::one_to_one(), core::NodeDistribution::even()},
  };

  common::Table table{{"L", "mapping", "distribution", "min n for target",
                       "P_S at min n", "P_S at n=100"}};
  std::optional<int> cheapest;
  std::string cheapest_label;

  for (const auto& shape : shapes) {
    std::optional<int> minimum;
    double p_at_min = 0.0;
    double p_at_100 = 0.0;
    for (int sos_nodes = shape.layers; sos_nodes <= max_sos; ++sos_nodes) {
      const auto design = core::SosDesign::make(
          total, sos_nodes, shape.layers, filters, shape.mapping, shape.dist);
      const double p = core::SuccessiveModel::p_success(design, attack);
      if (sos_nodes == 100) p_at_100 = p;
      if (!minimum && p >= target) {
        minimum = sos_nodes;
        p_at_min = p;
        if (sos_nodes >= 100) break;  // still need the n=100 column
      }
    }
    const std::string label = "L=" + std::to_string(shape.layers) + " " +
                              shape.mapping.label() + " " +
                              shape.dist.label();
    table.add_row({std::to_string(shape.layers), shape.mapping.label(),
                   shape.dist.label(),
                   minimum ? std::to_string(*minimum)
                           : std::string(">").append(std::to_string(max_sos)),
                   minimum ? common::format_double(p_at_min, 4) : "-",
                   common::format_double(p_at_100, 4)});
    if (minimum && (!cheapest || *minimum < *cheapest)) {
      cheapest = *minimum;
      cheapest_label = label;
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  if (cheapest) {
    std::printf("\ncheapest deployment clearing P_S >= %.2f: %s with n=%d\n",
                target, cheapest_label.c_str(), *cheapest);
  } else {
    std::printf("\nno shape reaches P_S >= %.2f with n <= %d; lower the "
                "target or add nodes\n",
                target, max_sos);
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
