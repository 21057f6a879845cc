// Narrated successive-attack campaign: replays Algorithm 1 round by round
// on one concrete overlay, printing what the attacker knows, attacks and
// discloses at each step, side by side with the analytical model's per-round
// expectations — then lets the defender repair and watches availability
// recover.
//
//   ./attack_campaign [--layers=3] [--mapping=one-to-five] [--nt=2000]
//                     [--nc=2000] [--rounds=5] [--pe=0.2] [--repair=0.3]
#include <cstdio>
#include <exception>

#include "attack/successive_attacker.h"
#include "common/cli.h"
#include "core/successive_model.h"
#include "sim/defense.h"

using namespace sos;  // NOLINT: example brevity

namespace {

double measure_availability(const sosnet::SosOverlay& overlay,
                            common::Rng& rng, int walks = 2000) {
  int delivered = 0;
  for (int walk = 0; walk < walks; ++walk)
    if (overlay.route_message(rng).delivered) ++delivered;
  return static_cast<double>(delivered) / walks;
}

void print_layer_state(const sosnet::SosOverlay& overlay) {
  for (int layer = 0; layer < overlay.design().layers(); ++layer) {
    const auto tally = overlay.tally(layer);
    std::printf("    layer %d: %2d good / %2d congested / %2d broken\n",
                layer + 1, tally.good, tally.congested, tally.broken);
  }
  std::printf("    filters: %d of %d congested\n",
              overlay.congested_filter_count(), overlay.filter_count());
}

}  // namespace

int main(int argc, char** argv) try {
  const common::Args args{argc, argv};

  const auto design = core::SosDesign::make(
      static_cast<int>(args.get_int("n", 10000)),
      static_cast<int>(args.get_int("sos", 100)),
      static_cast<int>(args.get_int("layers", 3)),
      static_cast<int>(args.get_int("filters", 10)),
      core::MappingPolicy::parse(args.get_string("mapping", "one-to-five")));

  core::SuccessiveAttack attack;
  attack.break_in_budget = static_cast<int>(args.get_int("nt", 2000));
  attack.congestion_budget = static_cast<int>(args.get_int("nc", 2000));
  attack.break_in_success = args.get_double("pb", 0.5);
  attack.prior_knowledge = args.get_double("pe", 0.2);
  attack.rounds = static_cast<int>(args.get_int("rounds", 5));

  std::printf("== campaign against %s ==\n", design.summary().c_str());
  std::printf("attack %s PE=%.2f\n\n", attack.summary().c_str(),
              attack.prior_knowledge);

  // Analytical per-round expectations for comparison.
  const auto trace = core::SuccessiveModel::trace(design, attack);
  std::printf("analytical model expects %zu break-in round(s):\n",
              trace.rounds.size());
  for (const auto& round : trace.rounds) {
    double attacked = 0.0, fresh = 0.0;
    for (std::size_t i = 0; i < round.attempted_disclosed.size(); ++i) {
      attacked += round.attempted_disclosed[i] + round.attempted_random[i];
      fresh += round.disclosed_new[i];
    }
    std::printf(
        "  round %d (case %d): knows %.1f nodes, attacks %.1f, expects %.1f "
        "fresh disclosures, %.2f filters%s\n",
        round.index, round.case_id, round.known, attacked, fresh,
        round.disclosed_new.back(), round.terminal ? " [terminal]" : "");
  }
  std::printf("analytical P_S after congestion: %.4f\n\n",
              trace.result.p_success());

  // Live replay on one overlay, narrated via the after_round hook.
  sosnet::SosOverlay overlay{design,
                             static_cast<std::uint64_t>(args.get_int("seed", 42))};
  common::Rng rng{0xabcdef};
  attack::SuccessiveAttackerOptions options;
  options.after_round = [&](sosnet::SosOverlay& net, common::Rng&, int round) {
    std::printf("after round %d:\n", round);
    print_layer_state(net);
  };
  const attack::SuccessiveAttacker attacker{attack, options};
  const auto outcome = attacker.execute(overlay, rng);

  std::printf("\ncongestion phase: %d nodes + %d filters congested "
              "(disclosed pool was %d)\n",
              outcome.congested_nodes, outcome.congested_filters,
              outcome.disclosed_at_congestion);
  print_layer_state(overlay);
  std::printf("\nmeasured availability under attack: P_S = %.4f\n",
              measure_availability(overlay, rng));

  // Defender response (Section 5 dynamic repair, here applied post-attack).
  const double repair_rate = args.get_double("repair", 0.3);
  if (repair_rate > 0.0) {
    std::printf("\n== defender repairs (rate %.2f per sweep) ==\n",
                repair_rate);
    for (int sweep = 1; sweep <= 3; ++sweep) {
      sim::DefenseTally tally;
      sim::defend(overlay, {.repair_rate = repair_rate}, rng, tally);
      std::printf("sweep %d: repaired %d, availability now %.4f\n", sweep,
                  tally.repaired_nodes + tally.repaired_filters,
                  measure_availability(overlay, rng));
    }
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
