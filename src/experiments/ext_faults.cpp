// ext_fault_tolerance: graceful degradation under benign faults composed
// with an intelligent attack.
//
// Two sweeps share the figure. The crash sweep validates the
// degraded-substrate analytic fold (core/degraded_substrate.h) against
// fault-injected Monte Carlo: each trial runs the successive attack and
// then crashes nodes at the steady-state rate of an MTBF/MTTR churn
// process, so measured availability reflects attack *plus* benign
// downtime. The loss sweep measures what Eq. (1) cannot see at all: the
// latency and traffic cost of delivering through a lossy substrate with
// bounded retransmission (ProtocolFaults), reported as retry
// amplification over the loss-free protocol.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "core/degraded_substrate.h"
#include "experiments/detail.h"
#include "faults/fault_injector.h"
#include "sosnet/protocol.h"

namespace sos::experiments {

namespace {

int fault_trials(const Params& params, int fallback) {
  return params.mc_trials > 0 ? params.mc_trials : fallback;
}

}  // namespace

Figure ext_fault_tolerance(const Params& params) {
  Figure figure;
  figure.id = "ext_faults";
  figure.title =
      "graceful degradation: benign crashes and message loss under attack";
  figure.x_label = "node downtime fraction / per-leg loss probability";
  figure.table = common::Table{{"sweep", "x", "budget_nc", "P_S_model",
                                "P_S_mc", "ci_lo", "ci_hi", "latency_mean",
                                "retry_amp"}};

  // --- Crash sweep: availability vs steady-state downtime, per budget. ---
  const auto design =
      detail::make_design(params, 4, core::MappingPolicy::one_to_two());
  const std::vector<double> downtimes{0.0, 0.05, 0.1, 0.2, 0.3};
  const std::vector<int> budgets{0, 1000, 2000};

  sim::MonteCarloConfig mc = detail::mc_config(params);
  mc.trials = fault_trials(params, 48);

  struct CrashPoint {
    double downtime = 0.0;
    int budget = 0;
    double analytic = 0.0;
  };
  std::vector<CrashPoint> crash_points;
  std::vector<sim::MonteCarloPoint> mc_points;
  for (const int budget : budgets) {
    core::SuccessiveAttack attack = detail::default_successive(params);
    attack.congestion_budget = budget;
    for (const double downtime : downtimes) {
      const core::SubstrateFaults substrate{1.0 - downtime, 1.0, 1.0};
      crash_points.push_back(
          {downtime, budget,
           core::DegradedSubstrateModel::successive(design, attack,
                                                    substrate)});

      // Steady-state churn with this downtime: up = mtbf / (mtbf + mttr).
      faults::FaultConfig faults;
      if (downtime > 0.0) {
        faults.node_mtbf = 1.0 - downtime;
        faults.node_mttr = downtime;
      }
      const attack::SuccessiveAttacker attacker{attack};
      mc_points.push_back(
          {design,
           [attacker, faults](sosnet::SosOverlay& overlay, common::Rng& rng) {
             auto outcome = attacker.execute(overlay, rng);
             faults::apply_steady_state_faults(faults, overlay, rng);
             return outcome;
           },
           mc});
    }
  }
  const auto mc_results = sim::run_monte_carlo(mc_points);

  double max_gap = 0.0, gap_sum = 0.0;
  for (const int budget : budgets) {
    common::Series analytic_series{"NC=" + std::to_string(budget) + " model",
                                   {}, {}};
    common::Series mc_series{"NC=" + std::to_string(budget) + " MC", {}, {}};
    for (std::size_t i = 0; i < crash_points.size(); ++i) {
      const CrashPoint& point = crash_points[i];
      if (point.budget != budget) continue;
      const auto& result = mc_results[i];
      const double gap = std::abs(result.p_success - point.analytic);
      max_gap = std::max(max_gap, gap);
      gap_sum += gap;
      analytic_series.xs.push_back(point.downtime);
      analytic_series.ys.push_back(point.analytic);
      mc_series.xs.push_back(point.downtime);
      mc_series.ys.push_back(result.p_success);
      figure.table.add_row({"crash", detail::fmt(point.downtime, 2),
                            std::to_string(point.budget),
                            detail::fmt(point.analytic),
                            detail::fmt(result.p_success),
                            detail::fmt(result.ci.lo),
                            detail::fmt(result.ci.hi), "-", "-"});
    }
    figure.series.push_back(std::move(analytic_series));
    figure.series.push_back(std::move(mc_series));
  }
  const double mean_gap = gap_sum / static_cast<double>(crash_points.size());

  // --- Loss sweep: protocol cost of delivering through lossy links. ---
  Params scaled = params;
  scaled.total_overlay = 2000;
  const auto small_design =
      detail::make_design(scaled, 3, core::MappingPolicy::one_to_two());
  const core::OneBurstAttack link_attack{0, 600, params.p_break};
  const attack::OneBurstAttacker link_attacker{link_attack};
  const std::vector<double> losses{0.0, 0.05, 0.1, 0.2, 0.3};
  const int trials = std::max(12, fault_trials(params, 48) / 4);

  std::vector<double> delivered_by_loss, messages_by_loss;
  common::Series loss_series{"delivered (loss sweep)", {}, {}};
  for (const double loss : losses) {
    sosnet::ProtocolConfig config;
    config.faults.loss = loss;
    int delivered = 0, total = 0;
    common::RunningStats latency, messages, retransmissions;
    for (int trial = 0; trial < trials; ++trial) {
      const auto loss_tag = static_cast<int>(loss * 1000);
      sosnet::SosOverlay overlay{
          small_design,
          params.seed + static_cast<std::uint64_t>(trial * 131 + loss_tag)};
      common::Rng rng{params.seed ^ static_cast<std::uint64_t>(
                                        trial * 977 + loss_tag + 7)};
      link_attacker.execute(overlay, rng);
      const sosnet::ProtocolRouter router{overlay, config};
      for (int walk = 0; walk < 16; ++walk, ++total) {
        const auto outcome = router.deliver(rng);
        if (outcome.delivered) {
          ++delivered;
          latency.add(outcome.latency);
        }
        messages.add(outcome.messages);
        retransmissions.add(outcome.retransmissions);
      }
    }
    const double p_delivered = static_cast<double>(delivered) / total;
    delivered_by_loss.push_back(p_delivered);
    messages_by_loss.push_back(messages.mean());
    const double amp = messages.mean() / messages_by_loss.front();
    loss_series.xs.push_back(loss);
    loss_series.ys.push_back(p_delivered);
    figure.table.add_row(
        {"loss", detail::fmt(loss, 2),
         std::to_string(link_attack.congestion_budget),
         detail::fmt(core::delivery_after_retries(loss,
                                                  config.faults.max_retries)),
         detail::fmt(p_delivered), "-", "-", detail::fmt_mean(latency, 1),
         detail::fmt(amp, 2)});
  }
  figure.series.push_back(std::move(loss_series));

  // --- Checks. ---
  {
    core::SuccessiveAttack attack = detail::default_successive(params);
    attack.congestion_budget = budgets.back();
    const double ideal = core::DegradedSubstrateModel::successive(
        design, attack, core::SubstrateFaults{});
    const double paper = core::SuccessiveModel::p_success(design, attack);
    figure.checks.push_back(make_check(
        "the ideal substrate reproduces the paper model bit for bit",
        ideal == paper,
        "degraded " + detail::fmt(ideal, 6) + " vs paper " +
            detail::fmt(paper, 6)));
  }
  figure.checks.push_back(make_check(
      "the degraded-substrate analytic tracks fault-injected Monte Carlo "
      "(max gap < 0.10, mean gap < 0.05)",
      max_gap < 0.10 && mean_gap < 0.05,
      "max gap " + detail::fmt(max_gap) + ", mean gap " +
          detail::fmt(mean_gap)));
  {
    bool monotone = true;
    for (std::size_t i = 1; i < crash_points.size(); ++i) {
      if (crash_points[i].budget != crash_points[i - 1].budget) continue;
      if (crash_points[i].analytic > crash_points[i - 1].analytic + 1e-12)
        monotone = false;
    }
    figure.checks.push_back(make_check(
        "availability degrades monotonically as benign downtime grows",
        monotone, ""));
  }
  figure.checks.push_back(make_check(
      "bounded retransmission recovers most benign loss (delivered rate at "
      "loss=0.1 within 0.05 of loss-free)",
      delivered_by_loss[2] > delivered_by_loss[0] - 0.05,
      "loss-free " + detail::fmt(delivered_by_loss[0]) + ", at 0.1 " +
          detail::fmt(delivered_by_loss[2])));
  {
    // Adjacent loss points can tie within Monte Carlo noise, so demand
    // that every lossy point costs more than the loss-free protocol and
    // that the trend is substantial end to end.
    bool growing = messages_by_loss.back() > 1.5 * messages_by_loss.front();
    for (std::size_t i = 1; i < messages_by_loss.size(); ++i)
      if (messages_by_loss[i] <= messages_by_loss.front()) growing = false;
    figure.checks.push_back(make_check(
        "retry amplification grows with the loss rate", growing,
        "messages/delivery " + detail::fmt(messages_by_loss.front(), 1) +
            " -> " + detail::fmt(messages_by_loss.back(), 1)));
  }

  figure.notes.push_back(
      "crash sweep: successive attack (NT=200, R=3, P_E=0.2) then "
      "steady-state crashes at the given downtime fraction; analytic folds "
      "node_up = 1 - downtime into the Eq. (1) path product");
  figure.notes.push_back(
      "loss sweep: N scaled to 2000, one-burst NC=600, protocol with "
      "max_retries=2, backoff=2; retry_amp is messages per delivery "
      "relative to the loss-free protocol");
  return figure;
}

}  // namespace sos::experiments
