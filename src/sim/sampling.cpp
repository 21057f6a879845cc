#include "sim/sampling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/one_burst_attacker.h"
#include "common/mathx.h"
#include "sim/trial_engine.h"

namespace sos::sim::sampling {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("sampling: " + what);
}

double half_width(const common::Interval& interval) {
  return 0.5 * interval.width();
}

/// True when the rule is satisfied by an interval of half-width `half`
/// around estimate `p_hat`, having observed `events` delivery events. A
/// relative rule with p_hat == 0 is never satisfied, one with fewer than
/// rule.min_events events is not trusted yet (see StoppingRule), and one
/// whose interval has collapsed to exactly zero width is treated as
/// variance underflow, not certainty.
bool rule_met(const StoppingRule& rule, double half, double p_hat,
              std::uint64_t events) {
  if (rule.relative) {
    if (events < static_cast<std::uint64_t>(rule.min_events)) return false;
    if (!(half > 0.0)) return false;
  }
  const double target =
      rule.relative ? rule.ci_half_width * p_hat : rule.ci_half_width;
  return target > 0.0 && half <= target;
}

int next_chunk_total(const StoppingRule& rule, int resolved) {
  const long long doubled = 2LL * static_cast<long long>(resolved);
  return static_cast<int>(
      std::min<long long>(doubled, static_cast<long long>(rule.max_trials)));
}

/// Exact pieces of the servlet-count conditioning law: the marginal
/// P(K = k) over compromised servlets, and — per k — the posterior over the
/// number h of servlets that received break-in attempts, which a conditioned
/// trial needs to reconstruct the full break-in phase.
struct ConditionedLaw {
  int h_lo = 0;  // fewest servlets the N_T victims can include
  std::vector<double> pmf;        // P(K = k), size m + 1
  std::vector<int> posterior_lo;  // per k: first h of the posterior support
  std::vector<std::vector<double>> posterior_cdf;  // per k: over h - lo
};

ConditionedLaw build_conditioned_law(const core::SosDesign& design,
                                     const core::OneBurstAttack& attack) {
  const int big_n = design.total_overlay_nodes;
  const int m = design.layer_sizes.back();
  const int budget = attack.break_in_budget;
  const double p_eff = std::clamp(
      attack.break_in_success * design.hardening_factor(design.layers()), 0.0,
      1.0);

  ConditionedLaw law;
  law.h_lo = std::max(0, budget - (big_n - m));
  const int feasible_hi = std::min(m, budget);  // largest k (and h) with mass
  law.pmf = servlet_compromise_pmf(big_n, m, budget, p_eff);
  law.posterior_lo.assign(static_cast<std::size_t>(m) + 1, 0);
  law.posterior_cdf.resize(static_cast<std::size_t>(m) + 1);

  // Hyper(h) and Binom(·; h, p_eff) rows, shared by every posterior.
  std::vector<double> hyper;
  std::vector<std::vector<double>> binom_rows;
  for (int h = law.h_lo; h <= feasible_hi; ++h) {
    hyper.push_back(common::hypergeometric_pmf(big_n, m, budget, h));
    binom_rows.push_back(binomial_pmf(h, p_eff));
  }

  // P(h | K = k) ∝ Hyper(h) · Binom(k; h, p_eff) over h in [max(k, h_lo),
  // feasible_hi]. A k whose mass underflows entirely keeps an empty cdf (it
  // is drawn with probability zero; trials fall back to h = k).
  for (int k = 0; k <= m; ++k) {
    const int lo = std::max(k, law.h_lo);
    law.posterior_lo[static_cast<std::size_t>(k)] = lo;
    if (lo > feasible_hi) continue;
    std::vector<double> mass;
    double total = 0.0;
    for (int h = lo; h <= feasible_hi; ++h) {
      const std::size_t row = static_cast<std::size_t>(h - law.h_lo);
      const double joint = hyper[row] * binom_rows[row][static_cast<std::size_t>(k)];
      mass.push_back(joint);
      total += joint;
    }
    if (total <= 0.0) continue;
    std::vector<double>& cdf =
        law.posterior_cdf[static_cast<std::size_t>(k)];
    cdf.reserve(mass.size());
    double cumulative = 0.0;
    for (const double joint : mass) {
      cumulative += joint / total;
      cdf.push_back(cumulative);
    }
    cdf.back() = 1.0;
  }
  return law;
}

/// The conditioned one-burst attack of the stratum [lo, lo + count_cdf.size()):
/// draws the compromised-servlet count k from the stratum's cdf slice, then
/// the attempted-servlet count h from its exact posterior, executes the
/// conditioned attack and applies the post-attack hook. Every draw comes from
/// the trial's own stream, so a stratum trial is a plain engine trial.
AttackFn conditioned_attack(const attack::OneBurstAttacker& attacker,
                            const ConditionedLaw& law, int lo,
                            std::vector<double> count_cdf,
                            const PostAttackFn& post_attack) {
  return [&attacker, &law, &post_attack, lo,
          count_cdf = std::move(count_cdf)](sosnet::SosOverlay& overlay,
                                            common::Rng& rng) {
    // Compromised-servlet count via inverse CDF on the (renormalized) pmf
    // slice, then the attempted-servlet count from its posterior. A k with
    // an underflowed posterior carries zero weight anyway; h = k keeps the
    // trial well-formed.
    const double u = rng.next_double();
    const auto it = std::upper_bound(count_cdf.begin(), count_cdf.end(), u);
    const int k =
        lo + static_cast<int>(std::min(
                 static_cast<std::size_t>(it - count_cdf.begin()),
                 count_cdf.size() - 1));
    const std::vector<double>& posterior =
        law.posterior_cdf[static_cast<std::size_t>(k)];
    int h = std::max(k, law.h_lo);
    if (!posterior.empty()) {
      const double v = rng.next_double();
      const auto hit =
          std::upper_bound(posterior.begin(), posterior.end(), v);
      h = law.posterior_lo[static_cast<std::size_t>(k)] +
          static_cast<int>(std::min(
              static_cast<std::size_t>(hit - posterior.begin()),
              posterior.size() - 1));
    }
    const auto outcome = attacker.execute_conditioned(overlay, rng, h, k);
    if (post_attack) post_attack(overlay, rng);
    return outcome;
  };
}

/// Per-stratum accumulation, rebuilt in fixed (stratum, trial) order every
/// time it is consulted so the estimate never depends on scheduling.
struct StratumStats {
  common::RunningStats rate;
  common::RunningStats broken, broken_sos, congested, congested_sos,
      congested_filters, disclosed;
  double hops_sum = 0.0;
  std::uint64_t delivered = 0;
};

struct Stratum {
  int lo = 0;
  int hi = 0;
  double weight = 0.0;
  AttackFn attack;  // the stratum's conditioned attack
  std::vector<internal::TrialRecord> records;
  std::vector<std::int16_t> hops;  // walks_per_trial slots per trial
  int target = 0;  // trials allocated (and, after a round, executed)
};

StratumStats accumulate(const Stratum& stratum) {
  StratumStats stats;
  for (const internal::TrialRecord& record : stratum.records) {
    stats.rate.add(record.success_rate);
    stats.broken.add(record.broken);
    stats.broken_sos.add(record.broken_sos);
    stats.congested.add(record.congested);
    stats.congested_sos.add(record.congested_sos);
    stats.congested_filters.add(record.congested_filters);
    stats.disclosed.add(record.disclosed);
    stats.delivered += static_cast<std::uint64_t>(record.delivered);
  }
  for (const std::int16_t hop : stratum.hops)
    if (hop >= 0) stats.hops_sum += hop;
  return stats;
}

}  // namespace

void StoppingRule::validate() const {
  if (!(ci_half_width > 0.0) || !(ci_half_width < 1.0))
    fail("StoppingRule ci_half_width must be in (0, 1)");
  if (initial_trials < 2)
    fail("StoppingRule initial_trials must be >= 2");
  if (max_trials < initial_trials)
    fail("StoppingRule max_trials must be >= initial_trials");
  if (!(z > 0.0)) fail("StoppingRule z must be > 0");
  if (min_events < 1) fail("StoppingRule min_events must be >= 1");
}

MonteCarloResult run_sequential(const core::SosDesign& design,
                                const AttackFn& attack,
                                const MonteCarloConfig& config,
                                const StoppingRule& rule) {
  design.validate();
  rule.validate();
  if (config.walks_per_trial < 1)
    throw std::invalid_argument("MonteCarlo: walks_per_trial must be >= 1");

  std::vector<internal::TrialRecord> records;
  std::vector<std::int16_t> hops;
  std::vector<internal::TrialContext> contexts;
  const std::size_t walks_per_trial =
      static_cast<std::size_t>(config.walks_per_trial);

  int resolved = 0;
  std::uint64_t deliveries = 0;
  bool stopped = false;
  bool capped = false;
  int next = std::min(rule.initial_trials, rule.max_trials);
  for (;;) {
    records.resize(static_cast<std::size_t>(next));
    hops.resize(static_cast<std::size_t>(next) * walks_per_trial);
    internal::for_each_trial(
        config, resolved, next, contexts,
        [&](int trial, internal::TrialContext& context) {
          internal::run_trial(
              design, attack, config, internal::trial_seed(config, trial),
              context, records[static_cast<std::size_t>(trial)],
              hops.data() + static_cast<std::size_t>(trial) * walks_per_trial);
        });
    for (int trial = resolved; trial < next; ++trial)
      deliveries += static_cast<std::uint64_t>(
          records[static_cast<std::size_t>(trial)].delivered);
    resolved = next;

    const std::uint64_t walk_count =
        static_cast<std::uint64_t>(resolved) * walks_per_trial;
    const auto interval =
        common::wilson_interval(deliveries, walk_count, rule.z);
    const double p_hat = static_cast<double>(deliveries) /
                         static_cast<double>(walk_count);
    if (rule_met(rule, half_width(interval), p_hat, deliveries)) {
      stopped = true;
      break;
    }
    if (resolved >= rule.max_trials) {
      capped = true;
      break;
    }
    next = next_chunk_total(rule, resolved);
  }

  // Identical to the reduction run_monte_carlo(trials = resolved) performs:
  // same records, same order, same accumulators.
  MonteCarloConfig resolved_config = config;
  resolved_config.trials = resolved;
  MonteCarloResult result =
      internal::reduce_in_trial_order(resolved_config, records, hops);
  result.stopped_by_rule = stopped;
  result.capped = capped;
  if (capped)
    result.estimator_note =
        "sequential: stopping rule unmet at max_trials=" +
        std::to_string(rule.max_trials);
  return result;
}

MonteCarloResult run_stratified(const core::SosDesign& design,
                                const core::OneBurstAttack& attack,
                                const MonteCarloConfig& config,
                                const StoppingRule& rule,
                                const StratifiedOptions& options,
                                const PostAttackFn& post_attack) {
  design.validate();
  rule.validate();
  attack.validate(design.total_overlay_nodes);
  if (config.walks_per_trial < 1)
    throw std::invalid_argument("MonteCarlo: walks_per_trial must be >= 1");
  if (options.strata < 1) fail("StratifiedOptions strata must be >= 1");
  if (options.pilot_per_stratum < 2)
    fail("StratifiedOptions pilot_per_stratum must be >= 2");

  const ConditionedLaw law = build_conditioned_law(design, attack);
  const std::vector<double>& pmf = law.pmf;
  // At most max_trials / 2 strata, so every stratum's pilot of >= 2 trials
  // fits under the cap.
  const std::vector<int> edges =
      stratum_boundaries(pmf, std::min(options.strata, rule.max_trials / 2));

  const attack::OneBurstAttacker attacker{attack};
  std::vector<Stratum> strata;
  int dropped = 0;
  for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
    Stratum stratum;
    stratum.lo = edges[e];
    stratum.hi = edges[e + 1];
    double weight = 0.0;
    for (int s = stratum.lo; s < stratum.hi; ++s)
      weight += pmf[static_cast<std::size_t>(s)];
    if (weight <= 0.0) {
      // The pmf underflowed to zero across the whole bin: its contribution
      // to P_S is below double precision, so the bin is dropped (and
      // reported) rather than sampled with weight zero.
      ++dropped;
      continue;
    }
    stratum.weight = weight;
    std::vector<double> conditional_cdf;  // over k in [lo, hi)
    conditional_cdf.reserve(static_cast<std::size_t>(stratum.hi - stratum.lo));
    double cumulative = 0.0;
    for (int s = stratum.lo; s < stratum.hi; ++s) {
      cumulative += pmf[static_cast<std::size_t>(s)] / weight;
      conditional_cdf.push_back(cumulative);
    }
    conditional_cdf.back() = 1.0;
    stratum.attack = conditioned_attack(attacker, law, stratum.lo,
                                        std::move(conditional_cdf),
                                        post_attack);
    strata.push_back(std::move(stratum));
  }
  if (strata.empty()) fail("stratified: every stratum has zero weight");

  std::vector<internal::TrialContext> contexts;
  const std::size_t walks_per_trial =
      static_cast<std::size_t>(config.walks_per_trial);

  // Runs every stratum's new trials [records.size(), target) as one pass over
  // (stratum, trial) slots: stratum h owns the round's slots
  // [first[h], first[h + 1]), so one round pays one pool barrier however many
  // strata it feeds.
  const auto run_round = [&] {
    std::vector<int> first{0};
    std::vector<int> done;
    for (Stratum& stratum : strata) {
      done.push_back(static_cast<int>(stratum.records.size()));
      first.push_back(first.back() + stratum.target - done.back());
      stratum.records.resize(static_cast<std::size_t>(stratum.target));
      stratum.hops.resize(static_cast<std::size_t>(stratum.target) *
                          walks_per_trial);
    }
    internal::for_each_trial(
        config, 0, first.back(), contexts,
        [&](int slot, internal::TrialContext& context) {
          const auto h = static_cast<std::size_t>(
              std::upper_bound(first.begin(), first.end(), slot) -
              first.begin() - 1);
          Stratum& stratum = strata[h];
          const int trial = done[h] + slot - first[h];
          // Streams derive from (seed, stratum, trial index) alone, so the
          // run is deterministic for any thread count and any allocation
          // schedule that reaches the same per-stratum totals.
          const std::uint64_t seed =
              config.seed ^
              common::mix64(0x5354524154ull +
                            (static_cast<std::uint64_t>(h) << 32) +
                            static_cast<std::uint64_t>(trial));
          internal::run_trial(
              design, stratum.attack, config, seed, context,
              stratum.records[static_cast<std::size_t>(trial)],
              stratum.hops.data() +
                  static_cast<std::size_t>(trial) * walks_per_trial);
        });
  };

  // Pilot pass: equal allocation, sized so the pass stays within the cap.
  const int pilot =
      std::clamp(rule.max_trials / static_cast<int>(strata.size()), 2,
                 options.pilot_per_stratum);
  int total = 0;
  for (std::size_t h = 0; h < strata.size(); ++h) {
    strata[h].target = pilot;
    total += pilot;
  }
  run_round();

  std::string note;
  bool stopped = false;
  bool capped = false;
  std::vector<StratumStats> stats(strata.size());
  for (;;) {
    // Fixed-order recombination: estimate, variance, stopping check.
    double p_hat = 0.0;
    double variance = 0.0;
    std::uint64_t events = 0;
    for (std::size_t h = 0; h < strata.size(); ++h) {
      stats[h] = accumulate(strata[h]);
      p_hat += strata[h].weight * stats[h].rate.mean();
      variance += strata[h].weight * strata[h].weight *
                  stats[h].rate.variance() /
                  static_cast<double>(stats[h].rate.count());
      events += stats[h].delivered;
    }
    const double half = rule.z * std::sqrt(variance);
    if (rule_met(rule, half, p_hat, events) ||
        (variance == 0.0 && !rule.relative)) {
      stopped = true;
      break;
    }
    if (total >= rule.max_trials) {
      capped = true;
      break;
    }

    // Neyman allocation of the next doubling round: n_h ∝ W_h σ_h from the
    // trials so far. A pilot with zero variance everywhere (or a relative
    // rule that has not seen an event yet) falls back to equal allocation.
    const int next_total = next_chunk_total(rule, total);
    std::vector<double> neyman(strata.size(), 0.0);
    double neyman_sum = 0.0;
    for (std::size_t h = 0; h < strata.size(); ++h) {
      neyman[h] = strata[h].weight * stats[h].rate.stddev();
      neyman_sum += neyman[h];
    }
    if (neyman_sum <= 0.0) {
      if (note.empty())
        note =
            "stratified: zero-variance pilot in every stratum; allocating "
            "equally";
      std::fill(neyman.begin(), neyman.end(), 1.0);
    }
    const std::vector<int> extra =
        common::apportion(next_total - total, neyman, false);
    for (std::size_t h = 0; h < strata.size(); ++h)
      strata[h].target += extra[h];
    run_round();
    total = next_total;
  }

  // Final fixed-order recombination into the result.
  MonteCarloResult result;
  double p_hat = 0.0;
  double variance = 0.0;
  double hops_num = 0.0;
  double delivered_rate = 0.0;
  int zero_variance = 0;
  for (std::size_t h = 0; h < strata.size(); ++h) {
    stats[h] = accumulate(strata[h]);
    const double weight = strata[h].weight;
    const double n = static_cast<double>(stats[h].rate.count());
    p_hat += weight * stats[h].rate.mean();
    variance += weight * weight * stats[h].rate.variance() / n;
    result.mean_broken += weight * stats[h].broken.mean();
    result.mean_broken_sos += weight * stats[h].broken_sos.mean();
    result.mean_congested += weight * stats[h].congested.mean();
    result.mean_congested_sos += weight * stats[h].congested_sos.mean();
    result.mean_congested_filters +=
        weight * stats[h].congested_filters.mean();
    result.mean_disclosed += weight * stats[h].disclosed.mean();
    hops_num += weight * stats[h].hops_sum / n;
    delivered_rate += weight * static_cast<double>(stats[h].delivered) / n;
    result.walks += stats[h].rate.count() *
                    static_cast<std::uint64_t>(config.walks_per_trial);
    result.deliveries += stats[h].delivered;
    if (stats[h].rate.count() >= 2 && stats[h].rate.variance() == 0.0)
      ++zero_variance;
    result.strata.push_back(StratumTally{
        strata[h].lo, strata[h].hi, weight, stats[h].rate.count(),
        stats[h].rate.mean(), stats[h].rate.stddev()});
  }
  const double half = rule.z * std::sqrt(variance);
  result.p_success = p_hat;
  result.ci = common::Interval{std::max(0.0, p_hat - half),
                               std::min(1.0, p_hat + half)};
  result.wilson = result.ci;
  result.mean_delivery_hops =
      delivered_rate > 0.0 ? hops_num / delivered_rate : 0.0;
  result.resolved_trials = static_cast<std::uint64_t>(total);
  result.stopped_by_rule = stopped;
  result.capped = capped;
  if (zero_variance > 0) {
    if (!note.empty()) note += "; ";
    note += "stratified: " + std::to_string(zero_variance) + " of " +
            std::to_string(strata.size()) +
            " strata have zero conditional variance";
  }
  if (dropped > 0) {
    if (!note.empty()) note += "; ";
    note += "stratified: dropped " + std::to_string(dropped) +
            " zero-mass strata (pmf underflow)";
  }
  if (capped) {
    if (!note.empty()) note += "; ";
    note += "stratified: stopping rule unmet at max_trials=" +
            std::to_string(rule.max_trials);
  }
  result.estimator_note = note;
  return result;
}


double trials_for_wilson_half_width(double p, double half_width, double z) {
  if (!(half_width > 0.0)) fail("trials_for_wilson_half_width needs h > 0");
  if (p < 0.0 || p > 1.0) fail("trials_for_wilson_half_width needs p in [0,1]");
  if (!(z > 0.0)) fail("trials_for_wilson_half_width needs z > 0");
  const double z2 = z * z;
  const auto half_at = [&](double n) {
    return z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) /
           (1.0 + z2 / n);
  };
  double lo = 1e-9, hi = 1.0;
  while (half_at(hi) > half_width && hi < 1e18) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (half_at(mid) > half_width) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

std::vector<double> binomial_pmf(int n, double p) {
  if (n < 0) fail("binomial_pmf needs n >= 0");
  if (p < 0.0 || p > 1.0) fail("binomial_pmf needs p in [0, 1]");
  std::vector<double> pmf(static_cast<std::size_t>(n) + 1, 0.0);
  if (p == 0.0) {
    pmf.front() = 1.0;
    return pmf;
  }
  if (p == 1.0) {
    pmf.back() = 1.0;
    return pmf;
  }
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  for (int k = 0; k <= n; ++k) {
    pmf[static_cast<std::size_t>(k)] = std::exp(
        common::log_binomial(n, k) + static_cast<double>(k) * log_p +
        static_cast<double>(n - k) * log_q);
  }
  return pmf;
}

std::vector<double> servlet_compromise_pmf(int total_overlay, int servlets,
                                           int break_in_budget,
                                           double p_effective) {
  if (total_overlay < 1) fail("servlet_compromise_pmf needs N >= 1");
  if (servlets < 0 || servlets > total_overlay)
    fail("servlet_compromise_pmf needs m in [0, N]");
  if (break_in_budget < 0 || break_in_budget > total_overlay)
    fail("servlet_compromise_pmf needs N_T in [0, N]");
  if (p_effective < 0.0 || p_effective > 1.0)
    fail("servlet_compromise_pmf needs p in [0, 1]");
  std::vector<double> pmf(static_cast<std::size_t>(servlets) + 1, 0.0);
  const int h_lo =
      std::max(0, break_in_budget - (total_overlay - servlets));
  const int h_hi = std::min(servlets, break_in_budget);
  for (int h = h_lo; h <= h_hi; ++h) {
    const double hyper = common::hypergeometric_pmf(total_overlay, servlets,
                                                    break_in_budget, h);
    if (hyper <= 0.0) continue;
    const std::vector<double> binom = binomial_pmf(h, p_effective);
    for (int k = 0; k <= h; ++k)
      pmf[static_cast<std::size_t>(k)] +=
          hyper * binom[static_cast<std::size_t>(k)];
  }
  return pmf;
}

std::vector<int> stratum_boundaries(const std::vector<double>& pmf,
                                    int strata) {
  if (pmf.empty()) fail("stratum_boundaries needs a non-empty pmf");
  if (strata < 1) fail("stratum_boundaries needs strata >= 1");
  const int n = static_cast<int>(pmf.size()) - 1;
  std::vector<int> edges{0, n + 1};
  double total = 0.0;
  double mean = 0.0;
  double second = 0.0;
  for (int k = 0; k <= n; ++k) {
    const double p = pmf[static_cast<std::size_t>(k)];
    if (p < 0.0) fail("stratum_boundaries needs a non-negative pmf");
    total += p;
    mean += static_cast<double>(k) * p;
    second += static_cast<double>(k) * static_cast<double>(k) * p;
  }
  if (!(total > 0.0)) fail("stratum_boundaries needs pmf mass > 0");
  mean /= total;
  second /= total;
  const double sigma = std::sqrt(std::max(0.0, second - mean * mean));
  if (strata == 1 || n == 0 || sigma == 0.0) return edges;

  // Interior cuts at z-scores spanning [-6σ, +3σ], denser into the left
  // (few-compromises) tail — the delivery-friendly region where rare P_S
  // contributions live. Equal-weight bins could never isolate that tail.
  const int cuts = strata - 1;
  for (int c = 0; c < cuts; ++c) {
    const double z =
        cuts == 1 ? 0.0
                  : -6.0 + 9.0 * static_cast<double>(c) /
                               static_cast<double>(cuts - 1);
    const int edge = static_cast<int>(std::ceil(mean + z * sigma));
    if (edge >= 1 && edge <= n) edges.push_back(edge);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace sos::sim::sampling
