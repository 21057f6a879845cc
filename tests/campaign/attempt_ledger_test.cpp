// AttemptLedger: the retry/backoff/quarantine arithmetic of the
// RemoteWorkerPool. Charging semantics, the quarantine
// threshold, deterministic jittered backoff growth, eligibility gating,
// and the "(accepted:)" validation style.
#include "campaign/attempt_ledger.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sos::campaign {
namespace {

using Clock = AttemptLedger::Clock;

RetryPolicy fast_policy() {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_s = 0.01;
  policy.backoff_max_s = 0.1;
  return policy;
}

TEST(AttemptLedger, FreshPointsAreImmediatelyEligibleWithZeroFailures) {
  AttemptLedger ledger{4, fast_policy()};
  const auto now = Clock::now();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ledger.failures(i), 0);
    EXPECT_TRUE(ledger.eligible(i, now));
  }
  EXPECT_EQ(ledger.retried(), 0);
}

TEST(AttemptLedger, ChargesRetryUntilMaxRetriesThenQuarantines) {
  AttemptLedger ledger{2, fast_policy()};
  const auto now = Clock::now();
  // max_retries=2: failures 1 and 2 retry, failure 3 quarantines.
  EXPECT_EQ(ledger.charge(0, now), AttemptLedger::Verdict::kRetry);
  EXPECT_EQ(ledger.failures(0), 1);
  EXPECT_EQ(ledger.charge(0, now), AttemptLedger::Verdict::kRetry);
  EXPECT_EQ(ledger.failures(0), 2);
  EXPECT_EQ(ledger.charge(0, now), AttemptLedger::Verdict::kQuarantine);
  EXPECT_EQ(ledger.failures(0), 3);  // 1 + max_retries total attempts
  EXPECT_EQ(ledger.retried(), 2);    // quarantine is not a retry
  // The other point is untouched.
  EXPECT_EQ(ledger.failures(1), 0);
}

TEST(AttemptLedger, ZeroRetriesQuarantinesOnFirstFailure) {
  auto policy = fast_policy();
  policy.max_retries = 0;
  AttemptLedger ledger{1, policy};
  EXPECT_EQ(ledger.charge(0, Clock::now()),
            AttemptLedger::Verdict::kQuarantine);
  EXPECT_EQ(ledger.retried(), 0);
}

TEST(AttemptLedger, BackoffGatesEligibilityAndGrowsExponentially) {
  auto policy = fast_policy();
  policy.max_retries = 10;
  AttemptLedger ledger{1, policy};
  const auto now = Clock::now();

  ASSERT_EQ(ledger.charge(0, now), AttemptLedger::Verdict::kRetry);
  const auto first_gate = ledger.eligible_at(0);
  // Jitter factor is in [1, 1.5): base 10ms -> gate within [10ms, 15ms).
  EXPECT_GE(first_gate - now, std::chrono::milliseconds(10));
  EXPECT_LT(first_gate - now, std::chrono::milliseconds(15));
  EXPECT_FALSE(ledger.eligible(0, now));
  EXPECT_TRUE(ledger.eligible(0, now + std::chrono::milliseconds(20)));

  ASSERT_EQ(ledger.charge(0, now), AttemptLedger::Verdict::kRetry);
  const auto second_gate = ledger.eligible_at(0);
  // Second failure doubles the base: [20ms, 30ms).
  EXPECT_GE(second_gate - now, std::chrono::milliseconds(20));
  EXPECT_LT(second_gate - now, std::chrono::milliseconds(30));

  // Deep failure counts saturate at backoff_max_s (x jitter < 1.5).
  for (int i = 0; i < 6; ++i) ledger.charge(0, now);
  EXPECT_LT(ledger.eligible_at(0) - now, std::chrono::milliseconds(150));
}

TEST(AttemptLedger, JitterIsDeterministicPerSeed) {
  const auto now = Clock::now();
  const auto gates_for = [&now](std::uint64_t seed) {
    auto policy = fast_policy();
    policy.max_retries = 5;
    policy.jitter_seed = seed;
    AttemptLedger ledger{3, policy};
    std::vector<Clock::duration> gates;
    for (int i = 0; i < 3; ++i) {
      ledger.charge(i, now);
      gates.push_back(ledger.eligible_at(i) - now);
    }
    return gates;
  };
  EXPECT_EQ(gates_for(7), gates_for(7));    // replayable
  EXPECT_NE(gates_for(7), gates_for(8));    // but actually jittered
}

TEST(AttemptLedger, ValidatesPolicyAndPointCount) {
  auto bad_retries = fast_policy();
  bad_retries.max_retries = -1;
  EXPECT_THROW((AttemptLedger{1, bad_retries}), std::invalid_argument);

  auto bad_backoff = fast_policy();
  bad_backoff.backoff_base_s = -0.5;
  EXPECT_THROW((AttemptLedger{1, bad_backoff}), std::invalid_argument);

  EXPECT_THROW((AttemptLedger{-1, fast_policy()}), std::invalid_argument);

  try {
    AttemptLedger ledger{1, bad_retries};
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("(accepted:"),
              std::string::npos);
  }
}

TEST(AttemptLedgerJournal, RoundTripsChargeStateAcrossLedgers) {
  // The coordinator crash-recovery contract: render on one ledger,
  // restore into a fresh one, and the charge counts (plus the retried
  // total) survive — with every restored point immediately eligible, so
  // the resumed coordinator can hand the poison point straight out.
  AttemptLedger ledger{4, fast_policy()};
  const auto now = Clock::now();
  ledger.charge(1, now);
  ledger.charge(3, now);
  ledger.charge(3, now);
  const std::string journal = ledger.render_journal();

  AttemptLedger restored{4, fast_policy()};
  ASSERT_TRUE(restored.restore_journal(journal));
  EXPECT_EQ(restored.failures(0), 0);
  EXPECT_EQ(restored.failures(1), 1);
  EXPECT_EQ(restored.failures(2), 0);
  EXPECT_EQ(restored.failures(3), 2);
  EXPECT_EQ(restored.retried(), ledger.retried());
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(restored.eligible(i, Clock::now()));
  // The next charge continues where the dead coordinator stopped:
  // point 3 already spent both retries, so this one quarantines.
  EXPECT_EQ(restored.charge(3, Clock::now()),
            AttemptLedger::Verdict::kQuarantine);
}

TEST(AttemptLedgerJournal, FreshLedgerRendersAnEmptyChargeTable) {
  AttemptLedger ledger{3, fast_policy()};
  EXPECT_EQ(ledger.render_journal(), "sos-attempt-ledger v1\nretried = 0\n");
  AttemptLedger restored{3, fast_policy()};
  EXPECT_TRUE(restored.restore_journal(ledger.render_journal()));
  EXPECT_EQ(restored.retried(), 0);
}

TEST(AttemptLedgerJournal, RestoreRejectsMalformedJournalsWithoutMutating) {
  AttemptLedger ledger{2, fast_policy()};
  ledger.charge(0, Clock::now());
  const std::vector<std::string> bad{
      "",                                          // empty
      "sos-attempt-ledger v2\nretried = 0\n",      // wrong version
      "sos-attempt-ledger v1\n",                   // missing retried
      "sos-attempt-ledger v1\nretried = -1\n",     // negative total
      "sos-attempt-ledger v1\nretried = 0\nfailures = 9 1\n",   // index OOB
      "sos-attempt-ledger v1\nretried = 0\nfailures = 0 0\n",   // count < 1
      "sos-attempt-ledger v1\nretried = 0\nfailures = x 1\n",   // non-numeric
      "sos-attempt-ledger v1\nretried = 0\nunknown = 1\n",      // junk field
  };
  for (const auto& journal : bad) {
    EXPECT_FALSE(ledger.restore_journal(journal)) << journal;
    EXPECT_EQ(ledger.failures(0), 1) << "rejected restore mutated state";
  }
}

}  // namespace
}  // namespace sos::campaign
