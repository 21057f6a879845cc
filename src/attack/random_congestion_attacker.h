// The baseline attacker of the original SOS paper [Keromytis et al.,
// SIGCOMM'02]: no intelligence at all — N_C overlay nodes congested
// uniformly at random, filters untouched.
#pragma once

#include "attack/attack_outcome.h"
#include "common/rng.h"
#include "sosnet/sos_overlay.h"

namespace sos::attack {

class RandomCongestionAttacker {
 public:
  explicit RandomCongestionAttacker(int congestion_budget)
      : congestion_budget_(congestion_budget) {}

  AttackOutcome execute(sosnet::SosOverlay& overlay, common::Rng& rng) const;

 private:
  int congestion_budget_;
};

}  // namespace sos::attack
