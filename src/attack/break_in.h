// Single break-in attempt semantics shared by every intelligent attacker.
//
// An attempt marks the node as attacked in the attacker's books, succeeds
// with probability P_B, and on success (a) flips the node to broken-in and
// (b) hands its neighbor table to the attacker: next-layer SOS nodes are
// disclosed, and for Layer-L victims the filter contacts are disclosed.
// Innocent bystanders can be broken into too — they just have nothing to
// disclose.
#pragma once

#include "attack/attack_outcome.h"
#include "attack/knowledge.h"
#include "common/rng.h"
#include "sosnet/sos_overlay.h"

namespace sos::attack {

/// Returns true when the break-in succeeded. No-op (returns false) if the
/// node was already broken into; congested nodes can still be broken into.
bool attempt_break_in(sosnet::SosOverlay& overlay, int node, double p_break,
                      AttackerKnowledge& knowledge, common::Rng& rng,
                      AttackOutcome& outcome);

/// Dictated-outcome variant for conditioned sampling (sim/sampling.h): same
/// bookkeeping and disclosure semantics as attempt_break_in, but the attempt
/// succeeds iff `succeed` — no RNG draw is consumed and the per-layer
/// hardening factor is ignored (the stratified estimator conditions on a
/// uniform effective P_B across the servlet layer). Returns true when the
/// node was newly broken into.
bool force_break_in(sosnet::SosOverlay& overlay, int node, bool succeed,
                    AttackerKnowledge& knowledge, AttackOutcome& outcome);

}  // namespace sos::attack
