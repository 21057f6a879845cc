#!/usr/bin/env bash
# Pins the sos_campaign exit-code contract (documented in `sos_campaign
# help`):
#
#   run:      0 complete, 3 completed degraded (quarantined points),
#             4 fleet unreachable (--distributed with no workers),
#             5 store corrupt (output assembly refused a damaged object)
#   serve:    4 fleet unreachable (no coordinator to connect to)
#   status:   0 complete, 2 pending points remain, 3 quarantined present,
#             5 corrupt objects present
#   fsck:     0 store clean, 3 corrupt objects found or unhealed
#   optimize: 0 frontier validated, 2 unvalidated winners pending
#             (--search-only / --status before validation), 3 winner
#             validation quarantined (degraded)
#
# Scripts (run_all.sh --distributed, CI gates) branch on these numbers, so
# they are API: this test drives the real binary through complete, pending,
# quarantined, corrupted and crash-resumed stores and asserts each code.
#
# Usage: cli_exit_codes_test.sh <path-to-sos_campaign>
set -uo pipefail

cli="${1:?usage: cli_exit_codes_test.sh <path-to-sos_campaign>}"
work="$(mktemp -d "${TMPDIR:-/tmp}/sos_cli_exit_XXXXXX")"
trap 'rm -rf "$work"' EXIT

failures=0
expect_rc() {
  local want="$1" got="$2" what="$3"
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $what: expected exit $want, got $got" >&2
    failures=$((failures + 1))
  else
    echo "ok: $what -> exit $got"
  fi
}

# A tiny 4-point sweep, cheap enough to run many times.
spec="$work/tiny.spec"
cat > "$spec" <<'EOF'
campaign = clitiny
mode = sweep
n = 1000
mc_trials = 2
mc_walks = 2
seed = 7
layers = 1,3
mappings = one-to-one
break_in = 0,50
congestion = 200
EOF

# help exits 0 and documents the contract.
"$cli" help > "$work/help.txt" 2>&1
expect_rc 0 $? "help"
grep -q "exit codes:" "$work/help.txt" || {
  echo "FAIL: help does not document exit codes" >&2
  failures=$((failures + 1))
}

# Usage errors exit 2.
"$cli" run > /dev/null 2>&1
expect_rc 2 $? "run without a spec (usage error)"

# Hard errors (missing manifest) exit 1.
"$cli" status "$work/empty-store" > /dev/null 2>&1
expect_rc 1 $? "status on a store with no manifest"

# A complete run exits 0, and status over its store exits 0.
"$cli" run "$spec" --store="$work/store" --results="$work/results" \
  > /dev/null 2>&1
expect_rc 0 $? "clean run"
"$cli" status "$work/store" > /dev/null 2>&1
expect_rc 0 $? "status of a complete store"

# An interrupted run leaves pending points: status exits 2.
"$cli" run "$spec" --store="$work/partial" --results="$work/results" \
  --abort-after=2 > /dev/null 2>&1  # SIGKILLs itself; rc is the signal
"$cli" status "$work/partial" > "$work/partial_status.txt" 2>&1
expect_rc 2 $? "status with pending points"
grep -q "pending:" "$work/partial_status.txt" || {
  echo "FAIL: pending status does not list pending points" >&2
  failures=$((failures + 1))
}

# A distributed run whose workers always die quarantines every point:
# run exits 3 (degraded), status exits 3, and status lists the records.
"$cli" run "$spec" --store="$work/degraded" --results="$work/results" \
  --distributed --max-retries=1 --backoff-base=0.01 --backoff-max=0.05 \
  --chaos-bad-exit=1.0 --chaos-max-fires=0 > "$work/degraded_run.txt" 2>&1
expect_rc 3 $? "distributed run degraded by certain worker faults"
"$cli" status "$work/degraded" > "$work/degraded_status.txt" 2>&1
expect_rc 3 $? "status with quarantined points"
grep -q "quarantined:" "$work/degraded_status.txt" || {
  echo "FAIL: degraded status does not list quarantined points" >&2
  failures=$((failures + 1))
}

# Retry path: faults on the first attempt only -> the campaign completes
# (exit 0) and its store reads complete (exit 0). The SIGKILLed workers
# must leave nothing behind in their temporary directory.
mkdir -p "$work/tmp"
TMPDIR="$work/tmp" "$cli" run "$spec" --store="$work/retried" \
  --results="$work/results" --distributed --backoff-base=0.01 \
  --backoff-max=0.05 --chaos-sigkill=1.0 > /dev/null 2>&1
expect_rc 0 $? "distributed run that retries past first-attempt faults"
"$cli" status "$work/retried" > /dev/null 2>&1
expect_rc 0 $? "status after distributed recovery"
if compgen -G "$work/tmp/sos-serve-*" > /dev/null; then
  echo "FAIL: killed serve workers left directories in TMPDIR" >&2
  failures=$((failures + 1))
else
  echo "ok: killed serve workers left nothing in TMPDIR"
fi

# Quarantine is not a tombstone: a later run without chaos recomputes the
# quarantined points and clears the records.
"$cli" run "$spec" --store="$work/degraded" --results="$work/results" \
  --distributed --backoff-base=0.01 --backoff-max=0.05 > /dev/null 2>&1
expect_rc 0 $? "distributed rerun recovers the quarantined store"
"$cli" status "$work/degraded" > /dev/null 2>&1
expect_rc 0 $? "status after quarantine recovery"

# A distributed run completes exit 0 and its store is byte-identical to
# the plain run's (same spec, same content-addressed objects).
"$cli" run "$spec" --store="$work/dist" --results="$work/results" \
  --distributed --local-workers=2 --points-per-assign=2 \
  --heartbeat-interval=0.02 --backoff-base=0.01 --backoff-max=0.05 \
  > /dev/null 2>&1
expect_rc 0 $? "distributed run"
"$cli" status "$work/dist" > /dev/null 2>&1
expect_rc 0 $? "status of a distributed store"
if ! diff <(cd "$work/store/objects" && ls -1 && cat ./*) \
          <(cd "$work/dist/objects" && ls -1 && cat ./*) > /dev/null; then
  echo "FAIL: distributed store differs from the in-process store" >&2
  failures=$((failures + 1))
else
  echo "ok: distributed store is byte-identical to the in-process store"
fi

# A distributed coordinator with no workers at all exits 4 once the
# registration timeout lapses.
"$cli" run "$spec" --store="$work/unreach" --results="$work/results" \
  --distributed --local-workers=0 --registration-timeout=0.3 \
  > /dev/null 2>&1
expect_rc 4 $? "distributed run with an unreachable fleet"

# serve against a dead endpoint exits 4 (after its connect budget), and
# serve without --connect is a usage error.
"$cli" serve --connect=127.0.0.1:9 --connect-timeout=0.2 > /dev/null 2>&1
expect_rc 4 $? "serve with no coordinator listening"
"$cli" serve > /dev/null 2>&1
expect_rc 2 $? "serve without --connect (usage error)"

# Out-of-range executor inputs are rejected, never truncated or spun on:
# a listen port past 65535 is a usage error (like serve's bad --connect
# port), and a non-positive serve heartbeat interval is refused (like the
# coordinator's --heartbeat-interval=0).
"$cli" run "$spec" --store="$work/badport" --results="$work/results" \
  --distributed --listen-port=70000 > /dev/null 2>&1
expect_rc 2 $? "distributed run with --listen-port out of range"
"$cli" serve --connect=127.0.0.1:9 --heartbeat-interval=0 > /dev/null 2>&1
expect_rc 1 $? "serve with a non-positive --heartbeat-interval"

# Distributed chaos: first-attempt network faults retry to completion.
"$cli" run "$spec" --store="$work/dist-chaos" --results="$work/results" \
  --distributed --local-workers=2 --points-per-assign=2 \
  --heartbeat-interval=0.02 --heartbeat-timeout=0.5 \
  --backoff-base=0.01 --backoff-max=0.05 \
  --chaos-net-drop=0.5 --chaos-net-duplicate=0.3 > /dev/null 2>&1
expect_rc 0 $? "distributed run that retries past network chaos"
"$cli" status "$work/dist-chaos" > /dev/null 2>&1
expect_rc 0 $? "status after distributed chaos recovery"

# --- Store integrity: fsck's 0/3 contract and run/status exit 5. ---

# fsck on a clean complete store exits 0.
"$cli" fsck "$work/store" > /dev/null 2>&1
expect_rc 0 $? "fsck of a clean store"

# A distributed run whose coordinator bit-flips every stored object
# (object_bitflip chaos at p=1.0) refuses to assemble outputs: exit 5.
"$cli" run "$spec" --store="$work/corrupt" --results="$work/results" \
  --distributed --local-workers=2 --points-per-assign=2 \
  --heartbeat-interval=0.02 --backoff-base=0.01 --backoff-max=0.05 \
  --chaos-object-bitflip=1.0 --chaos-max-fires=1 > /dev/null 2>&1
expect_rc 5 $? "run over a store corrupted at rest"

# fsck finds and quarantines the damage: exit 3, and it names the objects.
"$cli" fsck "$work/corrupt" > "$work/fsck.txt" 2>&1
expect_rc 3 $? "fsck of a corrupted store"
grep -q "corrupt:" "$work/fsck.txt" || {
  echo "FAIL: fsck does not list the corrupt objects" >&2
  failures=$((failures + 1))
}

# status over the quarantined-corrupt store reports it too: exit 5
# (corrupt outranks quarantined outranks pending).
"$cli" status "$work/corrupt" > /dev/null 2>&1
expect_rc 5 $? "status with corrupt objects present"

# One clean re-run recomputes exactly the damaged points and heals the
# store to byte-identical with the plain run's.
"$cli" run "$spec" --store="$work/corrupt" --results="$work/results" \
  --distributed --local-workers=2 --points-per-assign=2 \
  --heartbeat-interval=0.02 --backoff-base=0.01 --backoff-max=0.05 \
  > /dev/null 2>&1
expect_rc 0 $? "clean re-run heals the corrupted store"
"$cli" fsck "$work/corrupt" > /dev/null 2>&1
expect_rc 0 $? "fsck after healing"
if ! diff <(cd "$work/store/objects" && ls -1 && cat ./*) \
          <(cd "$work/corrupt/objects" && ls -1 && cat ./*) > /dev/null; then
  echo "FAIL: healed store differs from the clean-run store" >&2
  failures=$((failures + 1))
else
  echo "ok: healed store is byte-identical to the clean-run store"
fi

# --- Coordinator crash-recovery: SIGKILL + --resume on a fixed port. ---

# coordinator_kill chaos at p=1.0 (one fire per point) SIGKILLs the real
# coordinator mid-run; each restart with --resume on the SAME port picks
# up the journal and the surviving store. The loop must settle within
# points+1 runs, and the final store must match the plain run's bytes.
ckill_port=38917
ckill_runs=0
ckill_rc=-1
while [[ $ckill_runs -lt 6 ]]; do
  "$cli" run "$spec" --store="$work/ckill" --results="$work/results" \
    --distributed --local-workers=2 --points-per-assign=1 \
    --listen-port=$ckill_port --heartbeat-interval=0.02 \
    --backoff-base=0.01 --backoff-max=0.05 \
    --chaos-coordinator-kill=1.0 --chaos-max-fires=1 --resume \
    > /dev/null 2>&1
  ckill_rc=$?
  ckill_runs=$((ckill_runs + 1))
  [[ $ckill_rc -eq 0 ]] && break
  if [[ $ckill_rc -ne 137 ]]; then
    echo "FAIL: coordinator-kill run $ckill_runs: expected SIGKILL (137)" \
         "or success, got $ckill_rc" >&2
    failures=$((failures + 1))
    break
  fi
done
expect_rc 0 $ckill_rc "coordinator-kill campaign settles under --resume"
"$cli" status "$work/ckill" > /dev/null 2>&1
expect_rc 0 $? "status after coordinator crash-recovery"
if ! diff <(cd "$work/store/objects" && ls -1 && cat ./*) \
          <(cd "$work/ckill/objects" && ls -1 && cat ./*) > /dev/null; then
  echo "FAIL: crash-recovered store differs from the clean-run store" >&2
  failures=$((failures + 1))
else
  echo "ok: crash-recovered store is byte-identical to the clean-run store"
fi

# --- The optimize subcommand's contract. ---

# A tiny design-space search with a light validation load.
ospec="$work/tiny.optimize"
cat > "$ospec" <<'EOF'
optimize = clifrontier
n = 1000
filters = 8
layers = 2, 3
sos = 24
mappings = one-to-one, one-to-all
distributions = even
attacker = one-burst
budget_total = 300
budget_break_in_cost = 4
budget_congestion_cost = 1
split_steps = 11
validate_trials = 8
mc_walks = 2
seed = 7
EOF

# Usage / hard errors mirror run's.
"$cli" optimize > /dev/null 2>&1
expect_rc 2 $? "optimize without a spec (usage error)"
"$cli" optimize "$work/no-such.optimize" > /dev/null 2>&1
expect_rc 1 $? "optimize with a missing spec file"

# --search-only computes the frontier but validates nothing: exit 2, and
# --status over the same store still sees every winner pending.
"$cli" optimize "$ospec" --store="$work/opt" --results="$work/results" \
  --search-only > /dev/null 2>&1
expect_rc 2 $? "optimize --search-only (winners pending)"
"$cli" optimize "$ospec" --store="$work/opt" --results="$work/results" \
  --status > /dev/null 2>&1
expect_rc 2 $? "optimize --status before validation"

# A full run validates every winner through the store: exit 0; the rerun
# and --status are warm and also 0.
"$cli" optimize "$ospec" --store="$work/opt" --results="$work/results" \
  > "$work/opt_run.txt" 2>&1
expect_rc 0 $? "optimize run with validated frontier"
grep -q "frontier:" "$work/opt_run.txt" || {
  echo "FAIL: optimize run does not report the frontier" >&2
  failures=$((failures + 1))
}
"$cli" optimize "$ospec" --store="$work/opt" --results="$work/results" \
  --status > /dev/null 2>&1
expect_rc 0 $? "optimize --status of a validated store"
[[ -f "$work/results/clifrontier_frontier.csv" ]] || {
  echo "FAIL: optimize did not write the frontier CSV" >&2
  failures=$((failures + 1))
}

# Distributed validation whose workers always die quarantines the winners:
# exit 3, and a clean distributed rerun recovers to 0.
"$cli" optimize "$ospec" --store="$work/opt-degraded" \
  --results="$work/results" --distributed --max-retries=1 \
  --backoff-base=0.01 --backoff-max=0.05 \
  --chaos-bad-exit=1.0 --chaos-max-fires=0 > /dev/null 2>&1
expect_rc 3 $? "optimize with quarantined winner validation"
"$cli" optimize "$ospec" --store="$work/opt-degraded" \
  --results="$work/results" --distributed \
  --backoff-base=0.01 --backoff-max=0.05 > /dev/null 2>&1
expect_rc 0 $? "optimize distributed rerun recovers the quarantine"

if [[ "$failures" != 0 ]]; then
  echo "$failures exit-code contract violation(s)" >&2
  exit 1
fi
echo "exit-code contract holds"
