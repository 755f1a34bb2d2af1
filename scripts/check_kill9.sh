#!/usr/bin/env bash
# SIGKILL-survival through the real process transport: run bds_cli with
# --transport process, kill -9 a randomly chosen bds_worker child while the
# run is in flight, and require that (a) the run still exits 0, (b) the
# verbose execution report records the resulting crash fault and its retry,
# and (c) the deterministic result lines — selection, f(S), rounds, and the
# exact oracle-eval total — match a fault-free golden run on the in-process
# transport. This is the end-to-end form of the wire-level crash tests in
# tests/test_transport.cpp: a real worker death surfaces as a closed
# connection, the coordinator respawns the worker, and the retried attempt
# recomputes the identical pure (machine, shard) result.
#
# The kill is inherently racy against run completion, so the script retries
# the whole run until a kill provably lands mid-run (the report shows a
# retry). A landed kill whose report shows no retry would mean the crash
# was swallowed — that is a failure, not a reason to re-roll.
#
# The CLI runs with TMPDIR inside the script's work directory, and every
# process run must leave no bds_cli.<pid>.corpus spill behind, there or in
# /tmp, once it exits.
#
# usage: scripts/check_kill9.sh path/to/bds_cli
set -euo pipefail

CLI="${1:?usage: check_kill9.sh path/to/bds_cli}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
export TMPDIR="${workdir}/tmp"
mkdir "$TMPDIR"

# Fails if the run with pid $1 left its corpus spill behind.
check_no_spill() {
  local left=("$TMPDIR"/bds_cli.*.corpus)
  [ -e "${left[0]}" ] || left=()
  if [ -e "/tmp/bds_cli.$1.corpus" ]; then
    left+=("/tmp/bds_cli.$1.corpus")
  fi
  if [ "${#left[@]}" -gt 0 ]; then
    echo "bds_cli (pid $1) left its corpus spill behind: ${left[*]}" >&2
    rm -f "${left[@]}"
    exit 1
  fi
}

# Large enough that several rounds of real work are in flight when the kill
# arrives; small enough to stay a smoke test.
DATASET=(--dataset synthetic --universe 20000 --planted 80 --decoys 20000
         --seed 3)
ARGS=(--algorithm bicriteria --k 6 --rounds 4 --output 14 --machines 8)
SUMMARY_LINES='items output|f\(S\)|rounds|oracle evals \(total\)'

echo "== golden (in-process transport, fault-free)"
"$CLI" "${DATASET[@]}" "${ARGS[@]}" |
  grep -E "$SUMMARY_LINES" > "${workdir}/golden.txt"

tries=12
for try in $(seq 1 "$tries"); do
  "$CLI" "${DATASET[@]}" "${ARGS[@]}" --transport process --verbose \
    > "${workdir}/run.txt" 2>&1 &
  cli=$!

  # Workers are forked lazily at first use, so spin until one exists, then
  # pick a victim at random.
  victim=""
  for _ in $(seq 1 2000); do
    workers=($(pgrep -P "$cli" bds_worker 2> /dev/null || true))
    if [ "${#workers[@]}" -gt 0 ]; then
      victim="${workers[RANDOM % ${#workers[@]}]}"
      kill -9 "$victim" 2> /dev/null || victim=""
      break
    fi
    kill -0 "$cli" 2> /dev/null || break
    sleep 0.01
  done

  if ! wait "$cli"; then
    echo "bds_cli exited nonzero after SIGKILL (try ${try}):" >&2
    cat "${workdir}/run.txt" >&2
    exit 1
  fi
  check_no_spill "$cli"
  if [ -z "$victim" ]; then
    echo "try ${try}: run finished before a worker could be killed; retrying"
    continue
  fi
  if ! grep -qE 'faults: [0-9]+ injected, [1-9][0-9]* retries' \
      "${workdir}/run.txt"; then
    echo "try ${try}: SIGKILL'd pid ${victim} after its last use" \
         "(no retry recorded); retrying"
    continue
  fi

  echo "try ${try}: SIGKILL'd worker pid ${victim} mid-run"
  grep -E 'faults: ' "${workdir}/run.txt"
  grep -E "$SUMMARY_LINES" "${workdir}/run.txt" > "${workdir}/killed.txt"
  diff -u "${workdir}/golden.txt" "${workdir}/killed.txt"
  echo "kill -9: the retried run reproduced the golden answer"
  exit 0
done

echo "failed to land a SIGKILL mid-run in ${tries} tries" >&2
exit 1
