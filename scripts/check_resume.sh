#!/usr/bin/env bash
# Checkpoint/resume equivalence through the real CLI: for each multi-round
# engine-backed algorithm, a run halted after round 1 (writing
# --checkpoint-dir) and resumed from its checkpoint must print exactly the
# same result summary as the uninterrupted run. Complements the in-process
# tests in tests/test_engine.cpp by exercising the file format and flag
# plumbing end-to-end. The selection lines (items, f(S), rounds) and the
# exact oracle-eval total must match the uninterrupted run line for line.
#
# usage: scripts/check_resume.sh path/to/bds_cli
set -euo pipefail

CLI="${1:?usage: check_resume.sh path/to/bds_cli}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

DATASET=(--dataset synthetic --universe 2000 --planted 40 --decoys 2000
         --seed 3)

summary() {
  # The deterministic lines of the report (drop wall time / eval seconds).
  "$CLI" "${DATASET[@]}" "$@" |
    grep -E 'items output|f\(S\)|rounds|oracle evals \(total\)'
}

check() {
  local name="$1"
  shift
  echo "== ${name}"
  summary "$@" > "${workdir}/full.txt"
  "$CLI" "${DATASET[@]}" "$@" --checkpoint-dir "${workdir}" \
    --halt-after-round 1 > /dev/null
  summary "$@" --resume "${workdir}/checkpoint.bds" > "${workdir}/resumed.txt"
  diff -u "${workdir}/full.txt" "${workdir}/resumed.txt"
}

check bicriteria --algorithm bicriteria --k 5 --rounds 3 --output 12
check hybrid     --algorithm hybrid --k 4 --rounds 3 --eps 0.3
check naive      --algorithm naive --k 5 --eps 0.1
check parallel   --algorithm parallel --k 5 --eps 0.3
check scaling    --algorithm scaling --k 6 --eps 0.25

echo "checkpoint/resume: all algorithms reproduce the uninterrupted run"
