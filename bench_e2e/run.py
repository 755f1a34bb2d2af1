#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

One workload, the form BENCHMARK.json's command takes (the last line of
stdout is the run's JSON result; the exit code is the bench's):

  python3 bench_e2e/run.py --workload coverage-inproc --seed 1 --seconds 24 --trace 0

Every workload, each in its own process, repeated R times on seed S, with
a combined report and an optional diff against a committed baseline (exit 2
when the baseline was measured with other seeds, seconds or trace):

  python3 bench_e2e/run.py --all --seed 1 --runs 10 --json report.json
  python3 bench_e2e/run.py --all --seed 1 --runs 10 --baseline bench_e2e/baseline.json

Correctness only, toy sizes, every workload in one process:

  python3 bench_e2e/run.py --smoke

The build goes to .bench_build/ at the repository root; generated corpora
are written under it and removed after each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(BUILD, "data")
BINARY = os.path.join(BUILD, "bench_e2e")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# End-to-end metrics that are a pure function of the seed.
EXACT = {"certified_ratio"}


def build():
    """Configures once; CMake decides what, if anything, to rebuild."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the library sources (src/) are not next to "
                 "bench_e2e/; there is nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def bench_command(workload, seed, seconds, trace, smoke=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--data-dir", DATA]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    return cmd


def run_bench(cmd, capture):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {' '.join(cmd)} exceeded {RUN_TIMEOUT_S} s")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec):
    """Each workload in its own process, `runs` times on one seed.

    Repeats of one seed keep the inputs fixed, so the quartiles measure the
    host's noise alone.
    """
    workloads = [w["name"] for w in spec["workloads"]]
    report = {"seeds": [args.seed] * args.runs,
              "seconds": args.seconds, "trace": args.trace, "host": [],
              "workloads": {}}
    ok = True
    seed = args.seed
    for _ in range(args.runs):
        for w in workloads:
            done = run_bench(bench_command(w, seed, args.seconds, args.trace),
                             capture=True)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"run.py: {w} seed {seed} exited {done.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            if not report["host"]:
                report["host"] = [l[len("# host "):] for l in lines
                                  if l.startswith("# host ")]
            result = json.loads(lines[-1])
            entry = report["workloads"].setdefault(
                w, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                entry["metrics"].setdefault(
                    name, {"unit": m["unit"], "values": []})["values"].append(
                        m["value"])
    for entry in report["workloads"].values():
        for m in entry["metrics"].values():
            m["q1"], m["median"], m["q3"] = quartiles(m["values"])
    return report, ok


def diff_baseline(report, baseline, spec):
    """Verdict per workload x end-to-end metric, against the spec's bounds.

    better / worse: the median moved by more than the bound; within: it did
    not; unresolved: the baseline's own quartile spread is wider than the
    bound, so a move of the bound's size cannot be told from noise. EXACT
    metrics are deterministic for a seed: any move is better or worse.
    """
    worse = False
    print(f"{'workload':18} {'metric':18} {'baseline':>12} {'now':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        bound = 0.0 if name in EXACT else metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for w, entry in report["workloads"].items():
            now = entry["metrics"].get(name)
            base = baseline["workloads"].get(w, {}).get("metrics", {}).get(name)
            if not now or not base or base["median"] == 0:
                continue
            change = (now["median"] - base["median"]) / base["median"]
            spread = (base["q3"] - base["q1"]) / abs(base["median"])
            if spread > bound:
                verdict = "unresolved"
            elif sign * change > bound:
                verdict = "worse"
                worse = True
            elif sign * change < -bound:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{w:18} {name:18} {base['median']:12.6g} "
                  f"{now['median']:12.6g} {change:+8.1%} {bound:6.2f}  "
                  f"{verdict}")
    return not worse


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="every workload, each in its own process")
    p.add_argument("--runs", type=int, default=1,
                   help="with --all: runs per workload, all on --seed")
    p.add_argument("--json", help="with --all: write the combined report here")
    p.add_argument("--baseline",
                   help="with --all: diff against this report; exit 1 on worse")
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes, every correctness check, all workloads")
    args = p.parse_args()
    if not (args.smoke or args.all or args.workload):
        p.error("give --workload NAME, --all or --smoke")

    build()
    if args.smoke:
        done = run_bench(bench_command("all", args.seed, None, 0, smoke=True),
                         capture=False)
        sys.exit(done.returncode)
    with open(SPEC) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.all:
        done = run_bench(bench_command(args.workload, args.seed, args.seconds,
                                       args.trace), capture=False)
        sys.exit(done.returncode)

    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        wanted = {"seeds": [args.seed] * args.runs, "seconds": args.seconds,
                  "trace": args.trace}
        for key, value in wanted.items():
            if baseline.get(key) != value:
                print(f"run.py: the baseline was measured with {key} "
                      f"{baseline.get(key)}, this run would use {value}; "
                      f"rerun with the baseline's settings", file=sys.stderr)
                sys.exit(2)
    report, ok = run_all(args, spec)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if baseline:
        ok &= diff_baseline(report, baseline, spec)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
