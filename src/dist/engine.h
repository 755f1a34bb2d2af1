// RoundEngine — the single executor behind every distributed algorithm.
//
// Algorithms declare their rounds as a RoundProgram (core/round_spec.h);
// the engine owns everything the eight hand-copied loops used to own:
//
//   * the coordinator oracle (a clone of the prototype) and its eval-delta
//     accounting;
//   * the dist::Cluster simulator (host threads, fault injection, retries,
//     structured round spans) and the partitioning RNG;
//   * the gather -> filter -> merge stages, RoundTrace construction and
//     uniform central-stage stats (per-round eval *deltas*, so
//     Σ rounds.central_evals always equals the coordinator oracle's total;
//     best-of-machines merge probes are metered into
//     RoundStats::merge_evals);
//   * checkpoint/resume: after each round the engine can serialize
//     coordinator state through RuntimeOptions::checkpoint_sink, and a run
//     started with RuntimeOptions::resume_from continues a killed execution
//     to the exact same output — including under an injected FaultPlan,
//     whose decisions are a pure hash of (round, machine, attempt).
//
// Determinism contract: for a fixed program, runtime and prototype oracle,
// the engine's solution, value and deterministic stats fields are
// bit-identical at any host thread count, and bit-identical to the
// pre-engine per-algorithm loops (tests/test_engine.cpp proves this against
// a frozen copy of the legacy implementations).
#pragma once

#include <span>
#include <string>

#include "core/distributed.h"
#include "core/round_spec.h"
#include "core/runtime_options.h"
#include "objectives/submodular.h"

namespace bds {

// Executes `program` against `proto` / `ground` under `runtime` and returns
// the accumulated result. `proto` must outlive the call; when
// `runtime.resume_from` is set the snapshot is validated (program id,
// seed and format version; std::invalid_argument on mismatch) and the run
// continues after its last completed round.
DistributedResult run_round_program(const SubmodularOracle& proto,
                                    std::span<const ElementId> ground,
                                    const RoundProgram& program,
                                    const RuntimeOptions& runtime);

// Checkpoint file helpers for CLI/tooling (--checkpoint-dir / --resume):
// atomic-enough single-file write (temp + rename) and a loader that throws
// std::runtime_error when the file is unreadable and std::invalid_argument
// when its contents are malformed or version-mismatched.
void save_checkpoint_file(const Checkpoint& checkpoint,
                          const std::string& path);
Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace bds
