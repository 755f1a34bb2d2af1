// ClusterTransport — the one seam between "what a round's workers compute"
// and "where they physically run".
//
// dist::Cluster owns the round structure (fault schedule, retries, stats,
// spans). What it delegates is a single worker *attempt*: "execute machine
// i's work over this shard and give me its WorkerOutput". A transport is an
// implementation of that attempt:
//
//   * in-process (make_inproc_transport, the default) — runs the round's
//     WorkerFn closure directly on the calling pool thread. This is the
//     original simulator behaviour and stays the test backend.
//   * multi-process (make_process_transport) — forks/execs one bds_worker
//     process per logical machine and speaks the length-framed, versioned
//     wire protocol of dist/wire.h over a socketpair. The paper's machines
//     become literal: a worker holds only its shard, sees the coordinator
//     state only through the request message, and can be SIGKILL'd without
//     taking the coordinator down (the attempt surfaces as `crashed` and
//     the existing retry machinery re-runs it on a respawned process).
//
// Because in-process workers are closures, a RoundWork carries *two*
// descriptions of the same computation: the closure (`fn`, what the inproc
// backend calls) and a declarative WorkerPlan (what the process backend
// serializes for bds_worker to re-execute through the exact same
// detail::make_machine_worker code path). Both describe bit-identical
// work; the cross-backend golden suite holds the seam to that contract.
//
// Determinism: run_attempt is called concurrently from the cluster's pool
// threads (one machine per thread) and possibly repeatedly per machine
// (retries). A transport must be thread-safe across machines and must
// return a pure function of (round, machine, shard, work) in every field
// the determinism contract covers (summary, eval counts);
// `seconds` and wire-byte counts are reporting, not contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/distributed.h"
#include "dist/cluster.h"
#include "dist/faults.h"
#include "util/element.h"

namespace bds::dist {

// Which canonical worker shape a round runs. Only the two declarative
// shapes cross a process boundary; kCustom work (matroid machines,
// factory-built oracles, ad-hoc test lambdas) exists solely as a closure
// and is rejected by the process backend with an error naming the machine.
enum class WorkerPlanKind : std::uint8_t {
  kSelector = 0,   // greedy / lazy greedy / stochastic greedy over the shard
  kThreshold = 1,  // GreedyScaling's threshold-τ accept pass
  kCustom = 2,     // closure-only; in-process execution required
};

// Declarative, wire-serializable description of one round's worker body —
// everything bds_worker needs to rebuild the in-process worker verbatim:
// the selector knobs of detail::MachineWorkerConfig plus the coordinator's
// committed set (replayed remotely so local gains are marginals on top of
// the same S).
struct WorkerPlan {
  WorkerPlanKind kind = WorkerPlanKind::kCustom;

  // kSelector fields (detail::MachineWorkerConfig mirror).
  MachineSelector selector = MachineSelector::kLazyGreedy;
  double stochastic_c = 3.0;
  bool stop_when_no_gain = true;
  std::size_t budget = 0;

  // kThreshold field (the accept threshold; budget above caps the keeps).
  double threshold = 0.0;

  // Shared execution context.
  std::uint64_t seed = 1;   // base seed; per-machine streams are derived
  std::size_t round = 0;    // round index, mixed into per-machine seeds
  // Reserved flag of the wire v2 plan line; the library leaves it false.
  bool lazy_bounds = false;
  // The coordinator's exact committed set (selection order).
  std::vector<ElementId> committed;
};

// One round's worker work, in both executable forms. `fn` is always set
// and is what the in-process backend runs; `plan` is what the process
// backend ships.
struct RoundWork {
  Cluster::WorkerFn fn;
  WorkerPlan plan;
};

// What one transport attempt produced. `crashed` reports a *real* worker
// death (process exited / socket broke before a response arrived) — the
// cluster maps it to FaultKind::kCrash and retries; the injected-fault
// bookkeeping stays with the cluster.
struct AttemptResult {
  WorkerOutput output;
  double seconds = 0.0;  // worker compute wall clock (reporting only)
  bool crashed = false;
  std::uint64_t wire_bytes_sent = 0;      // 0 for in-process
  std::uint64_t wire_bytes_received = 0;  // 0 for in-process
};

class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  // Stable backend name, recorded into every RoundSpan ("inproc",
  // "process").
  virtual std::string_view name() const noexcept = 0;

  // Executes one worker attempt. `injected` is the cluster's fault decision
  // for this (round, machine, attempt): the in-process backend ignores it
  // (the cluster simulates the fault's effect on delivery), the process
  // backend forwards kCrash so the worker genuinely dies after reporting
  // its telemetry — keeping wasted-eval accounting bit-identical to the
  // simulator while exercising a real respawn on the next attempt.
  // Throws on unrecoverable transport errors (unserializable plan, spawn
  // failure, protocol violation), naming the worker.
  virtual AttemptResult run_attempt(std::size_t round, std::size_t machine,
                                    std::size_t attempt, FaultKind injected,
                                    std::span<const ElementId> shard,
                                    const RoundWork& work) = 0;
};

// The default backend: runs RoundWork::fn on the calling thread.
std::shared_ptr<ClusterTransport> make_inproc_transport();

// Everything the process backend needs to spawn and provision its workers.
struct ProcessTransportConfig {
  std::size_t machines = 1;
  // Ground-set size of the corpus, sent in the handshake.
  std::size_t ground_size = 0;
  // Worker binary path. Empty resolves, in order: $BDS_WORKER, then
  // "bds_worker" next to the current executable.
  std::string worker_binary;
  // Serialized data::CorpusSpec handed to each worker at handshake so it
  // can load the dataset and rebuild the prototype oracle machine-locally.
  std::string corpus_spec;
};

// The multi-process backend: one forked bds_worker per logical machine,
// spawned lazily on first use and reaped on destruction (or respawned
// after a crash). Throws std::runtime_error from run_attempt on protocol
// errors; returns crashed=true for real worker deaths.
std::shared_ptr<ClusterTransport> make_process_transport(
    const ProcessTransportConfig& config);

}  // namespace bds::dist
