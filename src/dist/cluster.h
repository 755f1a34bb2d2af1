// In-process simulator of the paper's distributed execution model.
//
// The paper's algorithms run on a MapReduce-style cluster: a coordinator
// scatters the ground set across m workers, every worker runs greedy on its
// shard and returns a summary (a subset of its element ids), and the
// coordinator filters the union. We reproduce that round structure exactly,
// running workers concurrently on a thread pool, and we meter what a real
// deployment would care about:
//
//   * rounds           — coordinator <-> worker interactions (the paper's r);
//   * communication    — element ids shipped worker-ward (scatter) and
//                        coordinator-ward (gather), reported in bytes;
//   * worker load      — per-machine items held and oracle evaluations;
//   * critical path    — Σ over rounds of (slowest worker + coordinator
//                        stage), in both oracle-evaluation and wall-clock
//                        terms. On a real cluster the workers of one round
//                        run simultaneously, so this is the simulated
//                        distributed makespan; it backs the §4.2 speed-up
//                        experiment.
//   * faults           — a seeded FaultPlan (dist/faults.h) injects worker
//                        crashes, lost/truncated summaries and straggler
//                        slowdowns per (round, machine, attempt); a
//                        RetryPolicy re-executes failed machines and, past
//                        the budget, the round continues on the surviving
//                        summaries with the unheard shards recorded.
//
// Determinism contract: a fixed FaultPlan + seed produces bit-identical
// summaries, selections and eval accounting at any host thread count, and
// an all-healthy plan is bit-identical to the fault-free executor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dist/faults.h"
#include "dist/partitioner.h"
#include "dist/thread_pool.h"
#include "dist/trace.h"
#include "util/element.h"

namespace bds::dist {

// Execution backend seam (dist/transport.h): where a worker attempt
// physically runs — in-process closure or a forked bds_worker process.
class ClusterTransport;
struct RoundWork;

// What one worker observes and returns from one execution attempt. This is
// strictly the worker's own view — the cluster stamps timing, retry and
// delivery metadata on top of it (see MachineReport).
struct WorkerOutput {
  std::vector<ElementId> summary;  // elements sent back to the coordinator
  std::uint64_t oracle_evals = 0;  // function evaluations spent by the worker
  // Heap bytes of the worker's oracle state (its clone) —
  // what materializing this machine cost in memory.
  std::uint64_t state_bytes = 0;
  // Reserved sections of the wire v2 response (dist/wire.h): the library's
  // workers leave them empty and zero. Each machine's lazy greedy keeps its
  // bounds to itself.
  std::vector<ElementId> bound_ids;
  std::vector<double> bound_gains;
  std::uint64_t evals_avoided = 0;
};

// Delivery outcome for one machine after faults and retries resolve.
enum class DeliveryStatus : std::uint8_t {
  kDelivered,  // final attempt's summary reached the coordinator intact
  kDegraded,   // delivered, but the summary was truncated by a fault
  kUnheard,    // retry budget exhausted; the shard contributed nothing
};

// What the coordinator sees for one machine in one round: the worker's
// (possibly degraded) output plus the cluster-stamped execution record.
struct MachineReport {
  WorkerOutput worker;             // worker-observed fields (empty if unheard)
  // Cluster-stamped: total wall-clock seconds across attempts, including
  // straggler inflation and retry backoff.
  double seconds = 0.0;
  std::size_t attempts = 1;        // executions of the worker body
  FaultKind last_fault = FaultKind::kNone;  // injected-fault tag (final attempt)
  DeliveryStatus status = DeliveryStatus::kDelivered;

  bool heard() const noexcept { return status != DeliveryStatus::kUnheard; }
  const std::vector<ElementId>& summary() const noexcept {
    return worker.summary;
  }
};

// Accounting for one scatter -> map -> gather -> filter round.
struct RoundStats {
  std::size_t round_index = 0;
  std::size_t machines_used = 0;        // machines that received >= 1 item
  std::uint64_t elements_scattered = 0; // total slots incl. multiplicity
  std::uint64_t elements_gathered = 0;  // summed delivered summary sizes
  // Delivered-work accounting (bit-identical to the fault-free executor for
  // any plan whose retries eventually deliver every machine):
  std::uint64_t worker_evals = 0;       // delivered attempts, summed
  std::uint64_t max_machine_evals = 0;  // slowest delivered attempt
  double max_machine_seconds = 0.0;     // slowest machine incl. retries
  double sum_machine_seconds = 0.0;
  std::uint64_t max_machine_items = 0;
  // Worker oracle memory: bytes of oracle state materialized across the
  // round's machines, and the single largest worker footprint. Workers run
  // clones, so these scale with m·|ground-set state|.
  std::uint64_t bytes_cloned = 0;
  std::uint64_t peak_worker_state_bytes = 0;
  // Fault/retry ledger: work burnt by failed attempts, re-executions,
  // injected fault events, shards that went unheard, and the deterministic
  // backoff charged between attempts.
  std::uint64_t wasted_evals = 0;
  std::uint64_t retries = 0;
  std::uint64_t faults_injected = 0;
  std::size_t machines_unheard = 0;
  double backoff_seconds = 0.0;
  // Coordinator filter stage (recorded via Cluster::record_central_stage).
  std::uint64_t central_evals = 0;
  double central_seconds = 0.0;
  std::uint64_t central_selected = 0;
  // Best-of-machines merge probes: evaluations spent re-scoring candidate
  // machine summaries from scratch against the prototype oracle (the
  // GreeDi-family output rule). Metered separately from central_evals —
  // these probes run on throwaway clones, not the coordinator oracle.
  std::uint64_t merge_evals = 0;
};

// A simple network-cost model for translating the simulator's communication
// counters into modeled cluster time: each round pays a fixed latency (the
// shuffle barrier) plus bytes / bandwidth for its scatter + gather traffic.
struct NetworkModel {
  double round_latency_seconds = 1e-3;       // per-round barrier cost
  double bytes_per_second = 125e6;           // 1 Gbit/s default
};

// Whole-execution accounting across rounds.
struct ExecutionStats {
  std::vector<RoundStats> rounds;
  // Structured per-round spans (phases, attempts, fault tags); see
  // dist/trace.h. Travels with the stats into every DistributedResult.
  ExecutionTrace trace;

  std::size_t num_rounds() const noexcept { return rounds.size(); }
  std::uint64_t total_worker_evals() const noexcept;
  std::uint64_t total_central_evals() const noexcept;
  // Best-of-machines merge probe evaluations across rounds (see
  // RoundStats::merge_evals); not part of total_evals(), which keeps its
  // historical worker + central definition.
  std::uint64_t total_merge_evals() const noexcept;
  std::uint64_t total_evals() const noexcept;
  // Scatter + gather traffic in bytes (sizeof(ElementId) per shipped id).
  std::uint64_t bytes_communicated() const noexcept;
  // Worker oracle state materialized across all rounds / its per-worker peak.
  std::uint64_t total_bytes_cloned() const noexcept;
  std::uint64_t peak_worker_state_bytes() const noexcept;
  // Fault/retry totals across rounds.
  std::uint64_t total_wasted_evals() const noexcept;
  std::uint64_t total_retries() const noexcept;
  std::uint64_t total_faults_injected() const noexcept;
  std::size_t total_machines_unheard() const noexcept;
  // Simulated distributed makespan: slowest worker + coordinator, per round.
  double critical_path_seconds() const noexcept;
  std::uint64_t critical_path_evals() const noexcept;
  // Total sequential work (what a single machine would have to do).
  double total_work_seconds() const noexcept;
  // Modeled distributed wall clock: critical-path compute plus the network
  // model's per-round latency and transfer time.
  double modeled_cluster_seconds(const NetworkModel& network) const noexcept;
};

// Runtime knobs of the simulator itself (host threading, fault injection,
// retry semantics, tracing). bds::RuntimeOptions (core/runtime_options.h)
// carries these plus the algorithm-facing knobs.
struct ClusterOptions {
  // Host threads running workers concurrently; 0 = hardware default.
  std::size_t threads = 0;
  FaultPlan faults;     // all-healthy default == legacy executor
  RetryPolicy retry;
  TraceSink trace_sink; // optional per-round span callback
  // Execution backend for worker attempts; null = the in-process default
  // (dist/transport.h). Shared because the engine builds the backend and
  // the cluster must keep it alive for its own lifetime.
  std::shared_ptr<ClusterTransport> transport;
};

// The simulator. One Cluster instance is reused across the r rounds of an
// algorithm execution; stats accumulate per round.
class Cluster {
 public:
  // machines: logical worker count (the paper's m).
  explicit Cluster(std::size_t machines, const ClusterOptions& options);

  // Legacy shape: fault-free executor with `threads` host threads.
  explicit Cluster(std::size_t machines, std::size_t threads = 0);

  std::size_t machines() const noexcept { return machines_; }
  const FaultPlan& fault_plan() const noexcept { return faults_; }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  // Worker body: given (machine index, shard) produce a WorkerOutput.
  // Invoked concurrently — must not share mutable state across machines —
  // and possibly more than once per round (retries re-execute it), so it
  // must be deterministic in (machine, shard) for retry convergence.
  using WorkerFn =
      std::function<WorkerOutput(std::size_t, std::span<const ElementId>)>;

  // Runs one scatter -> map -> gather round over a prepared partition,
  // injecting the configured faults and retrying failed machines, and
  // returns the per-machine reports (indexed by machine). Starts a new
  // RoundStats entry + RoundSpan; the caller completes them with
  // record_central_stage(). Precondition: partition.size() == machines().
  // Attempts execute on the configured ClusterTransport; the RoundWork form
  // carries the wire-serializable WorkerPlan the process backend needs, the
  // WorkerFn form wraps the closure as in-process-only custom work.
  std::vector<MachineReport> run_round(const Partition& partition,
                                       const RoundWork& work);
  std::vector<MachineReport> run_round(const Partition& partition,
                                       const WorkerFn& worker);

  // The execution backend attempts run on (never null after construction).
  const ClusterTransport& transport() const noexcept { return *transport_; }

  // Records the coordinator's filtering stage for the most recent round,
  // completes the round's trace span and fires the trace sink.
  // Precondition: run_round() has been called at least once.
  void record_central_stage(std::uint64_t evals, double seconds,
                            std::uint64_t selected);

  const ExecutionStats& stats() const noexcept { return stats_; }
  ExecutionStats& mutable_stats() noexcept { return stats_; }

 private:
  // Executes one machine's attempt loop (faults, retries, backoff) and
  // returns its report + span. Deterministic per (round, machine, shard).
  MachineReport run_machine(std::size_t round, std::size_t machine,
                            std::span<const ElementId> shard,
                            const RoundWork& work, MachineSpan& span) const;

  std::size_t machines_;
  FaultPlan faults_;
  RetryPolicy retry_;
  TraceSink trace_sink_;
  std::shared_ptr<ClusterTransport> transport_;
  ThreadPool pool_;
  ExecutionStats stats_;
};

}  // namespace bds::dist
