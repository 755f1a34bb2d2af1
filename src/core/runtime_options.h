// bds::RuntimeOptions — the one place for execution-environment knobs.
//
// Every distributed algorithm config embeds these execution-environment
// knobs (threads, seed, transport, ...) as a `runtime` member — one
// vocabulary for "how a run executes" shared by every algorithm, as opposed
// to the per-algorithm "what to compute" fields beside it.
//
// RuntimeOptions also carries the simulator's fault-injection and tracing
// controls (dist/faults.h, dist/trace.h): a FaultPlan + RetryPolicy pair
// and an optional per-round TraceSink, forwarded into dist::ClusterOptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/distributed.h"
#include "core/round_spec.h"

namespace bds {

// Which ClusterTransport backend (dist/transport.h) executes worker
// attempts. Selections and eval accounting are bit-identical across
// backends for every declarative (non-custom) worker; kProcess makes the
// paper's machines literal OS processes speaking the dist/wire.h protocol.
enum class TransportKind : std::uint8_t {
  kInProcess = 0,  // default: workers run as closures on the host pool
  kProcess,        // one forked bds_worker per logical machine
};

// Provisioning for TransportKind::kProcess. Worker processes hold no
// coordinator memory, so the corpus must be re-loadable machine-locally:
// `corpus_spec` is a serialized data::CorpusSpec (data/corpus.h) each
// worker materializes its prototype oracle from at handshake.
struct ProcessTransportOptions {
  // Worker binary path; empty resolves $BDS_WORKER, then "bds_worker"
  // next to the current executable.
  std::string worker_binary;
  std::string corpus_spec;
};

struct RuntimeOptions {
  // --- host execution ---
  std::size_t threads = 0;   // simulator host threads; 0 = hardware default
  std::uint64_t seed = 1;    // partitioning / stochastic-selector seed

  // Harness preference: when the dataset comes from a file, mmap it
  // zero-copy (data/io.h map_*) instead of heap loading it. Selections are
  // bit-identical either way; this only changes where the CSR bytes live.
  // Consumed by the drivers that own dataset loading (bds_cli,
  // bench_support.h) — the executor itself never touches dataset files.
  bool mmap_datasets = false;

  // --- execution backend (dist/transport.h) ---
  TransportKind transport = TransportKind::kInProcess;
  ProcessTransportOptions process;  // consulted only under kProcess

  // --- fault injection / retry / tracing (dist/faults.h, dist/trace.h) ---
  dist::FaultPlan faults;    // all-healthy default == fault-free executor
  dist::RetryPolicy retry;
  dist::TraceSink trace_sink;

  // --- checkpoint / resume (core/round_spec.h, dist/engine.h) ---
  // Invoked by the round engine after every completed round with a
  // serializable snapshot of coordinator state.
  CheckpointSink checkpoint_sink;
  // Continue a prior run from this snapshot instead of starting fresh. The
  // engine validates the program id and seed, restores coordinator state
  // and stats, and re-derives the remaining rounds — producing exactly the
  // uninterrupted run's output. Drivers that compose engine runs (adaptive)
  // clear this for their inner rounds.
  std::shared_ptr<const Checkpoint> resume_from;
  // Testing/ops hook: stop after this many rounds have completed (1-based;
  // 0 = run to completion). The run returns its partial result — final
  // merge stages are skipped — after the round's checkpoint is emitted.
  std::size_t halt_after_round = 0;

  // The subset the cluster simulator consumes.
  dist::ClusterOptions cluster_options() const {
    return dist::ClusterOptions{threads, faults, retry, trace_sink, nullptr};
  }
};

}  // namespace bds
