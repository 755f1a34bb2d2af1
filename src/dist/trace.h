// Structured round tracing for the cluster simulator.
//
// Every Cluster round records a RoundSpan: wall-clock phase timings
// (scatter / map / gather / filter), one MachineSpan per logical machine
// with its full attempt history (injected-fault tags, per-attempt evals and
// seconds, retry backoff), and the degradation record (which shards went
// unheard). The spans live inside ExecutionStats — they travel with every
// DistributedResult for free — and serialize to JSON for the bench
// harness's --trace flag and external tooling.
//
// Span *structure* (attempts, faults, evals, retries, unheard sets) is
// deterministic under a fixed FaultPlan; the seconds fields are host
// wall-clock measurements and are not part of the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/faults.h"

namespace bds::dist {

// One worker execution attempt on one machine.
struct AttemptSpan {
  std::size_t attempt = 1;              // 1-based
  FaultKind fault = FaultKind::kNone;   // injected-fault tag
  bool delivered = false;               // summary reached the coordinator
  std::uint64_t evals = 0;              // oracle evaluations this attempt
  double seconds = 0.0;                 // wall clock, straggler-inflated
  double backoff_seconds = 0.0;         // charged after a failed attempt
  // Transport wire traffic for this attempt (request / response frames,
  // headers included); 0 under the in-process backend.
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
};

// One machine's history within one round.
struct MachineSpan {
  std::size_t machine = 0;
  bool heard = true;       // false: retry budget exhausted, shard unheard
  bool degraded = false;   // delivered, but the summary was truncated
  std::size_t summary_size = 0;  // ids actually delivered
  std::vector<AttemptSpan> attempts;
};

// One scatter -> map -> gather -> filter round.
struct RoundSpan {
  std::size_t round_index = 0;
  double scatter_seconds = 0.0;  // shard bookkeeping before workers start
  double map_seconds = 0.0;      // parallel worker phase (incl. retries)
  double gather_seconds = 0.0;   // aggregation of delivered reports
  double filter_seconds = 0.0;   // coordinator stage (record_central_stage)
  std::uint64_t retries = 0;             // re-executions across machines
  std::uint64_t faults_injected = 0;     // fault events across attempts
  // Which ClusterTransport backend executed the round's attempts
  // ("inproc", "process") and the round's summed wire traffic across all
  // attempts — 0 bytes for in-process, where nothing is serialized. Lets
  // BENCH and trace consumers attribute comms cost per round.
  std::string transport;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  std::vector<std::size_t> unheard;      // machines that never delivered
  std::vector<MachineSpan> machines;
};

// The whole execution's spans, in round order.
struct ExecutionTrace {
  std::vector<RoundSpan> rounds;

  bool empty() const noexcept { return rounds.empty(); }
};

// Per-round callback, invoked when a round's span completes (at
// record_central_stage). The span reference is valid only for the call.
using TraceSink = std::function<void(const RoundSpan&)>;

// JSON serialization: {"rounds": [...]} with one object per RoundSpan.
// Machine attempt lists are elided for clean single-attempt machines to
// keep healthy traces compact; faulted machines carry full attempt spans.
std::string trace_to_json(const ExecutionTrace& trace);

// One served query's life in the summary service (serve/service.h): how it
// was admitted and answered, with queueing/compute/total latency split out.
// `outcome` is the service's ServeOutcome name ("hit", "coalesced",
// "computed", "degraded", "rejected"); seconds fields are wall clock and,
// like RoundSpan timings, not part of the determinism contract.
struct QuerySpan {
  std::uint64_t query_id = 0;
  std::string tenant;
  std::string outcome;
  std::size_t budget_k = 0;
  std::size_t items = 0;       // items actually served
  double queue_seconds = 0.0;  // admission until compute start (0 for hits)
  double run_seconds = 0.0;    // cache-miss computation (0 for hits)
  double total_seconds = 0.0;  // submit to answer
  // Corpus epoch the answer (or mutation) applies to; 0 for frozen corpora.
  std::uint64_t epoch = 0;
  // Mutation spans only (outcome "mutate-insert" / "mutate-erase"): how the
  // invalidate-or-recertify pass decided for this corpus's cached
  // summaries. Query spans leave both at 0.
  std::size_t summaries_recertified = 0;
  std::size_t summaries_invalidated = 0;
};

// JSON serialization: {"queries": [...]} with one object per QuerySpan.
std::string query_spans_to_json(const std::vector<QuerySpan>& spans);

}  // namespace bds::dist
