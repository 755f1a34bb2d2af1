#include "dist/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "dist/transport.h"
#include "util/timer.h"

namespace bds::dist {

namespace {

std::size_t pool_threads(std::size_t machines, std::size_t threads) {
  // Never spin up more host threads than logical machines.
  return threads == 0
             ? std::min<std::size_t>(
                   machines, std::max<std::size_t>(
                                 1, std::thread::hardware_concurrency()))
             : std::min(threads, machines);
}

}  // namespace

std::uint64_t ExecutionStats::total_worker_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.worker_evals;
  return total;
}

std::uint64_t ExecutionStats::total_central_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.central_evals;
  return total;
}

std::uint64_t ExecutionStats::total_merge_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.merge_evals;
  return total;
}

std::uint64_t ExecutionStats::total_evals() const noexcept {
  return total_worker_evals() + total_central_evals();
}

std::uint64_t ExecutionStats::total_bytes_cloned() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.bytes_cloned;
  return total;
}

std::uint64_t ExecutionStats::peak_worker_state_bytes() const noexcept {
  std::uint64_t peak = 0;
  for (const auto& r : rounds) {
    peak = std::max(peak, r.peak_worker_state_bytes);
  }
  return peak;
}

std::uint64_t ExecutionStats::total_wasted_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.wasted_evals;
  return total;
}

std::uint64_t ExecutionStats::total_retries() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.retries;
  return total;
}

std::uint64_t ExecutionStats::total_faults_injected() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.faults_injected;
  return total;
}

std::size_t ExecutionStats::total_machines_unheard() const noexcept {
  std::size_t total = 0;
  for (const auto& r : rounds) total += r.machines_unheard;
  return total;
}

std::uint64_t ExecutionStats::bytes_communicated() const noexcept {
  std::uint64_t ids = 0;
  for (const auto& r : rounds) {
    ids += r.elements_scattered + r.elements_gathered;
  }
  return ids * sizeof(ElementId);
}

double ExecutionStats::critical_path_seconds() const noexcept {
  double total = 0.0;
  for (const auto& r : rounds) {
    total += r.max_machine_seconds + r.central_seconds;
  }
  return total;
}

std::uint64_t ExecutionStats::critical_path_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) {
    total += r.max_machine_evals + r.central_evals;
  }
  return total;
}

double ExecutionStats::total_work_seconds() const noexcept {
  double total = 0.0;
  for (const auto& r : rounds) {
    total += r.sum_machine_seconds + r.central_seconds;
  }
  return total;
}

double ExecutionStats::modeled_cluster_seconds(
    const NetworkModel& network) const noexcept {
  double total = critical_path_seconds();
  for (const auto& r : rounds) {
    const double bytes = static_cast<double>(
        (r.elements_scattered + r.elements_gathered) * sizeof(ElementId));
    total += network.round_latency_seconds;
    if (network.bytes_per_second > 0.0) {
      total += bytes / network.bytes_per_second;
    }
  }
  return total;
}

Cluster::Cluster(std::size_t machines, const ClusterOptions& options)
    : machines_(machines),
      faults_(options.faults),
      retry_(options.retry),
      trace_sink_(options.trace_sink),
      transport_(options.transport ? options.transport
                                   : make_inproc_transport()),
      pool_(pool_threads(machines, options.threads)) {
  if (machines == 0) {
    throw std::invalid_argument("Cluster: need at least one machine");
  }
  apply_env_fault_override(faults_, retry_);
}

Cluster::Cluster(std::size_t machines, std::size_t threads)
    : Cluster(machines, ClusterOptions{threads, {}, {}, {}, nullptr}) {}

MachineReport Cluster::run_machine(std::size_t round, std::size_t machine,
                                   std::span<const ElementId> shard,
                                   const RoundWork& work,
                                   MachineSpan& span) const {
  span.machine = machine;

  MachineReport report;
  report.attempts = 0;

  const std::size_t cap = retry_.attempt_cap();
  for (std::size_t attempt = 1; attempt <= cap; ++attempt) {
    // The fault decision is a pure hash of (seed, round, machine, attempt),
    // so deciding it before the attempt runs changes nothing in the
    // schedule — and lets the process backend turn an injected kCrash into
    // a real worker death.
    const FaultKind injected = faults_.fault_at(round, machine, attempt);
    AttemptResult attempt_result = transport_->run_attempt(
        round, machine, attempt, injected, shard, work);
    WorkerOutput output = std::move(attempt_result.output);
    double seconds = attempt_result.seconds;

    // A real worker death (SIGKILL'd process, broken socket) surfaces as a
    // crash fault regardless of the schedule: nothing reached the
    // coordinator, and the retry path respawns and re-runs the pure
    // (machine, shard) computation.
    const FaultKind fault =
        attempt_result.crashed ? FaultKind::kCrash : injected;
    report.attempts = attempt;
    report.last_fault = fault;

    AttemptSpan attempt_span;
    attempt_span.attempt = attempt;
    attempt_span.fault = fault;
    attempt_span.evals = output.oracle_evals;
    attempt_span.wire_bytes_sent = attempt_result.wire_bytes_sent;
    attempt_span.wire_bytes_received = attempt_result.wire_bytes_received;

    bool failed = false;
    switch (fault) {
      case FaultKind::kNone:
      case FaultKind::kTruncation:
        break;
      case FaultKind::kCrash:
      case FaultKind::kSummaryDrop:
        // The work was done (crash: partially, modeled as fully; drop:
        // fully) but nothing usable reached the coordinator.
        failed = true;
        break;
      case FaultKind::kStraggler: {
        seconds *= faults_.straggler_slowdown;
        // Timeout in the eval cost model: the slowdown-adjusted cost blew
        // the budget while the healthy cost would not have (the guard that
        // makes unlimited retries terminate).
        const double modeled =
            static_cast<double>(output.oracle_evals) *
            faults_.straggler_slowdown;
        failed = retry_.timeout_evals > 0 &&
                 modeled > static_cast<double>(retry_.timeout_evals) &&
                 output.oracle_evals <= retry_.timeout_evals;
        break;
      }
    }

    attempt_span.seconds = seconds;
    report.seconds += seconds;

    if (!failed) {
      attempt_span.delivered = true;
      if (fault == FaultKind::kTruncation && !output.summary.empty()) {
        const auto keep = static_cast<std::size_t>(
            static_cast<double>(output.summary.size()) *
            std::clamp(faults_.truncation_keep_fraction, 0.0, 1.0));
        if (keep < output.summary.size()) {
          output.summary.resize(keep);
          report.status = DeliveryStatus::kDegraded;
          span.degraded = true;
        }
      }
      report.worker = std::move(output);
      span.attempts.push_back(attempt_span);
      span.summary_size = report.worker.summary.size();
      return report;
    }

    // Failed attempt: charge deterministic backoff before the retry.
    if (attempt < cap) {
      attempt_span.backoff_seconds = retry_.backoff_for_attempt(attempt);
      report.seconds += attempt_span.backoff_seconds;
    }
    span.attempts.push_back(attempt_span);
  }

  // Retry budget exhausted: the coordinator proceeds without this shard.
  report.status = DeliveryStatus::kUnheard;
  report.worker = WorkerOutput{};
  span.heard = false;
  span.summary_size = 0;
  return report;
}

std::vector<MachineReport> Cluster::run_round(const Partition& partition,
                                              const WorkerFn& worker) {
  // Closure-only work: in-process execution, declaratively opaque.
  RoundWork work;
  work.fn = worker;
  return run_round(partition, work);
}

std::vector<MachineReport> Cluster::run_round(const Partition& partition,
                                              const RoundWork& work) {
  assert(partition.size() == machines_);

  RoundSpan span;
  span.round_index = stats_.rounds.size();
  span.transport = std::string(transport_->name());
  span.machines.resize(machines_);

  util::Timer scatter_timer;
  RoundStats round;
  round.round_index = stats_.rounds.size();
  for (const auto& shard : partition) {
    if (!shard.empty()) ++round.machines_used;
    round.elements_scattered += shard.size();
    round.max_machine_items = std::max<std::uint64_t>(round.max_machine_items,
                                                      shard.size());
  }
  span.scatter_seconds = scatter_timer.elapsed_seconds();

  util::Timer map_timer;
  std::vector<MachineReport> reports(machines_);
  pool_.parallel_for(machines_, [&](std::size_t i) {
    reports[i] = run_machine(round.round_index, i,
                             std::span<const ElementId>(partition[i]), work,
                             span.machines[i]);
  });
  span.map_seconds = map_timer.elapsed_seconds();

  util::Timer gather_timer;
  for (std::size_t i = 0; i < machines_; ++i) {
    const MachineReport& rep = reports[i];
    round.max_machine_seconds = std::max(round.max_machine_seconds,
                                         rep.seconds);
    round.sum_machine_seconds += rep.seconds;
    round.bytes_cloned += rep.worker.state_bytes;
    round.peak_worker_state_bytes =
        std::max(round.peak_worker_state_bytes, rep.worker.state_bytes);

    const MachineSpan& machine_span = span.machines[i];
    round.retries +=
        machine_span.attempts.empty() ? 0 : machine_span.attempts.size() - 1;
    for (const AttemptSpan& attempt : machine_span.attempts) {
      if (attempt.fault != FaultKind::kNone) ++round.faults_injected;
      if (attempt.delivered) {
        round.worker_evals += attempt.evals;
        round.max_machine_evals =
            std::max(round.max_machine_evals, attempt.evals);
      } else {
        round.wasted_evals += attempt.evals;
      }
      round.backoff_seconds += attempt.backoff_seconds;
      span.wire_bytes_sent += attempt.wire_bytes_sent;
      span.wire_bytes_received += attempt.wire_bytes_received;
    }
    if (!rep.heard()) {
      ++round.machines_unheard;
      span.unheard.push_back(i);
    } else {
      round.elements_gathered += rep.summary().size();
    }
  }
  span.retries = round.retries;
  span.faults_injected = round.faults_injected;
  span.gather_seconds = gather_timer.elapsed_seconds();

  stats_.rounds.push_back(round);
  stats_.trace.rounds.push_back(std::move(span));
  return reports;
}

void Cluster::record_central_stage(std::uint64_t evals, double seconds,
                                   std::uint64_t selected) {
  if (stats_.rounds.empty()) {
    throw std::logic_error("record_central_stage before any round");
  }
  auto& round = stats_.rounds.back();
  round.central_evals = evals;
  round.central_seconds = seconds;
  round.central_selected = selected;

  auto& span = stats_.trace.rounds.back();
  span.filter_seconds = seconds;
  if (trace_sink_) trace_sink_(span);
}

}  // namespace bds::dist
