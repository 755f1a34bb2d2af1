#include "dist/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/greedy.h"
#include "core/machine_runner.h"
#include "dist/cluster.h"
#include "dist/partitioner.h"
#include "dist/transport.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace bds {

namespace {

// ---------------------------------------------------------------------------
// Checkpoint serialization: the shared token/bit-pattern vocabulary of
// util/serialize.h under the checkpoint's own versioned header. Doubles are
// serialized as their IEEE-754 bit patterns so a restored run is bit-exact,
// not merely close.

using util::TokenReader;
using util::double_bits;
using util::write_ids;
using util::write_indices;

void serialize_round_stats(std::ostream& out, const dist::RoundStats& r) {
  out << "SR " << r.round_index << ' ' << r.machines_used << ' '
      << r.elements_scattered << ' ' << r.elements_gathered << ' '
      << r.worker_evals << ' ' << r.max_machine_evals << ' '
      << double_bits(r.max_machine_seconds) << ' '
      << double_bits(r.sum_machine_seconds) << ' ' << r.max_machine_items
      << ' ' << r.bytes_cloned << ' ' << r.peak_worker_state_bytes << ' '
      << r.wasted_evals << ' ' << r.retries << ' ' << r.faults_injected << ' '
      << r.machines_unheard << ' ' << double_bits(r.backoff_seconds) << ' '
      << r.central_evals << ' ' << double_bits(r.central_seconds) << ' '
      << r.central_selected << ' ' << r.merge_evals << '\n';
}

dist::RoundStats deserialize_round_stats(TokenReader& in) {
  in.expect("SR");
  dist::RoundStats r;
  r.round_index = in.size();
  r.machines_used = in.size();
  r.elements_scattered = in.u64();
  r.elements_gathered = in.u64();
  r.worker_evals = in.u64();
  r.max_machine_evals = in.u64();
  r.max_machine_seconds = in.real();
  r.sum_machine_seconds = in.real();
  r.max_machine_items = in.u64();
  r.bytes_cloned = in.u64();
  r.peak_worker_state_bytes = in.u64();
  r.wasted_evals = in.u64();
  r.retries = in.u64();
  r.faults_injected = in.u64();
  r.machines_unheard = in.size();
  r.backoff_seconds = in.real();
  r.central_evals = in.u64();
  r.central_seconds = in.real();
  r.central_selected = in.u64();
  r.merge_evals = in.u64();
  return r;
}

void serialize_round_span(std::ostream& out, const dist::RoundSpan& span) {
  // Transport names are single tokens ("inproc", "process"); "-" stands in
  // for the empty string so the token stream stays well-formed.
  out << "TR " << span.round_index << ' '
      << double_bits(span.scatter_seconds) << ' '
      << double_bits(span.map_seconds) << ' '
      << double_bits(span.gather_seconds) << ' '
      << double_bits(span.filter_seconds) << ' ' << span.retries << ' '
      << span.faults_injected << ' '
      << (span.transport.empty() ? "-" : span.transport.c_str()) << ' '
      << span.wire_bytes_sent << ' ' << span.wire_bytes_received << ' ';
  write_indices(out, span.unheard);
  out << ' ' << span.machines.size() << '\n';
  for (const dist::MachineSpan& m : span.machines) {
    out << "M " << m.machine << ' ' << (m.heard ? 1 : 0) << ' '
        << (m.degraded ? 1 : 0) << ' ' << m.summary_size << ' '
        << m.attempts.size() << '\n';
    for (const dist::AttemptSpan& a : m.attempts) {
      out << "A " << a.attempt << ' '
          << static_cast<unsigned>(a.fault) << ' ' << (a.delivered ? 1 : 0)
          << ' ' << a.evals << ' ' << double_bits(a.seconds) << ' '
          << double_bits(a.backoff_seconds) << ' ' << a.wire_bytes_sent
          << ' ' << a.wire_bytes_received << '\n';
    }
  }
}

dist::RoundSpan deserialize_round_span(TokenReader& in) {
  in.expect("TR");
  dist::RoundSpan span;
  span.round_index = in.size();
  span.scatter_seconds = in.real();
  span.map_seconds = in.real();
  span.gather_seconds = in.real();
  span.filter_seconds = in.real();
  span.retries = in.u64();
  span.faults_injected = in.u64();
  span.transport = in.word();
  if (span.transport == "-") span.transport.clear();
  span.wire_bytes_sent = in.u64();
  span.wire_bytes_received = in.u64();
  span.unheard = in.indices();
  span.machines.resize(in.size());
  for (dist::MachineSpan& m : span.machines) {
    in.expect("M");
    m.machine = in.size();
    m.heard = in.flag();
    m.degraded = in.flag();
    m.summary_size = in.size();
    m.attempts.resize(in.size());
    for (dist::AttemptSpan& a : m.attempts) {
      in.expect("A");
      a.attempt = in.size();
      a.fault = util::read_enum(in, dist::FaultKind::kStraggler, "fault");
      a.delivered = in.flag();
      a.evals = in.u64();
      a.seconds = in.real();
      a.backoff_seconds = in.real();
      a.wire_bytes_sent = in.u64();
      a.wire_bytes_received = in.u64();
    }
  }
  return span;
}

void serialize_round_trace(std::ostream& out, const RoundTrace& t) {
  out << "RT " << t.round << ' ' << double_bits(t.alpha) << ' ' << t.machines
      << ' ' << t.machine_budget << ' ' << t.central_budget << ' '
      << t.items_added << ' ' << double_bits(t.value_after) << '\n';
}

RoundTrace deserialize_round_trace(TokenReader& in) {
  in.expect("RT");
  RoundTrace t;
  t.round = in.size();
  t.alpha = in.real();
  t.machines = in.size();
  t.machine_budget = in.size();
  t.central_budget = in.size();
  t.items_added = in.size();
  t.value_after = in.real();
  return t;
}

// ---------------------------------------------------------------------------
// Engine internals

// Evaluates f(prefix) from scratch on a clone of `proto` — the
// best-of-machines merge probe — and meters its oracle evaluations.
double probe_summary(const SubmodularOracle& proto,
                     std::span<const ElementId> prefix,
                     std::uint64_t* merge_evals) {
  auto oracle = proto.clone();
  for (const ElementId x : prefix) oracle->add(x);
  *merge_evals += oracle->evals();
  return oracle->value();
}

struct EngineRun {
  const SubmodularOracle& proto;
  std::span<const ElementId> ground;
  const RoundProgram& program;
  const RuntimeOptions& runtime;

  std::unique_ptr<SubmodularOracle> central;
  std::unique_ptr<dist::Cluster> cluster;
  util::Rng rng{1};

  DistributedResult result;
  std::vector<ElementId> pool;          // accumulated candidates (deduped)
  std::vector<ElementId> best_machine;  // best-of-machines tracking
  double best_machine_value = -1.0;
  std::size_t rounds_completed = 0;
  bool halted = false;

  EngineRun(const SubmodularOracle& proto_in,
            std::span<const ElementId> ground_in,
            const RoundProgram& program_in, const RuntimeOptions& runtime_in)
      : proto(proto_in),
        ground(ground_in),
        program(program_in),
        runtime(runtime_in) {}

  void initialize() {
    central = proto.clone();
    dist::ClusterOptions cluster_options = runtime.cluster_options();
    if (runtime.transport == TransportKind::kProcess) {
      dist::ProcessTransportConfig transport_config;
      transport_config.machines = program.machines;
      transport_config.ground_size = proto.ground_size();
      transport_config.worker_binary = runtime.process.worker_binary;
      transport_config.corpus_spec = runtime.process.corpus_spec;
      cluster_options.transport =
          dist::make_process_transport(transport_config);
    }
    cluster = std::make_unique<dist::Cluster>(program.machines,
                                              cluster_options);
    if (runtime.resume_from) {
      restore(*runtime.resume_from);
    } else {
      rng = util::Rng(util::mix64(runtime.seed));
    }
  }

  void restore(const Checkpoint& snapshot) {
    if (snapshot.program_id != program.id) {
      throw std::invalid_argument(
          "resume: checkpoint is for program '" + snapshot.program_id +
          "', not '" + program.id + "'");
    }
    if (snapshot.seed != runtime.seed) {
      throw std::invalid_argument("resume: checkpoint seed mismatch");
    }
    rng = util::Rng::from_state(snapshot.rng_state);
    // Replay the coordinator's exact committed set (a superset of the
    // reported solution when a filter adopts zero-gain members), then zero
    // the counter so post-resume eval deltas are unpolluted.
    for (const ElementId x : snapshot.coordinator_set) central->add(x);
    central->reset_evals();
    result.solution = snapshot.solution;
    result.rounds = snapshot.rounds;
    pool = snapshot.pool;
    best_machine = snapshot.best_machine;
    best_machine_value = snapshot.best_machine_value;
    rounds_completed = snapshot.rounds_completed;
    cluster->mutable_stats() = snapshot.stats;
  }

  Checkpoint snapshot() const {
    Checkpoint ckpt;
    ckpt.program_id = program.id;
    ckpt.seed = runtime.seed;
    ckpt.rounds_completed = rounds_completed;
    ckpt.rng_state = rng.state();
    ckpt.solution = result.solution;
    ckpt.coordinator_set = central->current_set();
    ckpt.pool = pool;
    ckpt.best_machine = best_machine;
    ckpt.best_machine_value = best_machine_value;
    ckpt.stats = cluster->stats();
    ckpt.rounds = result.rounds;
    return ckpt;
  }

  dist::Partition make_partition(const RoundSpec& spec) {
    switch (spec.partition) {
      case PartitionStrategy::kRoundRobin:
        return dist::partition_round_robin(ground, program.machines);
      case PartitionStrategy::kUniform:
        return dist::partition_uniform(ground, program.machines, rng);
      case PartitionStrategy::kMultiplicity:
        return dist::partition_multiplicity(ground, program.machines,
                                            spec.multiplicity, rng);
    }
    throw std::logic_error("unknown PartitionStrategy");
  }

  // Builds the round's work in both transport forms: the executable
  // closure (in-process backend) and the declarative WorkerPlan (process
  // backend). Work that only exists as a closure — CustomWorkerFn rounds and
  // factory-built machine oracles — is marked kCustom, which the process
  // backend refuses with an error naming the machine; no registered
  // algorithm hits that path.
  dist::RoundWork make_work(const RoundSpec& spec) const {
    dist::RoundWork work;
    work.plan.seed = runtime.seed;
    work.plan.round = rounds_completed;

    const bool custom_oracles =
        program.oracle_factory != nullptr && *program.oracle_factory;

    if (const auto* selector = std::get_if<SelectorWorkerSpec>(&spec.worker)) {
      detail::MachineWorkerConfig config;
      config.selector = selector->selector;
      config.stochastic_c = selector->stochastic_c;
      config.stop_when_no_gain = selector->stop_when_no_gain;
      config.budget = selector->budget;
      config.seed = runtime.seed;
      config.round = rounds_completed;
      config.central = central.get();
      config.factory = custom_oracles ? program.oracle_factory : nullptr;
      work.fn = detail::make_machine_worker(config);
      work.plan.kind = custom_oracles ? dist::WorkerPlanKind::kCustom
                                      : dist::WorkerPlanKind::kSelector;
      work.plan.selector = selector->selector;
      work.plan.stochastic_c = selector->stochastic_c;
      work.plan.stop_when_no_gain = selector->stop_when_no_gain;
      work.plan.budget = selector->budget;
    } else if (const auto* thresh =
                   std::get_if<ThresholdWorkerSpec>(&spec.worker)) {
      detail::ThresholdWorkerConfig config;
      config.threshold = thresh->threshold;
      config.budget = thresh->budget;
      config.central = central.get();
      work.fn = detail::make_threshold_worker(config);
      work.plan.kind = custom_oracles ? dist::WorkerPlanKind::kCustom
                                      : dist::WorkerPlanKind::kThreshold;
      work.plan.threshold = thresh->threshold;
      work.plan.budget = thresh->budget;
    } else {
      work.fn = std::get<CustomWorkerFn>(spec.worker);
      work.plan.kind = dist::WorkerPlanKind::kCustom;
    }
    if (work.plan.kind != dist::WorkerPlanKind::kCustom) {
      work.plan.committed = central->current_set();
    }
    return work;
  }

  // Runs the coordinator stage of one round: the filter variant, the
  // best-of-machines probes, the central-stage stats record and the
  // RoundTrace.
  void run_filter(const RoundSpec& spec,
                  const std::vector<dist::MachineReport>& reports,
                  const GreedyOptions& central_options) {
    util::Timer timer;
    const std::uint64_t evals_before = central->evals();
    std::uint64_t merge_evals = 0;
    std::size_t added = 0;      // items committed to S this round
    std::size_t gathered = 0;   // pool-accumulate rounds: candidates gained
    const bool pool_round = std::holds_alternative<PoolFilterSpec>(spec.filter);

    if (const auto* f = std::get_if<GreedyFilterSpec>(&spec.filter)) {
      std::vector<ElementId> candidates;
      for (const auto& report : reports) {
        candidates.insert(candidates.end(), report.summary().begin(),
                          report.summary().end());
      }
      const GreedyResult filtered =
          lazy_greedy(*central, candidates, f->budget, central_options);
      result.solution.insert(result.solution.end(), filtered.picks.begin(),
                             filtered.picks.end());
      added += filtered.picks.size();
    } else if (const auto* adopt =
                   std::get_if<AdoptThenGreedyFilterSpec>(&spec.filter)) {
      // Adopt S1 wholesale (zero-gain members may be dropped from the
      // reported solution: for monotone f they can never gain later).
      for (const ElementId x : reports.front().summary()) {
        const double g = central->add(x);
        if (g > 0.0 || !program.stop_when_no_gain) {
          result.solution.push_back(x);
          ++added;
        }
      }
      std::vector<ElementId> candidates;
      for (std::size_t i = 1; i < reports.size(); ++i) {
        candidates.insert(candidates.end(), reports[i].summary().begin(),
                          reports[i].summary().end());
      }
      const GreedyResult filtered =
          lazy_greedy(*central, candidates, adopt->budget, central_options);
      result.solution.insert(result.solution.end(), filtered.picks.begin(),
                             filtered.picks.end());
      added += filtered.picks.size();
    } else if (const auto* accept =
                   std::get_if<ThresholdFilterSpec>(&spec.filter)) {
      for (const auto& report : reports) {
        for (const ElementId x : report.summary()) {
          if (result.solution.size() >= accept->solution_cap) break;
          if (central->gain(x) >= accept->threshold) {
            central->add(x);
            result.solution.push_back(x);
            ++added;
          }
        }
      }
    } else if (pool_round) {
      for (const auto& report : reports) {
        pool.insert(pool.end(), report.summary().begin(),
                    report.summary().end());
        gathered += report.summary().size();
      }
      pool = unique_candidates(pool);
    } else {
      const auto& custom = std::get<CustomFilterSpec>(spec.filter);
      std::vector<ElementId> candidates;
      for (const auto& report : reports) {
        candidates.insert(candidates.end(), report.summary().begin(),
                          report.summary().end());
      }
      const std::vector<ElementId> picks = custom.filter(*central, candidates);
      result.solution.insert(result.solution.end(), picks.begin(),
                             picks.end());
      added += picks.size();
    }

    // Best-of-machines tracking: probe each machine's (possibly clamped)
    // summary from scratch against the prototype, in machine order.
    if (program.merge.rule == MergeRule::kBestOfMachines) {
      for (const auto& report : reports) {
        const std::span<const ElementId> prefix(
            report.summary().data(),
            std::min(report.summary().size(), program.merge.probe_prefix));
        const double v = probe_summary(proto, prefix, &merge_evals);
        if (v > best_machine_value) {
          best_machine_value = v;
          best_machine.assign(prefix.begin(), prefix.end());
        }
      }
    }

    cluster->record_central_stage(central->evals() - evals_before,
                                  timer.elapsed_seconds(), added);
    cluster->mutable_stats().rounds.back().merge_evals = merge_evals;

    RoundTrace trace;
    trace.round = rounds_completed;
    trace.alpha = spec.alpha;
    trace.machines = program.machines;
    trace.machine_budget = spec.machine_budget;
    trace.central_budget = spec.central_budget;
    trace.items_added = pool_round ? gathered : added;
    trace.value_after = pool_round ? best_machine_value : central->value();
    result.rounds.push_back(trace);
  }

  void run_rounds() {
    const GreedyOptions central_options{program.stop_when_no_gain};

    for (;;) {
      EngineProgress progress;
      progress.round = rounds_completed;
      progress.solution_size = result.solution.size();
      progress.value = central->value();
      progress.pool_size = pool.size();
      const std::optional<RoundSpec> spec = program.next_round(progress);
      if (!spec.has_value()) break;

      dist::Partition partition = make_partition(*spec);
      if (spec->broadcast_pool) {
        for (auto& shard : partition) {
          shard.insert(shard.end(), pool.begin(), pool.end());
        }
      }

      const std::vector<dist::MachineReport> reports =
          cluster->run_round(partition, make_work(*spec));
      run_filter(*spec, reports, central_options);
      ++rounds_completed;

      if (runtime.checkpoint_sink) runtime.checkpoint_sink(snapshot());
      if (runtime.halt_after_round != 0 &&
          rounds_completed >= runtime.halt_after_round) {
        halted = true;
        break;
      }
    }
  }

  DistributedResult finish() {
    if (halted) {
      // Partial result of an intentionally stopped run: merge stages are
      // skipped — the emitted checkpoint is the intended artifact.
      result.value = central->value();
      result.stats = cluster->stats();
      result.coordinator_evals = central->evals();
      return std::move(result);
    }

    std::vector<ElementId> final_picks;
    if (program.merge.final_filter_budget > 0 &&
        !cluster->stats().rounds.empty()) {
      // Deferred filter over the accumulated pool (ParallelAlg): the
      // largest candidate set any coordinator stage sees, folded into the
      // last round's central stage.
      util::Timer final_timer;
      const GreedyOptions final_options{program.stop_when_no_gain};
      const std::uint64_t evals_before = central->evals();
      const GreedyResult filtered =
          lazy_greedy(*central, pool, program.merge.final_filter_budget,
                      final_options);
      final_picks = filtered.picks;
      auto& last = cluster->mutable_stats().rounds.back();
      last.central_evals += central->evals() - evals_before;
      last.central_seconds += final_timer.elapsed_seconds();
      last.central_selected = filtered.picks.size();
    }

    if (program.merge.rule == MergeRule::kBestOfMachines) {
      const bool deferred = program.merge.final_filter_budget > 0;
      if (deferred) result.solution = std::move(final_picks);
      if (best_machine_value > central->value()) {
        result.solution = best_machine;
        result.value = best_machine_value;
      } else {
        result.value = central->value();
      }
      if (!result.rounds.empty()) {
        RoundTrace& last = result.rounds.back();
        if (deferred) {
          last.central_budget = program.merge.final_filter_budget;
        } else {
          last.items_added = result.solution.size();
        }
        last.value_after = result.value;
      }
    } else {
      result.value = central->value();
    }

    result.stats = cluster->stats();
    result.coordinator_evals = central->evals();
    return std::move(result);
  }
};

}  // namespace

std::size_t default_machine_count(std::size_t ground_size,
                                  std::size_t machine_budget) {
  if (ground_size == 0) return 1;
  const double ratio =
      static_cast<double>(ground_size) /
      static_cast<double>(std::max<std::size_t>(1, machine_budget));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::sqrt(ratio))));
}

DistributedResult run_round_program(const SubmodularOracle& proto,
                                    std::span<const ElementId> ground,
                                    const RoundProgram& program,
                                    const RuntimeOptions& runtime) {
  EngineRun run(proto, ground, program, runtime);
  run.initialize();
  run.run_rounds();
  return run.finish();
}

// ---------------------------------------------------------------------------
// Checkpoint serialization entry points

std::string Checkpoint::serialize() const {
  std::ostringstream out;
  out << "bdsckpt " << kVersion << '\n';
  out << "program " << program_id << '\n';
  out << "seed " << seed << '\n';
  out << "rounds_completed " << rounds_completed << '\n';
  out << "rng " << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2]
      << ' ' << rng_state[3] << '\n';
  write_ids(out, "solution", solution);
  write_ids(out, "coordinator_set", coordinator_set);
  write_ids(out, "pool", pool);
  write_ids(out, "best_machine", best_machine);
  out << "best_value " << double_bits(best_machine_value) << '\n';
  out << "stats_rounds " << stats.rounds.size() << '\n';
  for (const dist::RoundStats& r : stats.rounds) serialize_round_stats(out, r);
  out << "trace_rounds " << stats.trace.rounds.size() << '\n';
  for (const dist::RoundSpan& span : stats.trace.rounds) {
    serialize_round_span(out, span);
  }
  out << "round_traces " << rounds.size() << '\n';
  for (const RoundTrace& t : rounds) serialize_round_trace(out, t);
  out << "end\n";
  return std::move(out).str();
}

Checkpoint Checkpoint::deserialize(std::string_view text) {
  TokenReader in(text, "checkpoint");
  in.expect("bdsckpt");
  const std::uint64_t version = in.u64();
  if (version != kVersion) {
    throw std::invalid_argument("checkpoint: unsupported version " +
                                std::to_string(version));
  }
  Checkpoint ckpt;
  in.expect("program");
  ckpt.program_id = in.word();
  in.expect("seed");
  ckpt.seed = in.u64();
  in.expect("rounds_completed");
  ckpt.rounds_completed = in.size();
  in.expect("rng");
  for (auto& word : ckpt.rng_state) word = in.u64();
  ckpt.solution = in.ids("solution");
  ckpt.coordinator_set = in.ids("coordinator_set");
  ckpt.pool = in.ids("pool");
  ckpt.best_machine = in.ids("best_machine");
  in.expect("best_value");
  ckpt.best_machine_value = in.real();
  in.expect("stats_rounds");
  ckpt.stats.rounds.resize(in.size());
  for (auto& r : ckpt.stats.rounds) r = deserialize_round_stats(in);
  in.expect("trace_rounds");
  ckpt.stats.trace.rounds.resize(in.size());
  for (auto& span : ckpt.stats.trace.rounds) {
    span = deserialize_round_span(in);
  }
  in.expect("round_traces");
  ckpt.rounds.resize(in.size());
  for (auto& t : ckpt.rounds) t = deserialize_round_trace(in);
  in.expect("end");
  return ckpt;
}

void save_checkpoint_file(const Checkpoint& checkpoint,
                          const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot write " + tmp);
    }
    out << checkpoint.serialize();
    if (!out.flush()) {
      throw std::runtime_error("checkpoint: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename into " + path);
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Checkpoint::deserialize(std::move(buffer).str());
}

}  // namespace bds
