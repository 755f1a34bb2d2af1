// bench_e2e — shared declarations: run options, the per-workload report,
// the layer probes of the traced pass, and the workload entry points.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/registry.h"
#include "dist/trace.h"
#include "objectives/submodular.h"
#include "stats.h"
#include "util/element.h"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;   // timed phase; loops extend it to min_samples()
  bool trace = false;     // per-layer pass instead of the end-to-end one
  bool smoke = false;     // toy sizes, every correctness check
  std::string data_dir;   // where generated corpus files are written
  std::size_t threads = 1;  // min(4, nproc): the cap on the load's threads
};

// One workload's result: metrics of the pass that ran (end-to-end or
// per-layer, never both), operation counts and failed checks. print()
// writes one `workload metric value unit` line per metric, then the JSON
// result object as the last line of stdout.
class Report {
 public:
  // A smoke report checks correctness, not percentiles: a tail its toy
  // sample cannot support is left out instead of failing.
  Report(std::string workload, bool smoke)
      : workload_(std::move(workload)), smoke_(smoke) {}

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {});
  void count(const std::string& name, std::uint64_t value,
             const std::string& note = {});
  // The median in ms of samples in seconds, with the sample count.
  void p50_ms(const std::string& name, std::span<const double> seconds);
  // The tail_q percentile in ms of samples in seconds, with the counts;
  // outside smoke runs a sample too small for it is a failed check (the
  // loops size themselves to avoid that).
  void tail_ms(const std::string& name, std::span<const double> seconds,
               double tail_q);
  // A free-form `# workload ...` line (digests, configuration).
  void note(const std::string& line);

  void attempted(std::uint64_t n) { attempted_ += n; }
  // `n` failed operations or correctness checks: one stderr line.
  void fail(const std::string& what, std::uint64_t n = 1);

  bool correct() const noexcept { return failed_ == 0; }

  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
    bool integer = false;
  };

  std::string workload_;
  bool smoke_ = false;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median wall clock of `reps` calls.
template <class F>
double time_median(std::size_t reps, F&& fn) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    xs.push_back(since(t0));
  }
  return median(xs);
}

// CPUs this process may run on (what nproc prints).
int host_nproc();

// Host fingerprint lines (`# host ...`) printed ahead of every report.
void print_fingerprint(std::size_t threads);

// Coordinator peak resident set (VmHWM) in MiB.
double peak_rss_mb();

// Runs `fn` in a forked child and waits for it; throws if it fails. Keeps
// the bench's own corpus generation out of the coordinator's peak RSS.
void run_in_child(const std::function<void()>& fn, const std::string& what);

// Removes the file on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile();
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// Bitwise equality of two doubles (the determinism contracts are bitwise).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Order-sensitive FNV-1a digest over a selection and its value bits.
std::uint64_t digest(std::span<const bds::ElementId> solution, double value);

// What the layer probes need to know about the workload's runs.
struct ProbeInput {
  const bds::SubmodularOracle* oracle = nullptr;  // fresh prototype
  std::span<const bds::ElementId> ground;
  bds::AlgorithmParams params;
  std::uint64_t seed = 1;
  const bds::RunResult* reference = nullptr;  // a finished run of the workload
};

// The traced pass's calls into each layer's public functions, timed from
// outside: partition, shard-view build, gain kernel, lazy vs eager greedy
// on one shard, wire codecs on the workload's real shards, and the
// certificate scans. Adds per-layer metrics and fails checks on mismatch.
void probe_layers(const ProbeInput& in, Report& report);

// Per-run sums of the round spans a traced run emits through
// RuntimeOptions::trace_sink.
struct RunSpans {
  double scatter_s = 0.0;
  double map_s = 0.0;
  double gather_s = 0.0;
  double filter_s = 0.0;
  double machine_s_max = 0.0;   // Σ over rounds of the slowest machine
  double machine_s_mean = 0.0;  // Σ over rounds of the mean machine
  std::uint64_t wire_bytes = 0;
  std::size_t rounds = 0;

  void add(const bds::dist::RoundSpan& span);
  double phases_s() const noexcept {
    return scatter_s + map_s + gather_s + filter_s;
  }
};

// Adds the dist.* span metrics: medians over runs, where `wall_s[i]` is the
// wall clock the spans of run i sit inside (outside_rounds = wall − phases).
void report_spans(const std::vector<RunSpans>& runs,
                  const std::vector<double>& wall_s, Report& report);

// What the serve layer and the open-loop generator did over a run. Batch
// workloads have neither and report this empty (their serve.* and gen.*
// metrics read 0), so every workload reports the same metric set.
struct ServeLayer {
  std::vector<double> hit_s, miss_s, queue_s, run_s, query_s, mutation_s;
  std::vector<double> lag_s;       // send time minus scheduled time, all ops
  std::uint64_t queries = 0;       // timed queries, failed ones included
  std::uint64_t coalesced = 0;
  std::uint64_t slo_misses = 0;    // queries over the SLO, failed or shed
  std::uint64_t late = 0;          // ops sent more than 1 ms late
  std::uint64_t recertified = 0;   // summaries kept across timed mutations
  std::uint64_t invalidated = 0;   // summaries dropped by timed mutations
};
void report_serve_layer(const ServeLayer& layer, Report& report);

// Workload entry points; return false for an unknown name.
bool run_batch_workload(const Options& opt, Report& report);
bool run_serve_workload(const Options& opt, Report& report);

}  // namespace bench
