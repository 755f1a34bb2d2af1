// The batch workloads: closed-loop, back-to-back run_distributed calls on
// one corpus. One operation is one run; its latency is the run's wall
// clock. Warm-up runs are untimed and fix the reference selection every
// timed run must reproduce bit for bit.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "core/upper_bound.h"
#include "data/corpus.h"
#include "data/graph_gen.h"
#include "data/io.h"
#include "data/vectors_gen.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"

namespace bench {
namespace {

using namespace bds;

enum class Objective { kCoverage, kExemplar };

struct BatchSpec {
  const char* name;
  Objective objective;
  TransportKind transport;
  std::uint32_t size;        // sets (coverage) or documents (exemplar)
  std::uint32_t smoke_size;
  AlgorithmParams params;
};

// The paper's two objectives (§4): coverage on DBLP-like neighbourhood
// sets and exemplar clustering on Wikipedia-like LDA vectors. The two
// coverage workloads share corpus, seed and parameters, so their
// selections are bitwise equal and any gap between them is the transport.
const BatchSpec kSpecs[] = {
    {"coverage-inproc", Objective::kCoverage, TransportKind::kInProcess,
     100'000, 4'000, {100, 4, 200, 0.1, 4}},
    {"coverage-process", Objective::kCoverage, TransportKind::kProcess,
     100'000, 4'000, {100, 4, 200, 0.1, 4}},
    {"exemplar-inproc", Objective::kExemplar, TransportKind::kInProcess,
     1'500, 300, {20, 2, 40, 0.1, 4}},
};

constexpr std::size_t kWarmups = 3;
constexpr std::size_t kSetupRepeats = 101;
constexpr double kTailQ = 0.9;
constexpr double kP0Dist = 2.0;  // CorpusSpec's exemplar default

bool same_run(const RunResult& a, const RunResult& b) {
  return a.solution == b.solution && same_bits(a.value, b.value);
}

std::string hex(std::uint64_t x) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

void write_corpus(const BatchSpec& spec, std::uint32_t size,
                  std::uint64_t seed, const std::string& path) {
  run_in_child(
      [&] {
        if (spec.objective == Objective::kCoverage) {
          data::save_set_system(*data::make_dblp_like(size, seed), path);
        } else {
          data::LdaVectorsConfig cfg;
          cfg.documents = size;
          cfg.seed = seed;
          data::save_point_set(*data::make_lda_like_vectors(cfg), path);
        }
      },
      "generate corpus");
}

// data.map_s and data.oracle_build_s: the two halves of the setup path.
void probe_setup(const BatchSpec& spec, const std::string& path,
                 Report& report) {
  // Results are kept until the end so no teardown lands in a timing.
  double map_s = 0.0, build_s = 0.0;
  std::vector<std::shared_ptr<const void>> keep;
  if (spec.objective == Objective::kCoverage) {
    map_s = time_median(kSetupRepeats,
                        [&] { keep.push_back(data::map_set_system(path)); });
    const auto sets = data::map_set_system(path);
    build_s = time_median(kSetupRepeats, [&] {
      keep.push_back(std::make_shared<CoverageOracle>(sets));
    });
  } else {
    map_s = time_median(kSetupRepeats,
                        [&] { keep.push_back(data::map_point_set(path)); });
    const auto points = data::map_point_set(path);
    build_s = time_median(kSetupRepeats, [&] {
      keep.push_back(std::make_shared<ExemplarOracle>(points, kP0Dist));
    });
  }
  const std::string n = "median of " + std::to_string(kSetupRepeats);
  report.metric("data.map_s", map_s, "s", n);
  report.metric("data.oracle_build_s", build_s, "s", n);
}

void run_batch(const BatchSpec& spec, const Options& opt, Report& report) {
  const std::uint32_t size = opt.smoke ? spec.smoke_size : spec.size;
  const TempFile file(opt.data_dir + "/" + spec.name + "-" +
                      std::to_string(opt.seed) + ".bds");
  write_corpus(spec, size, opt.seed, file.path());

  data::CorpusSpec corpus;
  corpus.objective =
      spec.objective == Objective::kCoverage ? "coverage" : "exemplar";
  corpus.path = file.path();
  corpus.mmap = true;
  corpus.p0_dist = kP0Dist;

  // Program-side set-up: map the file and build the coordinator oracle
  // through the same CorpusSpec the process workers receive. The first
  // set-up yields the runs' oracle; one more follows each timed run, so
  // each is timed as the program pays it, once and with cold caches
  // (65-100 us on a 4-vCPU Xeon). Back-to-back set-ups run hot at 5-15 us,
  // a level that moved by up to 1.8x from one process to the next.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::shared_ptr<const SubmodularOracle> o = corpus.make_oracle();
    setup_s.push_back(since(t0));
    return o;
  };
  const std::shared_ptr<const SubmodularOracle> oracle = set_up();
  std::vector<ElementId> ground(oracle->ground_size());
  for (std::size_t i = 0; i < ground.size(); ++i) {
    ground[i] = static_cast<ElementId>(i);
  }

  RuntimeOptions runtime;
  runtime.threads = opt.threads;
  runtime.seed = opt.seed;
  runtime.transport = spec.transport;
  if (spec.transport == TransportKind::kProcess) {
    runtime.process.corpus_spec = corpus.serialize();
  }
  const auto run = [&](const RuntimeOptions& rt) {
    return run_distributed("bicriteria", *oracle, ground, rt, spec.params);
  };

  RunResult ref;
  for (std::size_t i = 0; i < kWarmups; ++i) {
    report.attempted(1);
    RunResult r = run(runtime);
    if (i == 0) {
      ref = std::move(r);
    } else if (!same_run(r, ref)) {
      report.fail("warm-up run " + std::to_string(i) + " differs from the first");
    }
  }

  // Closed loop for opt.seconds, and at least enough untraced runs for the
  // tail percentile (a run that throws adds none, so the first error ends
  // that extension). The traced pass attaches the span sink to every fourth
  // run; the untraced ones give the tail and the sink's overhead.
  std::vector<double> plain_s, traced_s;
  std::vector<RunSpans> spans;
  std::uint64_t mismatches = 0, errors = 0;
  const std::size_t need = min_samples(kTailQ);
  const auto start = Clock::now();
  for (std::size_t i = 0; (plain_s.size() < need && errors == 0) ||
                          since(start) < opt.seconds;
       ++i) {
    const bool traced = opt.trace && i % 4 == 3;
    RunSpans s;
    RuntimeOptions rt = runtime;
    if (traced) rt.trace_sink = [&s](const dist::RoundSpan& span) { s.add(span); };
    report.attempted(1);
    try {
      const auto t0 = Clock::now();
      const RunResult r = run(rt);
      const double dt = since(t0);
      if (!same_run(r, ref)) ++mismatches;
      if (traced) {
        traced_s.push_back(dt);
        spans.push_back(s);
      } else {
        plain_s.push_back(dt);
      }
    } catch (const std::exception& e) {
      if (errors++ == 0) std::fprintf(stderr, "run failed: %s\n", e.what());
    }
    (void)set_up();
  }
  report.fail("timed runs differ from the reference selection", mismatches);
  report.fail("timed runs threw", errors);

  report.note("digest " + hex(digest(ref.solution, ref.value)) + " size " +
              std::to_string(ref.solution.size()));
  if (spec.transport == TransportKind::kProcess) {
    // The inproc = process contract, on this workload's own corpus.
    RuntimeOptions rt = runtime;
    rt.transport = TransportKind::kInProcess;
    report.attempted(1);
    if (!same_run(run(rt), ref)) {
      report.fail("process selection differs from the in-process one");
    }
  }

  // The bound is on f(OPT_k); a bicriteria output of more than k items may
  // exceed it, so only a non-positive bound is malformed.
  const double ub =
      solution_upper_bound(*oracle, ref.solution, ground, spec.params.k);
  if (!(ub > 0.0)) report.fail("non-positive upper bound");

  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()) +
                      " between runs: map + oracle build");
    report.p50_ms("latency_ms_p50", plain_s);
    report.metric("certified_ratio", ref.value / ub, "ratio",
                  "f(S) / solution_upper_bound, k=" +
                      std::to_string(spec.params.k));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "coordinator VmHWM");
    return;
  }

  report.tail_ms("latency_ms_tail", plain_s, kTailQ);
  probe_setup(spec, file.path(), report);
  report_spans(spans, traced_s, report);
  report.count("dist.critical_path_evals", ref.stats.critical_path_evals());
  report.count("objectives.evals_per_run", ref.stats.total_evals());
  report.metric("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
                "ratio",
                "traced p50 over untraced p50, minus 1; n=" +
                    std::to_string(traced_s.size()) + "/" +
                    std::to_string(plain_s.size()));
  probe_layers({oracle.get(), ground, spec.params, opt.seed, &ref}, report);
  report_serve_layer(ServeLayer{}, report);
}

}  // namespace

bool run_batch_workload(const Options& opt, Report& report) {
  for (const BatchSpec& spec : kSpecs) {
    if (opt.workload == spec.name) {
      run_batch(spec, opt, report);
      return true;
    }
  }
  return false;
}

}  // namespace bench
