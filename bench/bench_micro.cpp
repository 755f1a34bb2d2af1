// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: oracle evaluations (scalar vs batched), the greedy selector
// family, and the partitioners. These are throughput sanity checks, not
// paper artifacts.
//
// Extra flag on top of the google-benchmark ones:
//   --json[=path]   after the run, write ns/eval per objective for the
//                   scalar / batch gain paths (plus the batch speedups) to
//                   `path` (default BENCH_micro.json). The report also
//                   carries a `kernels` section (exemplar gain_batch under
//                   the lane scalar kernels vs the dispatched SIMD path,
//                   across dims), a `faults` section
//                   (fault-free vs recoverable-fault bicriteria on a
//                   canonical workload: retry overhead, wasted evals, and
//                   the degradation delta when shards go unheard), and an
//                   `mmap` section (heap vs zero-copy mapped load of a
//                   ~10M-set on-disk corpus: load time, cold-page-cache
//                   first-round latency, and the worker clone's state).
//                   A `dynamic` section times the mutation path (corpus
//                   apply, O(degree) incremental oracle update vs
//                   O(corpus) rebuild), the certified maintenance loop
//                   under churn (kept/resolved ledger and re-solve rate),
//                   and sliding-window advance latency.
//   --repeat N      repetitions for the measured-at-write-time timings (the
//                   `dynamic` section's corpus apply): one untimed warmup
//                   run, then the minimum over N timed runs is reported.
//                   Default 1.
//   --trace         run the canonical bicriteria workload under the
//                   recoverable fault mix and print its structured round
//                   trace as JSON.
//
// When the prob_coverage scalar and batch gain benchmarks both ran, the
// binary exits nonzero unless the batch path beats scalar gains
// (batch_speedup > 1.0) — the regression gate for the candidate-interleaved
// batch kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/bicriteria.h"
#include "core/greedy.h"
#include "core/maintain.h"
#include "core/window.h"
#include "data/dynamic.h"
#include "data/graph_gen.h"
#include "data/io.h"
#include "data/synthetic_coverage.h"
#include "data/prob_gen.h"
#include "data/vectors_gen.h"
#include "dist/faults.h"
#include "dist/partitioner.h"
#include "dist/trace.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "objectives/logdet.h"
#include "objectives/prob_coverage.h"
#include "objectives/saturated_coverage.h"
#include "util/kernels.h"
#include "util/mmap.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace bds;

std::shared_ptr<const SetSystem> shared_sets() {
  static const auto sets = data::make_dblp_like(20'000, 1);
  return sets;
}

std::shared_ptr<const PointSet> shared_points() {
  static const auto points = [] {
    data::LdaVectorsConfig cfg;
    cfg.documents = 5'000;
    cfg.topics = 100;
    cfg.clusters = 20;
    return data::make_lda_like_vectors(cfg);
  }();
  return points;
}

std::shared_ptr<const ProbSetSystem> shared_click_model() {
  static const auto model = [] {
    data::ClickModelConfig cfg;
    cfg.ads = 5'000;
    cfg.users = 20'000;
    return data::make_click_model(cfg);
  }();
  return model;
}

std::shared_ptr<const SimilarityMatrix> shared_similarity() {
  static const auto sim = [] {
    const std::size_t n = 1'000;
    util::Rng rng(41);
    std::vector<double> values(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = rng.next_double();
        values[i * n + j] = v;
        values[j * n + i] = v;
      }
    }
    return std::make_shared<const SimilarityMatrix>(n, std::move(values));
  }();
  return sim;
}

std::vector<ElementId> ids(std::size_t n) {
  std::vector<ElementId> out(n);
  std::iota(out.begin(), out.end(), ElementId{0});
  return out;
}

// Batch sizes per objective, sized so one iteration stays in the
// millisecond range (exemplar/saturated evals are O(n) each).
constexpr std::size_t kCoverageBatch = 4'096;
constexpr std::size_t kProbBatch = 4'096;
constexpr std::size_t kExemplarBatch = 128;
constexpr std::size_t kSaturatedBatch = 256;

// The same stride-walk over candidate ids the scalar benchmarks do,
// materialized up front for the batched ones.
std::vector<ElementId> stride_ids(std::size_t count, std::size_t stride,
                                  std::size_t ground) {
  std::vector<ElementId> xs(count);
  std::size_t x = 0;
  for (auto& id : xs) {
    id = static_cast<ElementId>(x);
    x = (x + stride) % ground;
  }
  return xs;
}

void BM_RngNextU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngNextBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(12345));
}
BENCHMARK(BM_RngNextBelow);

// --- coverage: scalar / batch -----------------------------------------------

CoverageOracle partly_covered_oracle() {
  CoverageOracle oracle(shared_sets());
  util::Rng rng(2);
  // A partly-covered state makes gains representative of mid-greedy.
  for (int i = 0; i < 50; ++i) {
    oracle.add(static_cast<ElementId>(rng.next_below(oracle.ground_size())));
  }
  return oracle;
}

void BM_CoverageGain(benchmark::State& state) {
  auto oracle = partly_covered_oracle();
  ElementId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(x));
    x = (x + 37) % oracle.ground_size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoverageGain);

void BM_CoverageGainBatch(benchmark::State& state) {
  auto oracle = partly_covered_oracle();
  const auto xs = stride_ids(kCoverageBatch, 37, oracle.ground_size());
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    oracle.gain_batch(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_CoverageGainBatch);

void BM_CoverageClone(benchmark::State& state) {
  CoverageOracle oracle(shared_sets());
  for (auto _ : state) benchmark::DoNotOptimize(oracle.clone());
}
BENCHMARK(BM_CoverageClone);

// --- coordinator filter -----------------------------------------------------
//
// The coordinator's filter step re-scores every candidate after each add,
// paying O(|set|) per score. One iteration = a full k-round filter.

constexpr std::size_t kFilterRounds = 16;

void run_filter_rounds(CoverageOracle& oracle,
                       std::span<const ElementId> candidates,
                       std::vector<double>& out) {
  for (std::size_t r = 0; r < kFilterRounds; ++r) {
    oracle.gain_batch(candidates, out);
    std::size_t best = 0;
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i] > out[best]) best = i;
    }
    oracle.add(candidates[best]);
  }
}

void BM_CoverageCoordinatorFilter(benchmark::State& state) {
  const auto sets = shared_sets();
  const auto candidates = ids(sets->num_sets());
  std::vector<double> out(candidates.size());
  for (auto _ : state) {
    CoverageOracle oracle(sets);
    run_filter_rounds(oracle, candidates, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFilterRounds *
                          candidates.size());
}
BENCHMARK(BM_CoverageCoordinatorFilter);

// --- exemplar clustering ----------------------------------------------------

void BM_ExemplarExactGain(benchmark::State& state) {
  ExemplarOracle oracle(shared_points(), 2.0);
  ElementId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(x));
    x = (x + 101) % oracle.ground_size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExemplarExactGain);

void BM_ExemplarExactGainBatch(benchmark::State& state) {
  ExemplarOracle oracle(shared_points(), 2.0);
  const auto xs = stride_ids(kExemplarBatch, 101, oracle.ground_size());
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    oracle.gain_batch(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_ExemplarExactGainBatch);

void BM_ExemplarSampledGain(benchmark::State& state) {
  util::Rng rng(3);
  SampledExemplarOracle oracle(shared_points(), 2.0, 500, rng);
  ElementId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(x));
    x = (x + 101) % oracle.ground_size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExemplarSampledGain);

// --- SIMD kernel layer ------------------------------------------------------
//
// Exemplar gain_batch across dims and kernel modes: the lane-order scalar
// kernels (BDS_KERNEL=scalar, mode 0) and the runtime-dispatched SIMD path
// (=auto, mode 1). Their ratio is the SIMD win at bit-identical results.

constexpr std::size_t kKernelPoints = 2'048;
constexpr std::size_t kKernelBatch = 64;

std::shared_ptr<const PointSet> kernel_points(std::size_t dim) {
  static std::map<std::size_t, std::shared_ptr<const PointSet>> cache;
  auto& entry = cache[dim];
  if (!entry) {
    util::Rng rng(17 + dim);
    std::vector<float> data(kKernelPoints * dim);
    for (auto& v : data) v = static_cast<float>(rng.next_double(-1.0, 1.0));
    auto pts = std::make_shared<PointSet>(kKernelPoints, dim, std::move(data));
    pts->normalize_rows();
    entry = std::move(pts);
  }
  return entry;
}

void BM_KernelGainBatch(benchmark::State& state) {
  kern::ForcedMode forced(state.range(1) == 0 ? kern::Mode::kScalar
                                              : kern::Mode::kAuto);
  ExemplarOracle oracle(kernel_points(state.range(0)), 2.0);
  const auto xs = stride_ids(kKernelBatch, 67, oracle.ground_size());
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    oracle.gain_batch(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_KernelGainBatch)
    ->ArgNames({"dim", "mode"})
    ->Args({16, 0})->Args({16, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1});

// --- probabilistic coverage -------------------------------------------------

void BM_ProbCoverageGain(benchmark::State& state) {
  ProbCoverageOracle oracle(shared_click_model());
  ElementId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(x));
    x = (x + 13) % oracle.ground_size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbCoverageGain);

void BM_ProbCoverageGainBatch(benchmark::State& state) {
  ProbCoverageOracle oracle(shared_click_model());
  const auto xs = stride_ids(kProbBatch, 13, oracle.ground_size());
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    oracle.gain_batch(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_ProbCoverageGainBatch);

// --- saturated coverage -----------------------------------------------------

SaturatedCoverageOracle saturated_oracle() {
  SaturatedCoverageConfig cfg;
  cfg.gamma = 0.25;
  SaturatedCoverageOracle oracle(shared_similarity(), std::move(cfg));
  util::Rng rng(43);
  for (int i = 0; i < 10; ++i) {
    oracle.add(static_cast<ElementId>(rng.next_below(oracle.ground_size())));
  }
  return oracle;
}

void BM_SaturatedGain(benchmark::State& state) {
  auto oracle = saturated_oracle();
  ElementId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(x));
    x = (x + 17) % oracle.ground_size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SaturatedGain);

void BM_SaturatedGainBatch(benchmark::State& state) {
  auto oracle = saturated_oracle();
  const auto xs = stride_ids(kSaturatedBatch, 17, oracle.ground_size());
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    oracle.gain_batch(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_SaturatedGainBatch);

// --- selectors and partitioners (unchanged shapes) --------------------------

void BM_LogDetGainVsSetSize(benchmark::State& state) {
  LogDetOracle oracle(shared_points(), 1.0, 0.5);
  for (ElementId x = 0; x < ElementId(state.range(0)); ++x) {
    oracle.add(x * 17 % 5'000);
  }
  ElementId probe = 1'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.gain(probe));
    probe = (probe + 101) % oracle.ground_size();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LogDetGainVsSetSize)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_GreedySelector(benchmark::State& state) {
  const auto candidates = ids(state.range(0));
  for (auto _ : state) {
    CoverageOracle oracle(shared_sets());
    benchmark::DoNotOptimize(greedy(oracle, candidates, 10));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedySelector)->Arg(500)->Arg(2'000)->Complexity();

void BM_LazyGreedySelector(benchmark::State& state) {
  const auto candidates = ids(state.range(0));
  for (auto _ : state) {
    CoverageOracle oracle(shared_sets());
    benchmark::DoNotOptimize(lazy_greedy(oracle, candidates, 10));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LazyGreedySelector)->Arg(500)->Arg(2'000)->Arg(8'000)->Complexity();

void BM_StochasticGreedySelector(benchmark::State& state) {
  const auto candidates = ids(state.range(0));
  util::Rng rng(5);
  for (auto _ : state) {
    CoverageOracle oracle(shared_sets());
    benchmark::DoNotOptimize(stochastic_greedy(oracle, candidates, 10, rng));
  }
}
BENCHMARK(BM_StochasticGreedySelector)->Arg(2'000)->Arg(8'000);

void BM_PartitionUniform(benchmark::State& state) {
  const auto items = ids(100'000);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::partition_uniform(items, state.range(0), rng));
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_PartitionUniform)->Arg(16)->Arg(128);

void BM_PartitionMultiplicity(benchmark::State& state) {
  const auto items = ids(100'000);
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::partition_multiplicity(items, 128, state.range(0), rng));
  }
  state.SetItemsProcessed(state.iterations() * items.size() * state.range(0));
}
BENCHMARK(BM_PartitionMultiplicity)->Arg(2)->Arg(8);

// --- fault-injecting executor -----------------------------------------------
//
// The canonical workload: 2-round bicriteria on a synthetic coverage
// instance. Fault-free vs the recoverable mix (crashes, drops, stragglers
// with unlimited retries) isolates the pure retry overhead — by the
// determinism contract the selection is identical, only the wasted attempts
// and metered backoff differ. The degraded variant (crash-heavy, a single
// attempt) is the graceful-degradation case the JSON report quantifies.

std::shared_ptr<const SetSystem> fault_bench_sets() {
  static const auto sets = [] {
    data::SyntheticCoverageConfig cfg;
    cfg.universe_size = 2'000;
    cfg.planted_sets = 50;
    cfg.random_sets = 2'000;
    cfg.seed = 19;
    return data::make_synthetic_coverage(cfg).sets;
  }();
  return sets;
}

BicriteriaConfig fault_bench_config() {
  BicriteriaConfig cfg;
  cfg.k = 10;
  cfg.output_items = 20;
  cfg.rounds = 2;
  cfg.runtime.seed = 7;
  return cfg;
}

DistributedResult run_fault_workload(const BicriteriaConfig& cfg) {
  const CoverageOracle proto(fault_bench_sets());
  const auto ground = ids(proto.ground_size());
  return bicriteria_greedy(proto, ground, cfg);
}

// --repeat N support for the measured-at-write-time sections: one untimed
// warmup call, then the minimum wall time over N timed calls. The results
// the caller inspects come from the last call — every repetition is the
// same deterministic run.
std::size_t g_repeat = 1;

template <typename Fn>
double min_wall_seconds(Fn&& fn) {
  fn();  // warmup
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < g_repeat; ++rep) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.elapsed_seconds());
  }
  return best;
}

void BM_FaultPlanDraw(benchmark::State& state) {
  const auto plan = dist::FaultPlan::recoverable(99);
  std::size_t machine = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.fault_at(1, machine, 1));
    machine = (machine + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPlanDraw);

void BM_BicriteriaFaultFree(benchmark::State& state) {
  const auto cfg = fault_bench_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fault_workload(cfg));
  }
}
BENCHMARK(BM_BicriteriaFaultFree);

void BM_BicriteriaRecoverableFaults(benchmark::State& state) {
  auto cfg = fault_bench_config();
  cfg.runtime.faults = dist::FaultPlan::recoverable(99);
  cfg.runtime.retry.max_attempts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fault_workload(cfg));
  }
}
BENCHMARK(BM_BicriteriaRecoverableFaults);

// --- out-of-core corpus (mmap vs heap load) ---------------------------------
//
// A ~10M-set, ~10M-element CSR corpus written once to the temp dir in the
// v2 container. Big enough that the O(corpus) vs O(shard) distinction is
// unambiguous (~240 MB file, 10 MB covered bitmap per worker clone), small
// enough to generate in seconds. The flat arrays go through SetSystem's
// borrowing constructor so generation never materializes 10M little
// vectors.

constexpr std::size_t kBigSets = 10'000'000;
constexpr std::uint32_t kBigUniverse = 10'000'000;
constexpr std::size_t kBigEntriesPerSet = 4;
constexpr std::size_t kBigShard = 2'048;

struct BigCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> entries;
};

std::string mmap_corpus_path() {
  return (std::filesystem::temp_directory_path() / "bds_mmap_corpus_v2.bds")
      .string();
}

void ensure_mmap_corpus(const std::string& path) {
  try {
    if (data::map_set_system(path)->num_sets() == kBigSets) return;
  } catch (const std::exception&) {
    // absent or stale — regenerate below
  }
  std::fprintf(stderr, "[mmap] generating %zu-set corpus at %s ...\n",
               kBigSets, path.c_str());
  auto csr = std::make_shared<BigCsr>();
  csr->offsets.reserve(kBigSets + 1);
  csr->offsets.push_back(0);
  csr->entries.reserve(kBigSets * kBigEntriesPerSet);
  util::Rng rng(123);
  std::uint32_t draw[kBigEntriesPerSet];
  for (std::size_t s = 0; s < kBigSets; ++s) {
    for (auto& d : draw) {
      d = static_cast<std::uint32_t>(rng.next_below(kBigUniverse));
    }
    std::sort(std::begin(draw), std::end(draw));
    const auto* const end = std::unique(std::begin(draw), std::end(draw));
    for (const auto* it = std::begin(draw); it != end; ++it) {
      csr->entries.push_back(*it);
    }
    csr->offsets.push_back(csr->entries.size());
  }
  const SetSystem view(csr->offsets.data(), kBigSets, csr->entries.data(),
                       csr->entries.size(), kBigUniverse, csr);
  data::save_set_system(view, path);
}

// --- dynamic corpus churn ---------------------------------------------------
//
// The mutation path the dynamic-corpus layer promises: a corpus apply is an
// O(items) log append into the heap-side overlay, the incremental coverage
// oracle absorbs an insert in O(degree) instead of an O(corpus) index
// rebuild, and the certified maintenance loop re-solves only when the
// bicriteria certificate decays past epsilon — the re-solve rate under
// churn is the number the exit gate pins below 100%.

std::shared_ptr<const SetSystem> churn_bench_sets() {
  static const auto sets = data::make_dblp_like(4'000, 23);
  return sets;
}

MaintainConfig churn_config() {
  MaintainConfig cfg;
  cfg.k = 10;
  cfg.epsilon = 0.25;
  cfg.max_rounds = 3;
  cfg.machines = 8;
  return cfg;
}

// Deterministic churn: three small random inserts to one erase, erases
// walking the live ids from the bottom (so some hit solution members and
// force the unaddressable re-solve path).
std::unique_ptr<CertifiedMaintainer> run_churn_workload(std::size_t steps) {
  auto corpus =
      std::make_shared<data::DynamicCorpus>(churn_bench_sets(), "bench-churn");
  auto maintainer =
      std::make_unique<CertifiedMaintainer>(corpus, churn_config());
  util::Rng rng(29);
  const std::uint32_t universe = churn_bench_sets()->universe_size();
  ElementId erase_cursor = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    if (step % 4 == 3) {
      while (!corpus->is_live(erase_cursor)) ++erase_cursor;
      maintainer->erase(erase_cursor++);
    } else {
      std::vector<std::uint32_t> items(2 + rng.next_below(6));
      for (auto& e : items) {
        e = static_cast<std::uint32_t>(rng.next_below(universe));
      }
      maintainer->insert(std::move(items));
    }
  }
  return maintainer;
}

// --- --json reporting -------------------------------------------------------

struct GainBenchSpec {
  const char* objective;
  const char* mode;  // "scalar" | "batch"
  double evals_per_iter;
};

// The gain-path benchmarks the JSON report covers, keyed by benchmark name.
const std::map<std::string, GainBenchSpec>& gain_bench_specs() {
  static const std::map<std::string, GainBenchSpec> specs = {
      {"BM_CoverageGain", {"coverage", "scalar", 1}},
      {"BM_CoverageGainBatch",
       {"coverage", "batch", double(kCoverageBatch)}},
      {"BM_ProbCoverageGain", {"prob_coverage", "scalar", 1}},
      {"BM_ProbCoverageGainBatch",
       {"prob_coverage", "batch", double(kProbBatch)}},
      {"BM_ExemplarExactGain", {"exemplar", "scalar", 1}},
      {"BM_ExemplarExactGainBatch",
       {"exemplar", "batch", double(kExemplarBatch)}},
      {"BM_SaturatedGain", {"saturated_coverage", "scalar", 1}},
      {"BM_SaturatedGainBatch",
       {"saturated_coverage", "batch", double(kSaturatedBatch)}},
  };
  return specs;
}

// Console output as usual, plus a copy of every iteration run for the JSON
// summary written after the run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        collected_.push_back(run);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& collected() const noexcept { return collected_; }

 private:
  std::vector<Run> collected_;
};

void write_gain_json(const std::string& path,
                     const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  // objective -> mode -> wall-clock ns per oracle evaluation.
  std::map<std::string, std::map<std::string, double>> ns_per_eval;
  // Per-iteration real time of every benchmark (the kernels section).
  std::map<std::string, double> raw_ns;
  for (const auto& run : runs) {
    raw_ns[run.benchmark_name()] = run.GetAdjustedRealTime();
    const auto it = gain_bench_specs().find(run.benchmark_name());
    if (it == gain_bench_specs().end()) continue;
    const GainBenchSpec& spec = it->second;
    // GetAdjustedRealTime is per-iteration real time in the run's time unit
    // (ns by default); one iteration performs evals_per_iter evaluations.
    ns_per_eval[spec.objective][spec.mode] =
        run.GetAdjustedRealTime() / spec.evals_per_iter;
  }

  std::ofstream out(path);
  out << "{\n  \"unit\": \"ns_per_eval\",\n  \"objectives\": {\n";
  bool first_obj = true;
  for (const auto& [objective, modes] : ns_per_eval) {
    if (!first_obj) out << ",\n";
    first_obj = false;
    out << "    \"" << objective << "\": {";
    bool first_mode = true;
    for (const auto& [mode, ns] : modes) {
      if (!first_mode) out << ", ";
      first_mode = false;
      out << "\"" << mode << "\": " << ns;
    }
    const auto scalar = modes.find("scalar");
    const auto batch = modes.find("batch");
    if (scalar != modes.end() && batch != modes.end() && batch->second > 0.0) {
      out << ", \"batch_speedup\": " << scalar->second / batch->second;
    }
    out << "}";
  }
  out << "\n  },\n";

  // Kernel layer: exemplar gain_batch ns/eval per dim × mode (see the
  // BM_KernelGainBatch comment for what each ratio isolates).
  {
    out << "  \"kernels\": {\n"
        << "    \"active\": \"" << kern::active_name() << "\",\n"
        << "    \"points\": " << kKernelPoints << ",\n"
        << "    \"batch\": " << kKernelBatch << ",\n"
        << "    \"dims\": {";
    const char* mode_key[] = {"lane_scalar", "dispatched"};
    bool first_dim = true;
    for (const int dim : {16, 64, 128}) {
      double ns[2] = {0.0, 0.0};
      for (int mode = 0; mode < 2; ++mode) {
        const auto it = raw_ns.find("BM_KernelGainBatch/dim:" +
                                    std::to_string(dim) +
                                    "/mode:" + std::to_string(mode));
        if (it != raw_ns.end()) ns[mode] = it->second / double(kKernelBatch);
      }
      if (ns[0] <= 0.0 && ns[1] <= 0.0) continue;
      if (!first_dim) out << ", ";
      first_dim = false;
      out << "\"" << dim << "\": {";
      bool first_mode = true;
      for (int mode = 0; mode < 2; ++mode) {
        if (ns[mode] <= 0.0) continue;
        if (!first_mode) out << ", ";
        first_mode = false;
        out << "\"" << mode_key[mode] << "\": " << ns[mode];
      }
      if (ns[0] > 0.0 && ns[1] > 0.0) {
        out << ", \"dispatched_vs_lane_scalar\": " << ns[0] / ns[1];
      }
      out << "}";
    }
    out << "}\n  },\n";
  }

  // Out-of-core: heap vs zero-copy mapped load of the big corpus, measured
  // at write time. Both loads start from a cold page cache (fadvise
  // DONTNEED), so "load + first shard round" is the honest first-round
  // latency: the heap path must read and copy all ~240 MB up front, the
  // mapped path faults in only the pages its shard touches. The worker's
  // state is its clone's covered byte map: one byte per universe element.
  {
    const std::string corpus = mmap_corpus_path();
    ensure_mmap_corpus(corpus);
    const auto file_bytes = std::filesystem::file_size(corpus);
    const auto shard = stride_ids(kBigShard, 9'973, kBigSets);
    std::vector<double> heap_gains(shard.size());
    std::vector<double> mapped_gains(shard.size());

    double heap_load_s = 0.0;
    double heap_round_s = 0.0;
    {
      util::evict_file_cache(corpus);
      util::Timer load_timer;
      const auto sets = data::load_set_system(corpus);
      heap_load_s = load_timer.elapsed_seconds();
      const CoverageOracle oracle(sets);
      util::Timer round_timer;
      const auto worker = oracle.shard_view(shard);
      worker->gain_batch(shard, heap_gains);
      heap_round_s = round_timer.elapsed_seconds();
    }

    double map_load_s = 0.0;
    double map_round_s = 0.0;
    std::size_t worker_bytes = 0;
    {
      util::evict_file_cache(corpus);
      util::Timer load_timer;
      const auto sets = data::map_set_system(corpus);
      map_load_s = load_timer.elapsed_seconds();
      const CoverageOracle oracle(sets);
      util::Timer round_timer;
      const auto worker = oracle.shard_view(shard);
      worker_bytes = worker->state_bytes();
      worker->gain_batch(shard, mapped_gains);
      map_round_s = round_timer.elapsed_seconds();
    }

    out << "  \"mmap\": {\n"
        << "    \"corpus_sets\": " << kBigSets << ",\n"
        << "    \"corpus_universe\": " << kBigUniverse << ",\n"
        << "    \"corpus_file_bytes\": " << file_bytes << ",\n"
        << "    \"bench_shard_size\": " << kBigShard << ",\n"
        << "    \"heap_load_s\": " << heap_load_s << ",\n"
        << "    \"mmap_load_s\": " << map_load_s << ",\n"
        << "    \"load_speedup\": "
        << (map_load_s > 0.0 ? heap_load_s / map_load_s : 0.0) << ",\n"
        << "    \"first_round_cold_heap_s\": " << heap_load_s + heap_round_s
        << ",\n"
        << "    \"first_round_cold_mmap_s\": " << map_load_s + map_round_s
        << ",\n"
        << "    \"peak_worker_state_bytes\": " << worker_bytes << ",\n"
        << "    \"gains_identical\": "
        << (heap_gains == mapped_gains ? "true" : "false") << "\n  },\n";
  }

  // Fault-injecting executor: retry overhead on the canonical bicriteria
  // workload (timings from the benchmarks above; ledgers and the degradation
  // delta measured at write time — deterministic, so stable across runs).
  {
    const auto clean = run_fault_workload(fault_bench_config());

    auto recoverable_cfg = fault_bench_config();
    recoverable_cfg.runtime.faults = dist::FaultPlan::recoverable(99);
    recoverable_cfg.runtime.retry.max_attempts = 0;
    const auto recovered = run_fault_workload(recoverable_cfg);

    auto degraded_cfg = fault_bench_config();
    degraded_cfg.runtime.faults.seed = 99;
    degraded_cfg.runtime.faults.crash_probability = 0.35;
    degraded_cfg.runtime.retry.max_attempts = 1;
    const auto degraded = run_fault_workload(degraded_cfg);

    out << "  \"faults\": {\n"
        << "    \"workload\": \"bicriteria k=10 rounds=2 on synthetic "
           "coverage (2000 sets)\",\n"
        << "    \"recoverable\": {"
        << "\"selection_identical\": "
        << (recovered.solution == clean.solution ? "true" : "false")
        << ", \"retries\": " << recovered.stats.total_retries()
        << ", \"faults_injected\": " << recovered.stats.total_faults_injected()
        << ", \"wasted_evals\": " << recovered.stats.total_wasted_evals()
        << ", \"delivered_evals\": " << recovered.stats.total_worker_evals()
        << "},\n"
        << "    \"degraded\": {"
        << "\"machines_unheard\": " << degraded.stats.total_machines_unheard()
        << ", \"value\": " << degraded.value
        << ", \"fault_free_value\": " << clean.value
        << ", \"value_retained\": "
        << (clean.value > 0.0 ? degraded.value / clean.value : 1.0) << "}";
    const auto clean_ns = raw_ns.find("BM_BicriteriaFaultFree");
    const auto faulty_ns = raw_ns.find("BM_BicriteriaRecoverableFaults");
    if (clean_ns != raw_ns.end() && faulty_ns != raw_ns.end() &&
        clean_ns->second > 0.0) {
      out << ",\n    \"fault_free_ms\": " << clean_ns->second / 1e6
          << ",\n    \"recoverable_ms\": " << faulty_ns->second / 1e6
          << ",\n    \"retry_overhead\": "
          << faulty_ns->second / clean_ns->second;
    }
    out << "\n  },\n";
  }

  // Dynamic corpus: mutation-path costs and the certified churn ledger,
  // measured at write time (deterministic seeds, so stable across runs).
  {
    const auto sets = churn_bench_sets();
    const std::uint32_t universe = sets->universe_size();
    constexpr std::size_t kMutations = 512;
    constexpr std::size_t kRebuildMutations = 32;
    util::Rng rng(31);
    // Payloads drawn up front so the timings cover apply, not generation.
    std::vector<std::vector<std::uint32_t>> payloads(kMutations);
    for (auto& p : payloads) {
      p.resize(2 + rng.next_below(6));
      for (auto& e : p) {
        e = static_cast<std::uint32_t>(rng.next_below(universe));
      }
    }

    // Corpus apply alone: canonicalize + append to the overlay and log.
    const double corpus_s = min_wall_seconds([&] {
      data::DynamicCorpus corpus(sets, "bench-apply");
      for (const auto& p : payloads) corpus.insert(p);
    });

    // Incremental path: the oracle absorbs each insert in O(degree).
    double incremental_s = 0.0;
    {
      data::DynamicCorpus corpus(sets, "bench-incremental");
      const auto oracle = data::make_dynamic_oracle(corpus, "coverage", {});
      util::Timer timer;
      for (const auto& p : payloads) {
        const ElementId id = corpus.insert(p);
        oracle->apply_insert(id, corpus.log().back().items, corpus.epoch());
      }
      incremental_s = timer.elapsed_seconds();
    }

    // Rebuild path: what a non-incremental oracle pays per mutation.
    double rebuild_s = 0.0;
    {
      data::DynamicCorpus corpus(sets, "bench-rebuild");
      data::DynamicOracleOptions opts;
      opts.prefer_incremental = false;
      util::Timer timer;
      for (std::size_t i = 0; i < kRebuildMutations; ++i) {
        corpus.insert(payloads[i]);
        benchmark::DoNotOptimize(
            data::make_dynamic_oracle(corpus, "coverage", opts));
      }
      rebuild_s = timer.elapsed_seconds();
    }
    const double incr_us = incremental_s * 1e6 / double(kMutations);
    const double rebuild_us = rebuild_s * 1e6 / double(kRebuildMutations);

    // Certified maintenance under churn, and window-advance latency.
    util::Timer churn_timer;
    const auto maintainer = run_churn_workload(200);
    const double churn_s = churn_timer.elapsed_seconds();
    const MaintainStats& churn = maintainer->stats();

    CoverageOracle window_proto(shared_sets());
    WindowConfig wcfg;
    wcfg.window = 64;
    wcfg.k = 10;
    wcfg.decay_epsilon = 0.3;
    SlidingWindowSieve sieve(window_proto, wcfg);
    util::Rng wrng(33);
    constexpr std::size_t kArrivals = 2'000;
    util::Timer window_timer;
    for (std::size_t t = 0; t < kArrivals; ++t) {
      sieve.push(
          static_cast<ElementId>(wrng.next_below(window_proto.ground_size())));
    }
    const double window_s = window_timer.elapsed_seconds();
    const WindowStats& wstats = sieve.stats();

    out << "  \"dynamic\": {\n"
        << "    \"corpus\": \"dblp-like " << sets->num_sets()
        << " sets, universe " << universe << "\",\n"
        << "    \"mutations\": " << kMutations << ",\n"
        << "    \"corpus_apply_us_per_mutation\": "
        << corpus_s * 1e6 / double(kMutations) << ",\n"
        << "    \"incremental_apply_us_per_mutation\": " << incr_us << ",\n"
        << "    \"rebuild_us_per_mutation\": " << rebuild_us << ",\n"
        << "    \"incremental_vs_rebuild_speedup\": "
        << (incr_us > 0.0 ? rebuild_us / incr_us : 0.0) << ",\n"
        << "    \"churn\": {"
        << "\"steps\": 200, \"epsilon\": " << churn_config().epsilon
        << ", \"kept\": " << churn.kept << ", \"resolved\": " << churn.resolved
        << ", \"resolve_rate\": " << churn.resolve_rate()
        << ", \"certificate_evals\": " << churn.certificate_evals
        << ", \"resolve_evals\": " << churn.resolve_evals
        << ", \"oracle_rebuilds\": " << churn.oracle_rebuilds
        << ", \"wall_s\": " << churn_s << "},\n"
        << "    \"window\": {"
        << "\"arrivals\": " << kArrivals << ", \"window\": " << wcfg.window
        << ", \"k\": " << wcfg.k
        << ", \"push_us_per_arrival\": " << window_s * 1e6 / double(kArrivals)
        << ", \"kept\": " << wstats.kept
        << ", \"resolves\": " << wstats.resolves
        << ", \"resolve_rate\": " << wstats.resolve_rate() << "}\n  }\n}\n";
  }
}

// The prob_coverage batch regression gate: whenever the scalar and batch
// gain benchmarks both ran, batching kProbBatch candidates must be faster
// per evaluation than scalar gain() calls. Guards the candidate-interleaved
// tile in prob_coverage.cpp against re-introducing the serial-add-chain
// layout that made the batch path *slower* than scalar (0.95x in PR4).
int check_prob_batch_speedup(
    const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  double scalar = 0.0, batch = 0.0;
  for (const auto& run : runs) {
    if (run.benchmark_name() == "BM_ProbCoverageGain") {
      scalar = run.GetAdjustedRealTime();
    } else if (run.benchmark_name() == "BM_ProbCoverageGainBatch") {
      batch = run.GetAdjustedRealTime() / double(kProbBatch);
    }
  }
  if (scalar <= 0.0 || batch <= 0.0) return 0;
  const double speedup = scalar / batch;
  if (speedup <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: prob_coverage batch gain %.3fx vs scalar — the batch "
                 "path must win (> 1.0x)\n",
                 speedup);
    return 1;
  }
  return 0;
}

// The dynamic-churn regression gate: on the deterministic churn workload
// the certified maintenance loop must absorb at least one batch — a 100%
// re-solve rate means the certificate never pays for itself and the
// dynamic layer degenerated into solve-from-scratch-per-mutation. Runs
// unconditionally: it does not depend on --benchmark_filter.
int check_dynamic_churn() {
  const auto maintainer = run_churn_workload(64);
  const MaintainStats& stats = maintainer->stats();
  if (stats.batches == 0 || stats.resolved >= stats.batches) {
    std::fprintf(stderr,
                 "FAIL: certified maintenance re-solved %ju of %ju churn "
                 "batches — the re-solve rate must stay below 100%%\n",
                 std::uintmax_t(stats.resolved), std::uintmax_t(stats.batches));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our --json[=path] / --trace / --repeat flags before handing argv
  // to google-benchmark.
  std::string json_path;
  bool print_trace = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_micro.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else if (arg == "--trace") {
      print_trace = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      g_repeat = std::max<std::size_t>(
          1, std::strtoull(std::string(arg.substr(9)).c_str(), nullptr, 10));
    } else if (arg == "--repeat" && i + 1 < argc) {
      g_repeat = std::max<std::size_t>(
          1, std::strtoull(argv[++i], nullptr, 10));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (print_trace) {
    auto cfg = fault_bench_config();
    cfg.runtime.faults = dist::FaultPlan::recoverable(99);
    cfg.runtime.retry.max_attempts = 0;
    const auto result = run_fault_workload(cfg);
    std::printf("%s\n", dist::trace_to_json(result.stats.trace).c_str());
    if (argc == 2) return 0;  // --trace alone: skip the benchmark run
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) write_gain_json(json_path, reporter.collected());
  return check_prob_batch_speedup(reporter.collected()) |
         check_dynamic_churn();
}
