// bds_cli — the everything-runner: generate (or load) a dataset, run any
// algorithm in the library against it, and print the solution quality and
// the distributed-execution accounting.
//
//   $ build/examples/bds_cli --dataset synthetic --algorithm hybrid
//         --k 50 --rounds 2 --eps 0.1
//   $ build/examples/bds_cli --dataset dblp --nodes 30000
//         --algorithm bicriteria --k 10 --output 20 --save dblp.bds
//   $ build/examples/bds_cli --load dblp.bds --algorithm randgreedi --k 10
//
// Datasets: synthetic | dblp | livejournal | gutenberg | wiki | images,
// or --load <file> written by a previous --save (coverage datasets only).
// Algorithms: whatever core/registry.h registers — --help enumerates them
// live, so the listing can never drift from the library.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "core/baselines.h"
#include "core/bicriteria.h"
#include "core/curvature.h"
#include "core/greedy.h"
#include "core/registry.h"
#include "core/upper_bound.h"
#include "dist/engine.h"
#include "data/bigram_gen.h"
#include "dist/report.h"
#include "data/corpus.h"
#include "data/graph_gen.h"
#include "data/io.h"
#include "data/synthetic_coverage.h"
#include "data/vectors_gen.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace bds;

constexpr const char* kUsage = R"(usage: bds_cli [options]
  --dataset NAME     synthetic | dblp | livejournal | gutenberg | wiki | images
  --load FILE        load a coverage dataset saved with --save
  --mmap             with --load: mmap the file zero-copy instead of heap
                     loading it (v2 files from --save or bds_convert;
                     selections are bit-identical either way)
  --save FILE        save the generated coverage dataset
  --nodes N          graph dataset size            (default 20000)
  --docs N           vector dataset size           (default 5000)
  --algorithm NAME   any registered algorithm (--help lists them all)
  --k K              target cardinality            (default 10)
  --output T         bicriteria output size        (default k)
  --rounds R         rounds                        (default 1)
  --eps E            epsilon                       (default 0.1)
  --machines M       machine count (0 = auto sqrt(n/k))
  --seed S           RNG seed                      (default 1)
  --threads T        host threads (0 = hardware default)
  --fault-seed S     nonzero: inject the recoverable fault mix with this
                     seed (crashes, drops, stragglers; unlimited retries)
  --transport NAME   inproc (default) | process: run each machine in its
                     own forked bds_worker process over the wire protocol;
                     selections are bit-identical across transports
  --worker BIN       with --transport process: the bds_worker binary
                     (default: $BDS_WORKER, else bds_worker next to bds_cli)
  --checkpoint-dir D write DIR/checkpoint.bds after every completed round
                     (engine-backed algorithms; see dist/engine.h)
  --resume FILE      continue a killed run from its checkpoint file; the
                     algorithm, parameters and --seed must match the
                     original invocation
  --halt-after-round N
                     stop after N completed rounds (with --checkpoint-dir:
                     simulate a mid-run kill for later --resume)
  --trace            print the structured round trace as JSON
  --verbose          print the per-round execution report
  --certify          print curvature + upper-bound certificates
  --help             this text
)";

// The file a generated dataset is spilled to for process workers: the
// --save path when given, else bds_cli.<pid>.corpus in the temp directory
// ($TMPDIR, else /tmp), which the destructor removes — so it goes when main
// returns, also through an exception. In-process runs spill nothing.
class SpillFile {
 public:
  SpillFile(const util::Flags& flags, bool process_transport)
      : owned_(process_transport && !flags.has("save")),
        path_(owned_ ? (std::filesystem::temp_directory_path() /
                        ("bds_cli." + std::to_string(::getpid()) + ".corpus"))
                           .string()
                     : flags.get_string("save", "")) {}
  ~SpillFile() {
    std::error_code ignored;
    if (owned_) std::filesystem::remove(path_, ignored);
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  bool owned_;
  std::string path_;
};

// When `corpus` is non-null (--transport process) the workers rebuild the
// oracle from a dataset file, so generated datasets are spilled to `spill`
// and the coordinator reloads it through the same
// data::CorpusSpec::make_oracle() call the workers use — one canonical
// construction on both sides of the wire.
std::shared_ptr<const SubmodularOracle> make_oracle(
    const util::Flags& flags, std::string* description,
    data::CorpusSpec* corpus, const SpillFile& spill) {
  const std::string dataset = flags.get_string("dataset", "synthetic");
  const std::uint64_t seed = flags.get_uint("seed", 1);

  if (flags.has("load")) {
    const std::string path = flags.get_string("load", "");
    const bool mmap = flags.get_bool("mmap", false);
    const auto sets =
        mmap ? data::map_set_system(path) : data::load_set_system(path);
    *description = std::string(mmap ? "mapped" : "loaded") +
                   " coverage dataset (" + std::to_string(sets->num_sets()) +
                   " sets)";
    if (corpus != nullptr) {
      corpus->objective = "coverage";
      corpus->path = path;
      corpus->mmap = mmap;
    }
    return std::make_shared<CoverageOracle>(sets);
  }

  if (dataset == "wiki" || dataset == "images") {
    std::shared_ptr<const PointSet> points;
    if (dataset == "wiki") {
      data::LdaVectorsConfig cfg;
      cfg.documents =
          static_cast<std::uint32_t>(flags.get_uint("docs", 5'000));
      cfg.seed = seed;
      points = data::make_lda_like_vectors(cfg);
    } else {
      data::ImageVectorsConfig cfg;
      cfg.images = static_cast<std::uint32_t>(flags.get_uint("docs", 2'000));
      cfg.dim = 512;  // CLI-scale default; use the benches for 3072
      cfg.seed = seed;
      points = data::make_image_like_vectors(cfg);
    }
    *description = dataset + "-like exemplar clustering";
    if (corpus != nullptr) {
      data::save_point_set(*points, spill.path());
      corpus->objective = "exemplar";
      corpus->path = spill.path();
      corpus->p0_dist = 2.0;
      return corpus->make_oracle();
    }
    return std::make_shared<ExemplarOracle>(points, 2.0);
  }

  std::shared_ptr<const SetSystem> sets;
  if (dataset == "synthetic") {
    data::SyntheticCoverageConfig cfg;
    cfg.universe_size = static_cast<std::uint32_t>(
        flags.get_uint("universe", 10'000));
    cfg.planted_sets =
        static_cast<std::uint32_t>(flags.get_uint("planted", 100));
    cfg.random_sets =
        static_cast<std::uint32_t>(flags.get_uint("decoys", 100'000));
    cfg.seed = seed;
    sets = data::make_synthetic_coverage(cfg).sets;
    *description = "synthetic hard coverage";
  } else if (dataset == "dblp" || dataset == "livejournal") {
    const auto nodes =
        static_cast<std::uint32_t>(flags.get_uint("nodes", 20'000));
    sets = dataset == "dblp" ? data::make_dblp_like(nodes, seed)
                             : data::make_livejournal_like(nodes, seed);
    *description = dataset + "-like neighborhood coverage";
  } else if (dataset == "gutenberg") {
    data::BigramConfig cfg;
    cfg.books = static_cast<std::uint32_t>(flags.get_uint("books", 1'000));
    cfg.seed = seed;
    sets = data::make_bigram_sets(cfg);
    *description = "gutenberg-like bi-gram coverage";
  } else {
    throw std::invalid_argument("unknown --dataset " + dataset);
  }

  if (flags.has("save")) {
    data::save_set_system(*sets, flags.get_string("save", ""));
  }
  if (corpus != nullptr) {
    if (!flags.has("save")) data::save_set_system(*sets, spill.path());
    corpus->objective = "coverage";
    corpus->path = spill.path();
    return corpus->make_oracle();
  }
  return std::make_shared<CoverageOracle>(sets);
}

RunResult run_algorithm(const util::Flags& flags,
                        const SubmodularOracle& oracle,
                        std::span<const ElementId> ground,
                        const data::CorpusSpec* corpus) {
  AlgorithmParams params;
  params.k = flags.get_uint("k", 10);
  params.rounds = flags.get_uint("rounds", 1);
  params.output_items = flags.get_uint("output", 0);
  params.epsilon = flags.get_double("eps", 0.1);
  params.machines = flags.get_uint("machines", 0);

  RuntimeOptions runtime;
  runtime.seed = flags.get_uint("seed", 1);
  runtime.threads = flags.get_uint("threads", 0);
  runtime.mmap_datasets = flags.get_bool("mmap", false);
  const std::uint64_t fault_seed = flags.get_uint("fault-seed", 0);
  if (fault_seed != 0) {
    // The recoverable mix with unlimited retries: every shard is eventually
    // heard, so the selection matches the fault-free run while the stats
    // pick up the retry/straggler overhead.
    runtime.faults = dist::FaultPlan::recoverable(fault_seed);
    runtime.retry.max_attempts = 0;
  }
  if (flags.has("checkpoint-dir")) {
    const std::string path =
        flags.get_string("checkpoint-dir", ".") + "/checkpoint.bds";
    runtime.checkpoint_sink = [path](const Checkpoint& checkpoint) {
      save_checkpoint_file(checkpoint, path);
    };
  }
  if (flags.has("resume")) {
    runtime.resume_from = std::make_shared<const Checkpoint>(
        load_checkpoint_file(flags.get_string("resume", "")));
  }
  runtime.halt_after_round = flags.get_uint("halt-after-round", 0);
  const std::string transport = flags.get_string("transport", "inproc");
  if (transport == "process") {
    runtime.transport = TransportKind::kProcess;
    runtime.process.worker_binary = flags.get_string("worker", "");
    runtime.process.corpus_spec = corpus->serialize();
  } else if (transport != "inproc") {
    throw std::invalid_argument("unknown --transport " + transport);
  }
  return run_distributed(flags.get_string("algorithm", "bicriteria"), oracle,
                         ground, runtime, params);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.has("help")) {
      std::printf("%s", kUsage);
      // Enumerated live from the registry, so the listing is always the
      // set of names run_distributed actually accepts.
      std::printf("\nalgorithms:\n");
      for (const auto& spec : algorithm_registry()) {
        std::printf("  %-20s %s%s\n", spec.name.c_str(),
                    spec.description.c_str(),
                    spec.distributed ? "" : " [centralized]");
      }
      std::printf("\nobjectives:\n");
      for (const auto& spec : objective_registry()) {
        std::printf("  %-20s %s\n", spec.name.c_str(),
                    spec.description.c_str());
      }
      return 0;
    }

    std::string description;
    const bool process_transport =
        flags.get_string("transport", "inproc") == "process";
    data::CorpusSpec corpus;
    const SpillFile spill(flags, process_transport);
    util::Timer gen_timer;
    const auto oracle = make_oracle(
        flags, &description, process_transport ? &corpus : nullptr, spill);
    std::vector<ElementId> ground(oracle->ground_size());
    for (std::size_t i = 0; i < ground.size(); ++i) {
      ground[i] = static_cast<ElementId>(i);
    }
    std::printf("dataset: %s — %zu items (%.1fs)\n", description.c_str(),
                ground.size(), gen_timer.elapsed_seconds());

    util::Timer run_timer;
    const auto result = run_algorithm(flags, *oracle, ground,
                                      process_transport ? &corpus : nullptr);
    const double seconds = run_timer.elapsed_seconds();

    const std::size_t k = flags.get_uint("k", 10);
    const double ub =
        solution_upper_bound(*oracle, result.solution, ground, k);

    std::printf("\nalgorithm: %s\n",
                flags.get_string("algorithm", "bicriteria").c_str());
    util::Table table({"metric", "value"});
    table.add_row({"items output", util::Table::fmt_int(result.size())});
    table.add_row({"f(S)", util::Table::fmt(result.value, 2)});
    table.add_row({"upper bound on f(OPT_k)", util::Table::fmt(ub, 2)});
    table.add_row({"f(S) / UB", util::Table::fmt_pct(result.value / ub)});
    table.add_row({"rounds", util::Table::fmt_int(result.stats.num_rounds())});
    table.add_row({"communication (KiB)",
                   util::Table::fmt(
                       double(result.stats.bytes_communicated()) / 1024.0,
                       1)});
    table.add_row({"oracle evals (total)",
                   util::Table::fmt_int(result.stats.total_evals())});
    table.add_row({"oracle evals (critical path)",
                   util::Table::fmt_int(result.stats.critical_path_evals())});
    table.add_row({"wall time (s)", util::Table::fmt(seconds, 2)});
    std::printf("%s", table.to_string().c_str());
    if (flags.get_bool("verbose", false) &&
        !result.stats.rounds.empty()) {
      std::printf("\nexecution report:\n%s",
                  dist::render_execution_report(result.stats).c_str());
    }
    if (flags.get_bool("trace", false) && !result.stats.trace.empty()) {
      std::printf("\ntrace: %s\n",
                  dist::trace_to_json(result.stats.trace).c_str());
    }
    if (flags.get_bool("certify", false)) {
      // Instance-specific certificates: the top-k-marginal bound above plus
      // a curvature-refined greedy factor (sampled estimate on big grounds).
      const std::size_t sample = ground.size() > 2'000 ? 32 : 0;
      const auto curvature =
          estimate_curvature(*oracle, ground, sample,
                             flags.get_uint("seed", 1));
      std::printf(
          "\ncertificates: f(S)/UB = %.1f%%; measured curvature c = %.3f "
          "(%s over %zu elements) -> refined greedy factor %.1f%%\n",
          100.0 * result.value / ub, curvature.curvature,
          curvature.exact ? "exact" : "sampled", curvature.elements_used,
          100.0 * curvature.refined_greedy_factor);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 1;
  }
}
