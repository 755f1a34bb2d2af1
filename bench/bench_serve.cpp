// bench_serve — open-loop latency benchmark for the summary service.
//
// Queries arrive on a fixed-rate schedule (open loop: a query's latency is
// measured from its *scheduled* arrival to its answer, so service-side
// queueing is charged to the service, not hidden by a blocked client).
// Budgets are drawn Zipf over a ladder, the recurring-workload shape the
// cache targets: a handful of configurations dominate, so after the first
// miss per configuration almost everything is a prefix hit.
//
//   $ build/bench/bench_serve --json > BENCH_SERVE.json
//   $ build/bench/bench_serve --smoke --json
//
// Reports p50/p99/mean latency overall and split cached (hit + coalesced)
// vs uncached (computed), throughput, hit rate, and oracle evals
// saved/spent. --smoke shrinks the workload and turns the comparison into
// an exit gate: cached p50 must land below uncached p50, or the run fails —
// the regression check CI runs on every push.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/graph_gen.h"
#include "objectives/coverage.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/zipf.h"

namespace {

using namespace bds;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage = R"(usage: bench_serve [options]
  --nodes N        coverage corpus size              (default 4000)
  --queries N      open-loop query count             (default 64)
  --clients C      client threads draining arrivals  (default 4)
  --rate R         arrivals per second               (default 50)
  --k-base K       budget ladder base                (default 8)
  --ladder L       budget ladder rungs k, 2k, 4k...  (default 4)
  --zipf S         Zipf exponent over the ladder     (default 1.1)
  --algorithm NAME registered algorithm              (default bicriteria)
  --seed S         corpus + runtime seed             (default 1)
  --json           print the JSON report to stdout
  --out FILE       also write the JSON report to FILE
  --smoke          small workload + exit gate: cached p50 < uncached p50
  --help           this text
)";

struct Sample {
  serve::ServeOutcome outcome;
  double latency = 0.0;  // scheduled arrival -> answer
};

struct Percentiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

Percentiles summarize(const std::vector<double>& xs) {
  Percentiles p;
  p.count = xs.size();
  if (xs.empty()) return p;
  p.p50 = util::percentile(xs, 0.50);
  p.p99 = util::percentile(xs, 0.99);
  p.mean = util::mean_of(xs);
  p.max = *std::max_element(xs.begin(), xs.end());
  return p;
}

void append_percentiles(std::ostringstream& out, const char* name,
                        const Percentiles& p) {
  out << "\"" << name << "\":{\"count\":" << p.count << ",\"p50\":" << p.p50
      << ",\"p99\":" << p.p99 << ",\"mean\":" << p.mean << ",\"max\":" << p.max
      << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.has("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    const bool smoke = flags.get_bool("smoke", false);
    const std::uint64_t seed = flags.get_uint("seed", 1);
    const std::string algorithm =
        flags.get_string("algorithm", "bicriteria");
    const auto nodes = static_cast<std::uint32_t>(
        flags.get_uint("nodes", smoke ? 2'000 : 4'000));
    const std::size_t n_queries =
        flags.get_uint("queries", smoke ? 24 : 64);
    const std::size_t clients =
        std::max<std::uint64_t>(1, flags.get_uint("clients", smoke ? 2 : 4));
    const double rate = flags.get_double("rate", 50.0);
    const std::size_t k_base = flags.get_uint("k-base", 8);
    const std::size_t ladder = std::max<std::uint64_t>(
        1, flags.get_uint("ladder", smoke ? 2 : 4));
    const double zipf_s = flags.get_double("zipf", 1.1);

    const auto sets = data::make_dblp_like(nodes, seed);
    const auto oracle = std::make_shared<CoverageOracle>(sets);

    serve::SummaryService service{serve::ServiceOptions{}};
    service.add_corpus("corpus", "coverage", oracle);

    // Zipf-over-budgets workload: rank r -> budget k_base * 2^r, rank 0
    // (the smallest budget) most frequent.
    util::Rng rng(seed);
    const util::ZipfSampler zipf(ladder, zipf_s);
    std::vector<serve::Query> queries(n_queries);
    for (std::size_t i = 0; i < n_queries; ++i) {
      queries[i].corpus = "corpus";
      queries[i].algorithm = algorithm;
      queries[i].k = k_base << zipf.sample(rng);
      queries[i].tenant = "tenant-" + std::to_string(i % 3);
      queries[i].runtime.seed = seed;
    }

    // Open loop: query i is scheduled at i / rate seconds after start.
    // Clients pull the next arrival, wait for its scheduled time if they
    // are early, and charge any lateness (service backlog) to the latency.
    std::vector<Sample> samples(n_queries);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    const auto start = Clock::now();
    auto client = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n_queries) return;
        const auto arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        std::this_thread::sleep_until(arrival);
        try {
          const serve::ServeResult r = service.query(queries[i]);
          samples[i].outcome = r.outcome;
          samples[i].latency =
              std::chrono::duration<double>(Clock::now() - arrival).count();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
          failures.fetch_add(1);
        }
      }
    };
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) workers.emplace_back(client);
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (failures.load() != 0) return 1;

    std::vector<double> all, cached, uncached;
    for (const Sample& s : samples) {
      all.push_back(s.latency);
      if (s.outcome == serve::ServeOutcome::kHit ||
          s.outcome == serve::ServeOutcome::kCoalesced ||
          s.outcome == serve::ServeOutcome::kDegraded) {
        cached.push_back(s.latency);
      } else {
        uncached.push_back(s.latency);
      }
    }
    const Percentiles p_all = summarize(all);
    const Percentiles p_cached = summarize(cached);
    const Percentiles p_uncached = summarize(uncached);
    const serve::ServiceStats stats = service.stats();
    const serve::CacheStats cache = service.cache_stats();

    std::ostringstream json;
    json << "{\"bench\":\"serve\",\"config\":{\"nodes\":" << nodes
         << ",\"queries\":" << n_queries << ",\"clients\":" << clients
         << ",\"rate_qps\":" << rate << ",\"k_base\":" << k_base
         << ",\"ladder\":" << ladder << ",\"zipf\":" << zipf_s
         << ",\"algorithm\":\"" << algorithm << "\",\"seed\":" << seed
         << ",\"smoke\":" << (smoke ? "true" : "false")
         << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
         << "},"
         << "\"elapsed_seconds\":" << elapsed
         << ",\"throughput_qps\":" << static_cast<double>(n_queries) / elapsed
         << ",\"hit_rate\":" << stats.hit_rate()
         << ",\"outcomes\":{\"hits\":" << stats.hits
         << ",\"coalesced\":" << stats.coalesced
         << ",\"computed\":" << stats.computed
         << ",\"degraded\":" << stats.degraded
         << ",\"rejected\":" << stats.rejected << "},"
         << "\"evals\":{\"saved\":" << stats.evals_saved
         << ",\"spent\":" << stats.evals_spent << "},"
         << "\"cache\":{\"insertions\":" << cache.insertions
         << ",\"replacements\":" << cache.replacements
         << ",\"evictions\":" << cache.evictions << "},";
    append_percentiles(json, "latency_seconds", p_all);
    json << ",";
    append_percentiles(json, "cached_latency_seconds", p_cached);
    json << ",";
    append_percentiles(json, "uncached_latency_seconds", p_uncached);
    json << "}";

    const std::string report = json.str();
    if (flags.get_bool("json", false)) std::printf("%s\n", report.c_str());
    if (flags.has("out")) {
      std::ofstream out(flags.get_string("out", "BENCH_SERVE.json"));
      out << report << "\n";
    }
    if (!flags.get_bool("json", false)) {
      std::printf(
          "serve: %zu queries in %.2fs (%.1f qps), hit rate %.0f%%\n"
          "  latency p50/p99: %.4fs / %.4fs\n"
          "  cached   p50: %.6fs over %zu queries\n"
          "  uncached p50: %.6fs over %zu queries\n"
          "  oracle evals saved/spent: %llu / %llu\n",
          n_queries, elapsed, static_cast<double>(n_queries) / elapsed,
          100.0 * stats.hit_rate(), p_all.p50, p_all.p99, p_cached.p50,
          p_cached.count, p_uncached.p50, p_uncached.count,
          static_cast<unsigned long long>(stats.evals_saved),
          static_cast<unsigned long long>(stats.evals_spent));
    }

    if (smoke) {
      if (p_cached.count == 0 || p_uncached.count == 0) {
        std::fprintf(stderr,
                     "smoke gate: need both cached and uncached samples "
                     "(%zu cached, %zu uncached)\n",
                     p_cached.count, p_uncached.count);
        return 1;
      }
      // The latency comparison is a timing assertion; on a single-core
      // container the client threads contend for the one core and cached
      // p50 can legitimately exceed uncached p50. Skip it explicitly there
      // (hardware_concurrency is recorded in the report either way).
      if (std::thread::hardware_concurrency() < 2) {
        std::fprintf(stderr,
                     "SKIP: cached-vs-uncached p50 gate needs >= 2 hardware "
                     "threads, host has %u\n",
                     std::thread::hardware_concurrency());
      } else if (p_cached.p50 >= p_uncached.p50) {
        std::fprintf(stderr,
                     "smoke gate: cached p50 %.6fs not below uncached p50 "
                     "%.6fs\n",
                     p_cached.p50, p_uncached.p50);
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 1;
  }
}
