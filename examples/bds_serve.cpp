// bds_serve — the persistent summary service, exercised end to end: it
// registers a coverage corpus and an exemplar-clustering corpus, replays a
// scripted multi-tenant query mix against serve::SummaryService from
// concurrent client threads, and reports the serving statistics.
//
//   $ build/examples/bds_serve --queries 64 --clients 4
//   $ build/examples/bds_serve --verify --min-hit-rate 0.5
//   $ build/examples/bds_serve --mutations 24 --verify
//   $ build/examples/bds_serve --trace
//
// --verify pins the serving contract offline: the largest-budget answer
// per corpus must be bitwise equal to a direct run_distributed call at the
// same parameters, and every smaller-budget cache hit must be the bitwise
// prefix of that run with the replayed prefix value. --min-hit-rate turns
// the hit rate into an exit gate for CI.
//
// --mutations N registers a third, *dynamic* coverage corpus and runs a
// mutation storm against it: a mutator thread interleaves N inserts/erases
// with the concurrent client queries (the race CI's smoke leg exists to
// catch). With --verify, the post-storm answer must additionally be
// bitwise equal to a direct run over a from-scratch rebuild of the mutated
// corpus — the dynamic-vs-rebuild identity from data/dynamic.h.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/dynamic.h"
#include "data/graph_gen.h"
#include "data/vectors_gen.h"
#include "dist/trace.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bds;

constexpr const char* kUsage = R"(usage: bds_serve [options]
  --nodes N          coverage corpus size          (default 4000)
  --docs N           exemplar corpus size          (default 600)
  --queries N        queries in the scripted mix   (default 48)
  --clients C        concurrent client threads     (default 4)
  --tenants T        tenants in the mix            (default 3)
  --algorithm NAME   any registered algorithm      (default bicriteria)
  --mutations N      storm: N inserts/erases on a dynamic corpus (default 0)
  --seed S           corpus + runtime seed         (default 1)
  --threads T        service pool threads (0 = hardware default)
  --min-hit-rate X   exit 1 if the mix's hit rate lands below X
  --verify           check served answers bitwise against direct runs
  --trace            print per-query spans as JSON
  --help             this text
)";

struct Mix {
  serve::SummaryService& service;
  std::vector<serve::Query> queries;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
};

void client_loop(Mix& mix) {
  for (;;) {
    const std::size_t i = mix.next.fetch_add(1);
    if (i >= mix.queries.size()) return;
    try {
      (void)mix.service.query(mix.queries[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
      mix.failures.fetch_add(1);
    }
  }
}

// The verification oracle: serve at budget k' must equal the length-k'
// prefix of the direct run at the cached configuration (budget k_max),
// valued by ordered replay. Returns the number of mismatches.
std::size_t verify_corpus(serve::SummaryService& service,
                          const std::string& corpus,
                          const std::string& algorithm,
                          const SubmodularOracle& proto,
                          std::span<const ElementId> ground,
                          std::size_t k_max, std::uint64_t seed) {
  serve::Query q;
  q.corpus = corpus;
  q.algorithm = algorithm;
  q.k = k_max;
  q.runtime.seed = seed;
  const serve::ServeResult full = service.query(q);

  AlgorithmParams params;
  params.k = k_max;
  RuntimeOptions runtime;
  runtime.seed = seed;
  const RunResult direct =
      run_distributed(algorithm, proto, ground, runtime, params);

  std::size_t mismatches = 0;
  if (full.solution != direct.solution || full.value != direct.value) {
    std::fprintf(stderr, "verify: %s full answer differs from direct run\n",
                 corpus.c_str());
    ++mismatches;
  }

  // Replay the direct solution to get the reference prefix values.
  auto replay = proto.clone();
  std::vector<double> prefix_value{replay->value()};
  for (const ElementId x : direct.solution) {
    replay->add(x);
    prefix_value.push_back(replay->value());
  }

  for (std::size_t k = 1; k < k_max; k += std::max<std::size_t>(1, k_max / 7)) {
    q.k = k;
    const serve::ServeResult prefix = service.query(q);
    const std::size_t len = std::min(k, direct.solution.size());
    const bool items_match =
        prefix.solution.size() == len &&
        std::equal(prefix.solution.begin(), prefix.solution.end(),
                   direct.solution.begin());
    if (!items_match || prefix.value != prefix_value[len]) {
      std::fprintf(stderr,
                   "verify: %s budget %zu prefix differs from direct run\n",
                   corpus.c_str(), k);
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.has("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    const std::uint64_t seed = flags.get_uint("seed", 1);
    const std::string algorithm =
        flags.get_string("algorithm", "bicriteria");
    require_algorithm(algorithm);

    // Two corpora with different objective families: neighborhood coverage
    // and exemplar clustering.
    const auto nodes =
        static_cast<std::uint32_t>(flags.get_uint("nodes", 4'000));
    const auto sets = data::make_dblp_like(nodes, seed);
    const auto coverage = std::make_shared<CoverageOracle>(sets);

    data::LdaVectorsConfig vec_cfg;
    vec_cfg.documents = static_cast<std::uint32_t>(flags.get_uint("docs", 600));
    vec_cfg.seed = seed;
    const auto points = data::make_lda_like_vectors(vec_cfg);
    const auto exemplar = std::make_shared<ExemplarOracle>(points, 2.0);

    serve::ServiceOptions options;
    options.threads = flags.get_uint("threads", 0);
    options.record_query_spans = flags.get_bool("trace", false);
    serve::SummaryService service(options);
    service.add_corpus("dblp", "coverage", coverage);
    service.add_corpus("wiki", "exemplar", exemplar);

    // The mutation storm target: the same base set system behind a
    // DynamicCorpus, mutated concurrently with the query mix.
    const std::size_t n_mutations = flags.get_uint("mutations", 0);
    const auto dynamic = std::make_shared<data::DynamicCorpus>(sets, "churn");
    if (n_mutations > 0) {
      service.add_dynamic_corpus("churn", "coverage", dynamic);
    }

    // The scripted mix: tenants cycle; budgets cycle over a small ladder so
    // the same configurations recur (the serving workload this service is
    // for); all corpora are interleaved.
    std::vector<std::string> corpora{"dblp", "wiki"};
    if (n_mutations > 0) corpora.push_back("churn");
    const std::size_t n_queries = flags.get_uint("queries", 48);
    const std::size_t tenants = std::max<std::uint64_t>(1, flags.get_uint("tenants", 3));
    const std::size_t budgets[] = {4, 8, 16, 8, 4, 16, 32, 8};
    Mix mix{service, {}, {}, {}};
    mix.queries.reserve(n_queries);
    for (std::size_t i = 0; i < n_queries; ++i) {
      serve::Query q;
      q.corpus = corpora[i % corpora.size()];
      q.algorithm = algorithm;
      q.k = budgets[(i / corpora.size()) % std::size(budgets)];
      q.tenant = "tenant-" + std::to_string(i % tenants);
      q.runtime.seed = seed;
      mix.queries.push_back(std::move(q));
    }

    const std::size_t clients =
        std::max<std::uint64_t>(1, flags.get_uint("clients", 4));
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&mix] { client_loop(mix); });
    }

    // Mutator thread: interleaves inserts (random small sets) and erases
    // (oldest live id) with the client queries. Every mutation goes through
    // the service's endpoints, so each one bumps the epoch and runs the
    // invalidate-or-recertify pass while queries are in flight.
    std::atomic<std::size_t> mutation_failures{0};
    std::thread mutator;
    if (n_mutations > 0) {
      mutator = std::thread([&] {
        util::Rng rng(util::mix64(seed ^ 0xc0ffee));
        ElementId erase_cursor = 0;
        for (std::size_t i = 0; i < n_mutations; ++i) {
          try {
            if (i % 3 == 2) {
              while (!dynamic->is_live(erase_cursor)) ++erase_cursor;
              service.corpus_erase("churn", erase_cursor++);
            } else {
              const std::size_t len = 5 + rng.next_below(16);
              std::vector<std::uint32_t> items(len);
              for (auto& item : items) {
                item = static_cast<std::uint32_t>(
                    rng.next_below(dynamic->universe_size()));
              }
              service.corpus_insert("churn", std::move(items));
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "mutation %zu failed: %s\n", i, e.what());
            mutation_failures.fetch_add(1);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }

    for (auto& w : workers) w.join();
    if (mutator.joinable()) mutator.join();

    const serve::ServiceStats stats = service.stats();
    const serve::CacheStats cache = service.cache_stats();
    util::Table table({"metric", "value"});
    table.add_row({"queries", util::Table::fmt_int(stats.queries)});
    table.add_row({"hits", util::Table::fmt_int(stats.hits)});
    table.add_row({"coalesced", util::Table::fmt_int(stats.coalesced)});
    table.add_row({"computed", util::Table::fmt_int(stats.computed)});
    table.add_row({"degraded", util::Table::fmt_int(stats.degraded)});
    table.add_row({"rejected", util::Table::fmt_int(stats.rejected)});
    table.add_row({"hit rate", util::Table::fmt_pct(stats.hit_rate())});
    table.add_row({"oracle evals saved",
                   util::Table::fmt_int(stats.evals_saved)});
    table.add_row({"oracle evals spent",
                   util::Table::fmt_int(stats.evals_spent)});
    table.add_row({"cache entries", util::Table::fmt_int(service.cache_stats().insertions)});
    table.add_row({"cache evictions", util::Table::fmt_int(cache.evictions)});
    if (n_mutations > 0) {
      table.add_row({"mutations", util::Table::fmt_int(stats.mutations)});
      table.add_row({"corpus epoch",
                     util::Table::fmt_int(service.corpus_epoch("churn"))});
      table.add_row({"summaries recertified",
                     util::Table::fmt_int(stats.summaries_recertified)});
      table.add_row({"summaries invalidated",
                     util::Table::fmt_int(stats.summaries_invalidated)});
      table.add_row({"oracle rebuilds",
                     util::Table::fmt_int(stats.oracle_rebuilds)});
    }
    std::printf("%s", table.to_string().c_str());

    if (flags.get_bool("trace", false)) {
      std::printf("\nquery spans: %s\n",
                  dist::query_spans_to_json(service.drain_query_spans())
                      .c_str());
    }

    std::size_t mismatches = 0;
    if (flags.get_bool("verify", false)) {
      std::vector<ElementId> cov_ground(coverage->ground_size());
      for (std::size_t i = 0; i < cov_ground.size(); ++i) {
        cov_ground[i] = static_cast<ElementId>(i);
      }
      std::vector<ElementId> ex_ground(exemplar->ground_size());
      for (std::size_t i = 0; i < ex_ground.size(); ++i) {
        ex_ground[i] = static_cast<ElementId>(i);
      }
      mismatches += verify_corpus(service, "dblp", algorithm, *coverage,
                                  cov_ground, 32, seed);
      // Both corpora verify at the mix's largest budget (32): a smaller
      // verify budget is served as a prefix of the cached k=32 run, which
      // a direct run at that smaller k need not reproduce.
      mismatches += verify_corpus(service, "wiki", algorithm, *exemplar,
                                  ex_ground, 32, seed);
      if (n_mutations > 0) {
        // The dynamic-vs-rebuild identity: the service answers over its
        // incrementally maintained oracle; the reference is a direct run
        // over a from-scratch rebuild of the mutated corpus at the same
        // (final) epoch. The two must agree bitwise.
        data::DynamicOracleOptions rebuild_opts;
        rebuild_opts.prefer_incremental = false;
        const auto rebuilt =
            data::make_dynamic_oracle(*dynamic, "coverage", rebuild_opts);
        mismatches += verify_corpus(service, "churn", algorithm, *rebuilt,
                                    dynamic->live_ground(), 16, seed);
      }
      std::printf("\nverify: %s\n",
                  mismatches == 0 ? "all served answers bitwise-identical "
                                    "to direct runs"
                                  : "MISMATCH");
    }

    if (mix.failures.load() != 0 || mutation_failures.load() != 0 ||
        mismatches != 0) {
      return 1;
    }
    if (flags.has("min-hit-rate") &&
        stats.hit_rate() < flags.get_double("min-hit-rate", 0.0)) {
      std::fprintf(stderr, "hit rate %.2f below required %.2f\n",
                   stats.hit_rate(), flags.get_double("min-hit-rate", 0.0));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 1;
  }
}
