// The summary service end to end (serve/service.h): bit-identity of served
// answers against direct runs, in-flight coalescing of concurrent
// identical queries, certified-field invalidation, cache-unsafe bypass,
// load shedding (degraded prefix / rejection), and per-query spans.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/dynamic.h"
#include "test_support.h"
#include "util/rng.h"

namespace bds {
namespace {

using serve::Query;
using serve::ServeOutcome;
using serve::ServeResult;
using serve::ServiceOptions;
using serve::SummaryService;
using testing::iota_ids;
using testing::random_set_system;

std::shared_ptr<SubmodularOracle> small_coverage(std::uint64_t seed = 41) {
  return std::make_shared<CoverageOracle>(
      random_set_system(120, 220, 0.05, seed));
}

Query base_query(std::size_t k) {
  Query q;
  q.corpus = "corpus";
  q.algorithm = "bicriteria";
  q.k = k;
  q.runtime.seed = 5;
  return q;
}

TEST(Serve, ExactHitBitIdenticalToDirectRun) {
  const auto proto = small_coverage();
  const auto ground = iota_ids(proto->ground_size());

  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);

  const Query q = base_query(10);
  const ServeResult first = service.query(q);   // miss: computes + caches
  const ServeResult second = service.query(q);  // exact hit

  AlgorithmParams params;
  params.k = 10;
  RuntimeOptions runtime;
  runtime.seed = 5;
  const RunResult direct =
      run_distributed("bicriteria", *proto, ground, runtime, params);

  EXPECT_EQ(first.outcome, ServeOutcome::kComputed);
  EXPECT_EQ(second.outcome, ServeOutcome::kHit);
  for (const ServeResult* r : {&first, &second}) {
    EXPECT_EQ(r->solution, direct.solution);
    EXPECT_EQ(r->value, direct.value);  // bitwise
    EXPECT_GE(r->upper_bound, r->value);
  }
  EXPECT_EQ(service.stats().hits, 1u);
  EXPECT_EQ(service.stats().computed, 1u);
  EXPECT_GT(service.stats().evals_saved, 0u);
}

TEST(Serve, SmallerBudgetServedAsBitwisePrefix) {
  const auto proto = small_coverage();
  const auto ground = iota_ids(proto->ground_size());

  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);
  (void)service.query(base_query(12));  // warm at k = 12

  AlgorithmParams params;
  params.k = 12;
  RuntimeOptions runtime;
  runtime.seed = 5;
  const RunResult direct =
      run_distributed("bicriteria", *proto, ground, runtime, params);
  auto replay = proto->clone();
  std::vector<double> prefix_value{replay->value()};
  for (const ElementId x : direct.solution) {
    replay->add(x);
    prefix_value.push_back(replay->value());
  }

  for (const std::size_t k : {1u, 3u, 7u, 11u}) {
    const ServeResult r = service.query(base_query(k));
    EXPECT_EQ(r.outcome, ServeOutcome::kHit) << "k=" << k;
    const std::size_t len = std::min<std::size_t>(k, direct.solution.size());
    ASSERT_EQ(r.solution.size(), len);
    EXPECT_TRUE(std::equal(r.solution.begin(), r.solution.end(),
                           direct.solution.begin()));
    EXPECT_EQ(r.value, prefix_value[len]);  // bitwise replayed prefix value
    EXPECT_GE(r.upper_bound, r.value);
  }
}

TEST(Serve, ConcurrentIdenticalQueriesCoalesceOntoOneRun) {
  const auto proto = small_coverage();
  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);

  constexpr std::size_t kClients = 8;
  std::vector<ServeResult> results(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &results, c] {
      results[c] = service.query(base_query(8));
    });
  }
  for (auto& t : clients) t.join();

  // Exactly one computation; everyone else rode along (coalesced onto the
  // in-flight run, or hit the cache it populated).
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, kClients - 1);
  EXPECT_EQ(service.cache_stats().insertions, 1u);
  for (std::size_t c = 1; c < kClients; ++c) {
    EXPECT_EQ(results[c].solution, results[0].solution);
    EXPECT_EQ(results[c].value, results[0].value);  // bitwise
  }
}

TEST(Serve, CertifiedFieldChangesMissTheCache) {
  const auto proto = small_coverage();
  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);
  (void)service.query(base_query(8));
  ASSERT_EQ(service.stats().computed, 1u);

  Query other_seed = base_query(8);
  other_seed.runtime.seed = 6;
  EXPECT_EQ(service.query(other_seed).outcome, ServeOutcome::kComputed);

  Query other_eps = base_query(8);
  other_eps.epsilon = 0.25;
  EXPECT_EQ(service.query(other_eps).outcome, ServeOutcome::kComputed);

  Query other_alg = base_query(8);
  other_alg.algorithm = "greedi";
  EXPECT_EQ(service.query(other_alg).outcome, ServeOutcome::kComputed);

  // The original configuration is still cached.
  EXPECT_EQ(service.query(base_query(8)).outcome, ServeOutcome::kHit);
}

TEST(Serve, CacheUnsafeRuntimeComputesFreshEveryTime) {
  const auto proto = small_coverage();
  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);

  Query faulted = base_query(6);
  faulted.runtime.faults = dist::FaultPlan::recoverable(3);
  faulted.runtime.retry.max_attempts = 0;

  const ServeResult first = service.query(faulted);
  const ServeResult second = service.query(faulted);
  EXPECT_EQ(first.outcome, ServeOutcome::kComputed);
  EXPECT_EQ(second.outcome, ServeOutcome::kComputed);
  EXPECT_EQ(service.stats().computed, 2u);
  EXPECT_EQ(service.cache_stats().insertions, 0u);  // never certified
  // The recoverable mix retries until heard, so the answers still agree.
  EXPECT_EQ(first.solution, second.solution);
}

TEST(Serve, FullQueueDegradesToCachedPrefixOrRejects) {
  const auto proto = small_coverage();
  const auto ground = iota_ids(proto->ground_size());

  ServiceOptions options;
  options.max_per_tenant = 0;  // every miss sheds: forces the shed paths
  SummaryService service(options);
  service.add_corpus("corpus", "coverage", proto);

  // Nothing cached yet: shedding has nothing to degrade to.
  const ServeResult rejected = service.query(base_query(8));
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(rejected.solution.empty());

  // Pre-warm the cache out of band (the startup pattern), then ask for a
  // LARGER budget: the lookup misses, and shedding serves the smaller
  // cached summary as a degraded answer instead of failing.
  AlgorithmParams params;
  params.k = 6;
  RuntimeOptions runtime;
  runtime.seed = 5;
  const RunResult run =
      run_distributed("bicriteria", *proto, ground, runtime, params);
  const serve::QueryKey key = serve::make_key(
      "corpus", "coverage", "bicriteria", params.epsilon, params.rounds,
      params.machines, runtime);
  service.cache().insert(serve::build_summary(key, 6, run, *proto, ground));

  const ServeResult degraded = service.query(base_query(12));
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(degraded.solution, run.solution);  // best certified prefix
  EXPECT_EQ(degraded.budget_k, 6u);            // bound covers cached budget
  // And an exact-budget query is still a plain hit: hits bypass admission.
  EXPECT_EQ(service.query(base_query(6)).outcome, ServeOutcome::kHit);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().degraded, 1u);
}

TEST(Serve, QuerySpansRecordOutcomes) {
  const auto proto = small_coverage();
  ServiceOptions options;
  options.record_query_spans = true;
  SummaryService service(options);
  service.add_corpus("corpus", "coverage", proto);

  (void)service.query(base_query(8));
  (void)service.query(base_query(8));
  (void)service.query(base_query(4));

  const auto spans = service.drain_query_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].outcome, "computed");
  EXPECT_EQ(spans[1].outcome, "hit");
  EXPECT_EQ(spans[2].outcome, "hit");
  EXPECT_EQ(spans[0].budget_k, 8u);
  EXPECT_GT(spans[0].run_seconds, 0.0);
  EXPECT_EQ(spans[1].run_seconds, 0.0);

  const std::string json = dist::query_spans_to_json(spans);
  EXPECT_NE(json.find("\"queries\":["), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"hit\""), std::string::npos);

  EXPECT_TRUE(service.drain_query_spans().empty());  // drained
}

TEST(Serve, MultiTenantMixDrainsCleanly) {
  const auto proto = small_coverage();
  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);

  constexpr std::size_t kClients = 6;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, c] {
      Query q = base_query(4 + 2 * (c % 3));
      q.tenant = "tenant-" + std::to_string(c % 3);
      (void)service.query(q);
    });
  }
  for (auto& t : clients) t.join();

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, kClients);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  // Three distinct budgets over one configuration: at most 3 computations
  // (fewer if a larger budget landed first and prefix-served the rest).
  EXPECT_LE(stats.computed, 3u);
}

TEST(Serve, UnknownNamesThrowListingKnownOnes) {
  const auto proto = small_coverage();
  SummaryService service;
  service.add_corpus("corpus", "coverage", proto);

  Query bad_corpus = base_query(4);
  bad_corpus.corpus = "nope";
  try {
    (void)service.query(bad_corpus);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("corpus"), std::string::npos);
  }

  Query bad_algorithm = base_query(4);
  bad_algorithm.algorithm = "nope";
  try {
    (void)service.query(bad_algorithm);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bicriteria"), std::string::npos);
  }

  EXPECT_THROW(service.add_corpus("c2", "not-an-objective", small_coverage()),
               std::invalid_argument);
  EXPECT_THROW(service.add_corpus("corpus", "coverage", small_coverage()),
               std::invalid_argument);  // duplicate name
}

// ---------------------------------------------------------------------------
// Dynamic corpora: epoch-keyed caching + invalidate-or-recertify mutations.

// Sets confined to the first 40 items of a 220-item universe: the cached
// solution saturates the coverable range, so a duplicate insert is exactly
// gain-neutral while a universe-covering insert collapses the certificate.
std::shared_ptr<data::DynamicCorpus> dynamic_corpus(std::uint64_t seed = 43) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> sets(60);
  for (auto& s : sets) {
    const std::size_t len = 3 + rng.next_below(6);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<std::uint32_t>(rng.next_below(40)));
    }
  }
  return std::make_shared<data::DynamicCorpus>(
      std::make_shared<const SetSystem>(std::move(sets), 220), "churn");
}

TEST(ServeDynamic, MutationBumpsEpochAndStopsStaleHits) {
  SummaryService service;
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  Query q = base_query(8);
  q.corpus = "churn";
  const ServeResult before = service.query(q);
  EXPECT_EQ(before.outcome, ServeOutcome::kComputed);
  EXPECT_EQ(before.epoch, 0u);
  EXPECT_EQ(service.query(q).outcome, ServeOutcome::kHit);

  // A mutation moves the corpus to epoch 1; answers must be for epoch 1
  // (never a stale epoch-0 summary served as current).
  const auto outcome = service.corpus_insert("churn", {1, 2, 3});
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_EQ(service.corpus_epoch("churn"), 1u);
  const ServeResult after = service.query(q);
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(service.stats().mutations, 1u);
}

TEST(ServeDynamic, HarmlessMutationRecertifiesInsteadOfFlushing) {
  SummaryService service;
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  Query q = base_query(8);
  q.corpus = "churn";
  (void)service.query(q);  // populate the cache at epoch 0

  // Inserting a duplicate of an existing set changes no gain anywhere: the
  // cached summary must survive re-keyed at epoch 1, and the next query is
  // a *hit* — no re-solve, evals saved.
  const auto dup = corpus->set_items(0);
  const auto outcome = service.corpus_insert(
      "churn", std::vector<std::uint32_t>(dup.begin(), dup.end()));
  EXPECT_EQ(outcome.summaries_recertified, 1u);
  EXPECT_EQ(outcome.summaries_invalidated, 0u);

  const ServeResult after = service.query(q);
  EXPECT_EQ(after.outcome, ServeOutcome::kHit);
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(service.stats().summaries_recertified, 1u);
}

TEST(ServeDynamic, DominatingInsertInvalidatesTheDecayedSummary) {
  SummaryService service;
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  Query q = base_query(8);
  q.corpus = "churn";
  const ServeResult before = service.query(q);

  // One set covering the whole universe: the old summary's certificate
  // collapses, so the mutation must drop it and the next query recomputes —
  // selecting the new set first.
  std::vector<std::uint32_t> everything(220);
  for (std::uint32_t e = 0; e < 220; ++e) everything[e] = e;
  const auto outcome = service.corpus_insert("churn", std::move(everything));
  EXPECT_EQ(outcome.summaries_recertified, 0u);
  EXPECT_EQ(outcome.summaries_invalidated, 1u);

  const ServeResult after = service.query(q);
  EXPECT_EQ(after.outcome, ServeOutcome::kComputed);
  ASSERT_FALSE(after.solution.empty());
  EXPECT_EQ(after.solution.front(), outcome.id);
  EXPECT_GT(after.value, before.value);
}

TEST(ServeDynamic, ErasingASolutionMemberInvalidates) {
  SummaryService service;
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  Query q = base_query(8);
  q.corpus = "churn";
  const ServeResult before = service.query(q);
  ASSERT_FALSE(before.solution.empty());

  const auto outcome =
      service.corpus_erase("churn", before.solution.front());
  EXPECT_EQ(outcome.summaries_invalidated, 1u);
  const ServeResult after = service.query(q);
  EXPECT_EQ(after.outcome, ServeOutcome::kComputed);
  for (const ElementId x : after.solution) {
    EXPECT_NE(x, before.solution.front());
  }
}

TEST(ServeDynamic, MutatedAnswerMatchesFreshRebuildBitwise) {
  // A query computed *after* mutations runs on the service's incremental
  // oracle; it must be bitwise what a from-scratch rebuild of the mutated
  // corpus produces. (A recertified cached answer is intentionally the old
  // certified solution, so the cache stays cold here.)
  SummaryService service;
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  service.corpus_insert("churn", {7, 8, 9, 10, 11});
  service.corpus_erase("churn", 3);

  Query q = base_query(8);
  q.corpus = "churn";
  const ServeResult served = service.query(q);
  EXPECT_EQ(served.outcome, ServeOutcome::kComputed);

  data::DynamicOracleOptions rebuild_opts;
  rebuild_opts.prefer_incremental = false;
  const auto rebuilt =
      data::make_dynamic_oracle(*corpus, "coverage", rebuild_opts);
  AlgorithmParams params;
  params.k = 8;
  RuntimeOptions runtime;
  runtime.seed = 5;
  const auto ground = corpus->live_ground();
  const RunResult direct =
      run_distributed("bicriteria", *rebuilt, ground, runtime, params);
  EXPECT_EQ(served.solution, direct.solution);
  EXPECT_EQ(served.value, direct.value);  // bitwise
}

TEST(ServeDynamic, MutationSpansRecordEpochAndDecisions) {
  ServiceOptions options;
  options.record_query_spans = true;
  SummaryService service(options);
  const auto corpus = dynamic_corpus();
  service.add_dynamic_corpus("churn", "coverage", corpus);

  Query q = base_query(6);
  q.corpus = "churn";
  (void)service.query(q);
  service.corpus_insert("churn", {1, 2});

  const auto spans = service.drain_query_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].outcome, "computed");
  EXPECT_EQ(spans[0].epoch, 0u);
  EXPECT_EQ(spans[1].outcome, "mutate-insert");
  EXPECT_EQ(spans[1].epoch, 1u);
  EXPECT_EQ(spans[1].summaries_recertified +
                spans[1].summaries_invalidated,
            1u);
}

TEST(ServeDynamic, FrozenCorpusRefusesMutations) {
  SummaryService service;
  service.add_corpus("corpus", "coverage", small_coverage());
  EXPECT_THROW(service.corpus_insert("corpus", {1}), std::invalid_argument);
  EXPECT_THROW(service.corpus_erase("corpus", 0), std::invalid_argument);
  EXPECT_THROW(service.corpus_insert("nope", {1}), std::invalid_argument);
}

}  // namespace
}  // namespace bds
