// The summary cache's certification contract (serve/cache.h): prefix
// answers bit-identical to direct runs at the cached configuration, O(1)
// certified upper bounds for every budget ≤ the cached one, strict key
// invalidation on every certified field, and LRU/replacement mechanics.
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/vectors_gen.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "test_support.h"

namespace bds {
namespace {

using serve::build_summary;
using serve::CachedSummary;
using serve::cache_safe;
using serve::make_key;
using serve::QueryKey;
using serve::QueryKeyHash;
using serve::SummaryCache;
using testing::iota_ids;
using testing::random_set_system;

std::shared_ptr<SubmodularOracle> coverage_proto() {
  return std::make_shared<CoverageOracle>(
      random_set_system(150, 260, 0.04, 77));
}

std::shared_ptr<SubmodularOracle> exemplar_proto() {
  data::LdaVectorsConfig cfg;
  cfg.documents = 140;
  cfg.seed = 77;
  return std::make_shared<ExemplarOracle>(data::make_lda_like_vectors(cfg),
                                          2.0);
}

TEST(ServeCache, CacheSafePredicate) {
  RuntimeOptions runtime;
  EXPECT_TRUE(cache_safe(runtime));

  RuntimeOptions faulted = runtime;
  faulted.faults = dist::FaultPlan::recoverable(3);
  EXPECT_FALSE(cache_safe(faulted));

  RuntimeOptions resumed = runtime;
  resumed.resume_from = std::make_shared<const Checkpoint>();
  EXPECT_FALSE(cache_safe(resumed));

  RuntimeOptions halted = runtime;
  halted.halt_after_round = 1;
  EXPECT_FALSE(cache_safe(halted));
}

TEST(ServeCache, KeyInvalidationOnEveryCertifiedField) {
  RuntimeOptions runtime;
  const QueryKey base =
      make_key("corpus", "coverage", "bicriteria", 0.1, 2, 4, runtime);
  EXPECT_EQ(base, make_key("corpus", "coverage", "bicriteria", 0.1, 2, 4,
                           runtime));

  std::vector<QueryKey> variants;
  variants.push_back(
      make_key("other", "coverage", "bicriteria", 0.1, 2, 4, runtime));
  variants.push_back(
      make_key("corpus", "exemplar", "bicriteria", 0.1, 2, 4, runtime));
  variants.push_back(
      make_key("corpus", "coverage", "greedi", 0.1, 2, 4, runtime));
  variants.push_back(
      make_key("corpus", "coverage", "bicriteria", 0.2, 2, 4, runtime));
  variants.push_back(
      make_key("corpus", "coverage", "bicriteria", 0.1, 3, 4, runtime));
  variants.push_back(
      make_key("corpus", "coverage", "bicriteria", 0.1, 2, 5, runtime));
  RuntimeOptions seeded = runtime;
  seeded.seed = 99;
  variants.push_back(
      make_key("corpus", "coverage", "bicriteria", 0.1, 2, 4, seeded));

  SummaryCache cache(32);
  CachedSummary seed_entry;
  seed_entry.key = base;
  seed_entry.budget_k = 10;
  seed_entry.solution.resize(10);
  auto entry = std::make_shared<const CachedSummary>(seed_entry);
  cache.insert(entry);

  EXPECT_NE(cache.lookup(base, 5), nullptr);
  for (const QueryKey& variant : variants) {
    EXPECT_NE(variant, base);
    EXPECT_EQ(cache.lookup(variant, 5), nullptr)
        << "variant unexpectedly hit the cache";
  }
  // Execution-environment-only fields must NOT invalidate: threads and
  // mmap preference cannot change a certified selection.
  RuntimeOptions threaded = runtime;
  threaded.threads = 7;
  threaded.mmap_datasets = true;
  EXPECT_EQ(base, make_key("corpus", "coverage", "bicriteria", 0.1, 2, 4,
                           threaded));
}

// The tentpole contract, pinned over an (algorithm × objective × budget)
// grid: a summary built from a direct run answers the exact budget with the
// run's bits, and every smaller budget with the bitwise prefix + replayed
// prefix value; certified bounds are monotone and valid.
TEST(ServeCache, PrefixAnswersBitIdenticalAcrossGrid) {
  const std::size_t k = 12;
  struct Corpus {
    const char* objective;
    std::shared_ptr<SubmodularOracle> proto;
  };
  const Corpus corpora[] = {{"coverage", coverage_proto()},
                           {"exemplar", exemplar_proto()}};
  const char* algorithms[] = {"bicriteria", "greedi", "central"};

  for (const Corpus& corpus : corpora) {
    const auto ground = iota_ids(corpus.proto->ground_size());
    for (const char* algorithm : algorithms) {
      RuntimeOptions runtime;
      runtime.seed = 5;
      AlgorithmParams params;
      params.k = k;
      const RunResult run = run_distributed(algorithm, *corpus.proto, ground,
                                            runtime, params);
      ASSERT_FALSE(run.solution.empty());

      const QueryKey key = make_key("corpus", corpus.objective, algorithm,
                                    params.epsilon, params.rounds,
                                    params.machines, runtime);
      const auto summary =
          build_summary(key, k, run, *corpus.proto, ground);

      // Exact budget: run output verbatim, bitwise.
      EXPECT_EQ(summary->solution, run.solution);
      EXPECT_EQ(summary->value, run.value);
      ASSERT_EQ(summary->prefix_value.size(), run.solution.size() + 1);

      // Reference replay for prefix values.
      auto replay = corpus.proto->clone();
      std::vector<double> expected{replay->value()};
      for (const ElementId x : run.solution) {
        replay->add(x);
        expected.push_back(replay->value());
      }
      for (std::size_t i = 0; i <= run.solution.size(); ++i) {
        EXPECT_EQ(summary->prefix_value[i], expected[i])
            << corpus.objective << "/" << algorithm << " prefix " << i;
      }

      // Every budget k' <= k: served items are the bitwise prefix; the
      // certified bound dominates the prefix value and grows with k'.
      double prev_bound = 0.0;
      for (std::size_t kp = 1; kp <= k; ++kp) {
        const std::size_t items = summary->items_for(kp, 0);
        EXPECT_EQ(items, std::min(kp, run.solution.size()));
        const double bound = summary->upper_bound(kp);
        EXPECT_GE(bound, summary->prefix_value[items]);
        EXPECT_GE(bound, prev_bound);
        EXPECT_LE(bound, summary->max_value);
        prev_bound = bound;
      }
      EXPECT_GT(summary->run_evals, 0u);
      EXPECT_GT(summary->build_evals, 0u);
    }
  }
}

TEST(ServeCache, ItemsForClampsToStoredSolution) {
  CachedSummary summary;
  summary.budget_k = 10;
  summary.solution.resize(8);
  EXPECT_EQ(summary.items_for(5, 0), 5u);
  EXPECT_EQ(summary.items_for(5, 3), 3u);
  EXPECT_EQ(summary.items_for(10, 0), 8u);   // run produced fewer than k
  EXPECT_EQ(summary.items_for(5, 100), 8u);  // clamp to stored items
}

TEST(ServeCache, LookupHonorsBudgetAndMinItems) {
  SummaryCache cache(4);
  CachedSummary entry;
  entry.key = make_key("c", "coverage", "bicriteria", 0.1, 1, 0, {});
  entry.budget_k = 10;
  entry.solution.resize(10);
  cache.insert(std::make_shared<const CachedSummary>(entry));

  EXPECT_NE(cache.lookup(entry.key, 10), nullptr);
  EXPECT_NE(cache.lookup(entry.key, 3, 3), nullptr);
  EXPECT_EQ(cache.lookup(entry.key, 11), nullptr);       // budget too small
  EXPECT_EQ(cache.lookup(entry.key, 10, 11), nullptr);   // too few items
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ServeCache, LargerBudgetReplacesSmallerNeverTheReverse) {
  SummaryCache cache(4);
  const QueryKey key = make_key("c", "coverage", "bicriteria", 0.1, 1, 0, {});

  CachedSummary small;
  small.key = key;
  small.budget_k = 5;
  small.solution.resize(5);
  cache.insert(std::make_shared<const CachedSummary>(small));

  CachedSummary big;
  big.key = key;
  big.budget_k = 20;
  big.solution.resize(20);
  cache.insert(std::make_shared<const CachedSummary>(big));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.lookup(key, 20), nullptr);

  // Re-inserting the small budget is a no-op: the big entry stays.
  cache.insert(std::make_shared<const CachedSummary>(small));
  EXPECT_NE(cache.lookup(key, 20), nullptr);
  EXPECT_EQ(cache.stats().replacements, 1u);
}

TEST(ServeCache, LruEvictsLeastRecentlyUsed) {
  SummaryCache cache(2);
  QueryKey keys[3];
  for (int i = 0; i < 3; ++i) {
    RuntimeOptions runtime;
    runtime.seed = static_cast<std::uint64_t>(i + 1);
    keys[i] = make_key("c", "coverage", "bicriteria", 0.1, 1, 0, runtime);
    CachedSummary entry;
    entry.key = keys[i];
    entry.budget_k = 5;
    entry.solution.resize(5);
    if (i == 2) {
      // Touch key 0 so key 1 is the LRU victim.
      ASSERT_NE(cache.lookup(keys[0], 1), nullptr);
    }
    cache.insert(std::make_shared<const CachedSummary>(entry));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.peek(keys[0]), nullptr);
  EXPECT_EQ(cache.peek(keys[1]), nullptr);  // evicted
  EXPECT_NE(cache.peek(keys[2]), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, RequireObjectiveThrowsListingNames) {
  try {
    require_objective("no-such-objective");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-objective"), std::string::npos);
    EXPECT_NE(what.find("coverage"), std::string::npos);
    EXPECT_NE(what.find("exemplar"), std::string::npos);
  }
  EXPECT_EQ(require_objective("coverage").name, "coverage");
  EXPECT_TRUE(require_objective("exemplar").cache_safe);
}

TEST(ServeCache, RequireAlgorithmThrowsListingNames) {
  try {
    require_algorithm("no-such-algorithm");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-algorithm"), std::string::npos);
    EXPECT_NE(what.find("bicriteria"), std::string::npos);
    EXPECT_NE(what.find("greedi"), std::string::npos);
  }
  EXPECT_EQ(require_algorithm("hybrid").name, "hybrid");
}

}  // namespace
}  // namespace bds
