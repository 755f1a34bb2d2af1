// Cross-round lazy gain bounds (core/bound_heap.h): the substrate's own
// invariants, the bit-identity contract of seeded lazy selection, the
// engine-level identity of lazy-on vs lazy-off runs (including
// checkpoint/resume and injected faults), and the serve layer's cross-query
// singleton warm start. Suite names match the CI `Lazy|Bound` filter so
// these run under TSan and the force-scalar kernel leg.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bound_heap.h"
#include "core/greedy.h"
#include "core/registry.h"
#include "objectives/coverage.h"
#include "serve/service.h"
#include "test_support.h"

namespace bds {
namespace {

using bds::testing::iota_ids;
using bds::testing::random_set_system;
using detail::BoundEntry;
using detail::BoundHeap;
using detail::BoundStore;
using detail::ForcedLazy;
using detail::SingletonBoundCache;

// ---------------------------------------------------------------------------
// BoundHeap

TEST(BoundHeapOrder, PopsByBoundThenIndex) {
  BoundHeap heap;
  heap.push({1.0, 5, 0});
  heap.push({3.0, 9, 0});
  heap.push({3.0, 2, 1});  // equal bound, smaller idx: must pop first
  heap.push({2.0, 0, 0});
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.pop().idx, 2u);
  EXPECT_EQ(heap.pop().idx, 9u);
  EXPECT_EQ(heap.pop().idx, 0u);
  EXPECT_EQ(heap.pop().idx, 5u);
  EXPECT_TRUE(heap.empty());
}

TEST(BoundHeapOrder, BulkLoadMatchesIncrementalPushes) {
  const std::vector<BoundHeap::Item> items = {
      {2.0, 3, 0}, {2.0, 1, 1}, {5.0, 0, 0}, {0.5, 2, 0}, {5.0, 4, 2}};
  BoundHeap bulk;
  bulk.bulk_load(items);
  BoundHeap incremental;
  for (const auto& item : items) incremental.push(item);
  while (!bulk.empty()) {
    ASSERT_FALSE(incremental.empty());
    const auto a = bulk.pop();
    const auto b = incremental.pop();
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_EQ(a.bound, b.bound);
    EXPECT_EQ(a.prefix, b.prefix);
  }
  EXPECT_TRUE(incremental.empty());
}

// ---------------------------------------------------------------------------
// BoundStore / SingletonBoundCache

TEST(BoundStoreTable, KeepsTightestPrefixPerElement) {
  BoundStore store;
  store.reset(10);
  EXPECT_TRUE(store.empty());

  store.record(4, 7.0, 0);
  store.record(4, 3.0, 2);  // longer prefix: tighter, replaces
  BoundEntry entry;
  ASSERT_TRUE(store.lookup(4, &entry));
  EXPECT_EQ(entry.bound, 3.0);
  EXPECT_EQ(entry.prefix, 2u);

  store.record(4, 9.0, 1);  // shorter prefix than stored: ignored
  ASSERT_TRUE(store.lookup(4, &entry));
  EXPECT_EQ(entry.bound, 3.0);
  EXPECT_EQ(entry.prefix, 2u);

  EXPECT_FALSE(store.lookup(5, &entry));
  store.record(99, 1.0, 0);  // out of range: dropped, not UB
  EXPECT_EQ(store.size(), 1u);

  store.clear();
  EXPECT_FALSE(store.lookup(4, &entry));
  EXPECT_TRUE(store.empty());
}

TEST(BoundStoreTable, SingletonAttachmentSurvivesClearAndReset) {
  auto singletons = std::make_shared<SingletonBoundCache>();
  BoundStore store;
  store.reset(8);
  store.attach_singletons(singletons);

  store.record(3, 2.5, 0);  // prefix-0: harvested into the shared cache
  store.record(6, 1.5, 1);  // deeper prefix: own entry only
  double gain = 0.0;
  ASSERT_TRUE(singletons->lookup(3, &gain));
  EXPECT_EQ(gain, 2.5);
  EXPECT_FALSE(singletons->lookup(6, &gain));

  store.clear();
  BoundEntry entry;
  ASSERT_TRUE(store.lookup(3, &entry));  // served from the attachment
  EXPECT_EQ(entry.bound, 2.5);
  EXPECT_EQ(entry.prefix, 0u);
  EXPECT_FALSE(store.lookup(6, &entry));

  store.reset(8);
  ASSERT_TRUE(store.lookup(3, &entry));
  EXPECT_FALSE(store.empty());
}

TEST(BoundStoreTable, SingletonCacheFirstWriteWins) {
  SingletonBoundCache cache;
  cache.record(2, 4.0);
  cache.record(2, 9.0);  // deterministic objectives re-store the same bits;
                         // a disagreeing second write must not clobber
  double gain = 0.0;
  ASSERT_TRUE(cache.lookup(2, &gain));
  EXPECT_EQ(gain, 4.0);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// lazy_greedy_bounded: selection bit-identity

CoverageOracle lazy_proto(std::uint64_t seed) {
  return CoverageOracle(random_set_system(80, 160, 0.05, seed));
}

TEST(LazyBoundedSelection, UnseededMatchesEagerAndPlainLazy) {
  for (const std::uint64_t seed : {7u, 11u, 23u}) {
    const auto proto = lazy_proto(seed);
    const auto ids = iota_ids(proto.ground_size());
    const auto eager_oracle = proto.clone();
    const auto plain_oracle = proto.clone();
    const auto bounded_oracle = proto.clone();
    const GreedyResult eager = greedy(*eager_oracle, ids, 12, {});
    const GreedyResult plain = lazy_greedy(*plain_oracle, ids, 12, {});
    LazyGreedyStats stats;
    const GreedyResult bounded =
        lazy_greedy_bounded(*bounded_oracle, ids, 12, {}, nullptr, &stats);
    EXPECT_EQ(eager.picks, plain.picks);
    EXPECT_EQ(eager.picks, bounded.picks);
    EXPECT_EQ(eager.gains, bounded.gains);
    // stats.evals meters gain evaluations; the oracle additionally charges
    // one eval per committed add.
    EXPECT_EQ(stats.evals + bounded.picks.size(), bounded_oracle->evals());
    // Every metered eval carries its (id, gain, prefix) certificate.
    EXPECT_EQ(stats.eval_ids.size(), stats.evals);
    EXPECT_EQ(stats.eval_gains.size(), stats.evals);
    EXPECT_EQ(stats.eval_prefixes.size(), stats.evals);
  }
}

TEST(LazyBoundedSelection, SeededStoreIsBitIdenticalAndCheaper) {
  for (const std::uint64_t seed : {3u, 19u}) {
    const auto proto = lazy_proto(seed);
    const auto ids = iota_ids(proto.ground_size());

    // Cold run: collect its certificates into a store.
    BoundStore store;
    store.reset(proto.ground_size());
    const auto cold_oracle = proto.clone();
    LazyGreedyStats cold_stats;
    const GreedyResult cold =
        lazy_greedy_bounded(*cold_oracle, ids, 10, {}, &store, &cold_stats);
    for (std::size_t i = 0; i < cold_stats.eval_ids.size(); ++i) {
      store.record(cold_stats.eval_ids[i], cold_stats.eval_gains[i],
                   cold_stats.eval_prefixes[i]);
    }
    ASSERT_GT(store.size(), 0u);

    // Warm run from the same empty prefix: identical picks, fewer evals
    // (the initial scan is fully seeded), avoided metering consistent.
    const auto warm_oracle = proto.clone();
    LazyGreedyStats warm_stats;
    const GreedyResult warm =
        lazy_greedy_bounded(*warm_oracle, ids, 10, {}, &store, &warm_stats);
    EXPECT_EQ(cold.picks, warm.picks);
    EXPECT_EQ(cold.gains, warm.gains);
    EXPECT_LT(warm_stats.evals, cold_stats.evals);
    EXPECT_GT(warm_stats.evals_avoided, cold_stats.evals_avoided);
  }
}

TEST(LazyBoundedSelection, StaleSeedsFromDeeperBaseStayExact) {
  // Seed a store at prefix 0, then select on an oracle whose committed set
  // is already non-empty: the stale singleton bounds must behave as upper
  // bounds only — same picks as a cold run from that prefix.
  const auto proto = lazy_proto(31);
  const auto ids = iota_ids(proto.ground_size());

  BoundStore store;
  store.reset(proto.ground_size());
  {
    const auto scan = proto.clone();
    for (const ElementId x : ids) store.record(x, scan->gain(x), 0);
  }

  const std::vector<ElementId> committed = {4, 17, 42};
  const auto cold = bds::seeded_clone(proto, committed);
  const auto warm = bds::seeded_clone(proto, committed);
  const GreedyResult want = lazy_greedy_bounded(*cold, ids, 8, {}, nullptr,
                                                nullptr);
  LazyGreedyStats stats;
  const GreedyResult got =
      lazy_greedy_bounded(*warm, ids, 8, {}, &store, &stats);
  EXPECT_EQ(want.picks, got.picks);
  EXPECT_EQ(want.gains, got.gains);
  EXPECT_LE(warm->evals(), cold->evals());
}

// ---------------------------------------------------------------------------
// Engine identity: lazy-on and lazy-off runs select identically everywhere.

struct EngineGridCase {
  std::string algorithm;
  std::size_t rounds;
};

RunResult run_grid_case(const CoverageOracle& proto,
                        const std::vector<ElementId>& ground,
                        const EngineGridCase& c, bool faulted,
                        std::uint64_t seed, bool lazy) {
  ForcedLazy guard(lazy);
  RuntimeOptions runtime;
  runtime.seed = seed;
  if (faulted) runtime.faults = dist::FaultPlan::recoverable(1000 + seed);
  AlgorithmParams params;
  params.k = 5;
  params.rounds = c.rounds;
  params.output_items = 12;
  params.epsilon = 0.25;
  return run_distributed(c.algorithm, proto, ground, runtime, params);
}

TEST(LazyEngineIdentity, MatchesEagerAcrossAlgorithmsModesFaultsSeeds) {
  const auto proto = lazy_proto(99);
  const auto ground = iota_ids(proto.ground_size());
  const std::vector<EngineGridCase> cases = {
      {"bicriteria", 3}, {"hybrid", 3},     {"naive", 2},
      {"parallel", 3},   {"greedi", 1},     {"randgreedi", 1},
      {"multiplicity", 2}, {"scaling", 2},
  };
  for (const auto& c : cases) {
    for (const bool faulted : {false, true}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        const RunResult eager =
            run_grid_case(proto, ground, c, faulted, seed, false);
        const RunResult lazy =
            run_grid_case(proto, ground, c, faulted, seed, true);
        const std::string label = c.algorithm +
                                  (faulted ? " faulted" : " healthy") +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(eager.solution, lazy.solution) << label;
        EXPECT_EQ(eager.value, lazy.value) << label;
        ASSERT_EQ(eager.rounds.size(), lazy.rounds.size()) << label;
        for (std::size_t r = 0; r < eager.rounds.size(); ++r) {
          EXPECT_EQ(eager.rounds[r].items_added, lazy.rounds[r].items_added)
              << label << " round " << r;
          EXPECT_EQ(eager.rounds[r].value_after, lazy.rounds[r].value_after)
              << label << " round " << r;
        }
        // The substrate only removes evaluations.
        EXPECT_LE(lazy.stats.total_evals(), eager.stats.total_evals())
            << label;
        EXPECT_EQ(eager.stats.total_evals_avoided(), 0u) << label;
      }
    }
  }
}

TEST(LazyEngineIdentity, MultiRoundRunsActuallyAvoidEvals) {
  const auto proto = lazy_proto(99);
  const auto ground = iota_ids(proto.ground_size());
  const EngineGridCase c{"bicriteria", 3};
  const RunResult eager = run_grid_case(proto, ground, c, false, 1, false);
  const RunResult lazy = run_grid_case(proto, ground, c, false, 1, true);
  EXPECT_LT(lazy.stats.total_evals(), eager.stats.total_evals());
  EXPECT_GT(lazy.stats.total_evals_avoided(), 0u);
  EXPECT_EQ(eager.solution, lazy.solution);
}

TEST(LazyEngineIdentity, ResumeMatchesUninterruptedLazyRun) {
  ForcedLazy guard(true);
  const auto proto = lazy_proto(55);
  const auto ground = iota_ids(proto.ground_size());
  AlgorithmParams params;
  params.k = 4;
  params.rounds = 3;
  params.output_items = 10;

  RuntimeOptions base;
  base.seed = 5;
  const RunResult full =
      run_distributed("bicriteria", proto, ground, base, params);

  for (const std::size_t kill : {std::size_t{1}, std::size_t{2}}) {
    RuntimeOptions halted = base;
    auto last = std::make_shared<std::optional<Checkpoint>>();
    halted.checkpoint_sink = [last](const Checkpoint& c) { *last = c; };
    halted.halt_after_round = kill;
    (void)run_distributed("bicriteria", proto, ground, halted, params);
    ASSERT_TRUE(last->has_value());

    RuntimeOptions resumed = base;
    resumed.resume_from = std::make_shared<const Checkpoint>(
        Checkpoint::deserialize((*last)->serialize()));
    const RunResult replay =
        run_distributed("bicriteria", proto, ground, resumed, params);
    // Same answer bit-for-bit; the bound store restarts cold on resume, so
    // the replay may spend more (never fewer... never changes selections).
    EXPECT_EQ(full.solution, replay.solution) << "kill=" << kill;
    EXPECT_EQ(full.value, replay.value) << "kill=" << kill;
    ASSERT_EQ(full.rounds.size(), replay.rounds.size()) << "kill=" << kill;
  }
}

TEST(LazyEngineIdentity, RoundSpansCarryAvoidedCounts) {
  ForcedLazy guard(true);
  const auto proto = lazy_proto(99);
  const auto ground = iota_ids(proto.ground_size());
  AlgorithmParams params;
  params.k = 5;
  params.rounds = 3;
  params.output_items = 12;
  RuntimeOptions runtime;
  runtime.seed = 1;
  const RunResult run =
      run_distributed("bicriteria", proto, ground, runtime, params);
  ASSERT_EQ(run.stats.trace.rounds.size(), run.stats.rounds.size());
  std::uint64_t span_total = 0;
  std::uint64_t stat_total = 0;
  for (std::size_t r = 0; r < run.stats.rounds.size(); ++r) {
    span_total += run.stats.trace.rounds[r].evals_avoided;
    stat_total += run.stats.rounds[r].evals_avoided;
  }
  EXPECT_GT(stat_total, 0u);
  // finish() folds the deferred final filter into RoundStats only (the
  // span already fired), so spans never exceed stats.
  EXPECT_LE(span_total, stat_total);
  EXPECT_EQ(stat_total, run.stats.total_evals_avoided());
  const std::string json = dist::trace_to_json(run.stats.trace);
  EXPECT_NE(json.find("\"evals_avoided\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serve: cross-query singleton warm start.

TEST(LazyServeWarmStart, SecondUncachedQueryAvoidsInitialScans) {
  ForcedLazy guard(true);
  const auto sys = random_set_system(150, 260, 0.04, 77);

  auto run_pair = [&](bool lazy) {
    ForcedLazy inner(lazy);
    serve::ServiceOptions options;
    options.threads = 2;
    options.record_query_spans = true;
    serve::SummaryService service(options);
    service.add_corpus("news", "coverage",
                       std::make_shared<CoverageOracle>(sys));
    serve::Query q;
    q.corpus = "news";
    q.k = 6;
    q.rounds = 2;
    q.epsilon = 0.1;
    const serve::ServeResult first = service.query(q);
    // Same run modulo epsilon (practical bicriteria ignores it), distinct
    // QueryKey: a genuine cache miss that can only win via the corpus's
    // singleton warm start.
    q.epsilon = 0.2;
    const serve::ServeResult second = service.query(q);
    EXPECT_EQ(first.outcome, serve::ServeOutcome::kComputed);
    EXPECT_EQ(second.outcome, serve::ServeOutcome::kComputed);
    EXPECT_EQ(first.solution, second.solution);
    const auto spans = service.drain_query_spans();
    EXPECT_EQ(spans.size(), 2u);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].evals_avoided,
                i == 0 ? first.evals_avoided : second.evals_avoided);
    }
    return std::make_pair(first, second);
  };

  const auto [first_on, second_on] = run_pair(true);
  const auto [first_off, second_off] = run_pair(false);
  // Bitwise-identical answers with the substrate on or off.
  EXPECT_EQ(first_on.solution, first_off.solution);
  EXPECT_EQ(second_on.solution, second_off.solution);
  EXPECT_EQ(first_on.value, first_off.value);
  EXPECT_EQ(second_on.value, second_off.value);
  // The second query warm-starts from the first's singleton gains.
  EXPECT_GT(second_on.evals_avoided, first_on.evals_avoided);
  EXPECT_EQ(first_off.evals_avoided, 0u);
  EXPECT_EQ(second_off.evals_avoided, 0u);
}

}  // namespace
}  // namespace bds
