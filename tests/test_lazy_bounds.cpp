// Lazy greedy's heap (core/bound_heap.h) and the lazy = eager contract of
// lazy_greedy_bounded within one selection. Suite names match the CI
// `Lazy|Bound` filter so these run under TSan and the force-scalar kernel
// leg.
#include <gtest/gtest.h>

#include <vector>

#include "core/bound_heap.h"
#include "core/greedy.h"
#include "objectives/coverage.h"
#include "test_support.h"

namespace bds {
namespace {

using bds::testing::iota_ids;
using bds::testing::random_set_system;
using detail::BoundHeap;

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

}  // namespace
}  // namespace bds
