// Cross-query gain fusion (objectives/gain_fusion.h): oracles routed
// through a GainFusionGroup must produce bitwise the same gains, values,
// and selections as unfused oracles — solo and under concurrency — while
// actually sharing streaming passes when requests overlap.
#include "objectives/gain_fusion.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/greedy.h"
#include "data/vectors_gen.h"
#include "objectives/exemplar.h"
#include "test_support.h"

namespace bds {
namespace {

using testing::iota_ids;

std::shared_ptr<const PointSet> make_points(std::uint32_t docs,
                                            std::uint64_t seed) {
  data::LdaVectorsConfig cfg;
  cfg.documents = docs;
  cfg.seed = seed;
  return data::make_lda_like_vectors(cfg);
}

TEST(GainFusion, SequentialGainsBitIdenticalToUnfused) {
  const auto points = make_points(160, 11);
  ExemplarOracle fused(points, 2.0);
  ExemplarOracle plain(points, 2.0);
  fused.attach_fusion(std::make_shared<GainFusionGroup>(points));

  const auto ground = iota_ids(points->size());
  // Interleave batch evaluations with adds so fusion is exercised against
  // evolving coverage state.
  for (const ElementId pick : {ElementId{3}, ElementId{41}, ElementId{97}}) {
    std::vector<double> g_fused(ground.size());
    std::vector<double> g_plain(ground.size());
    fused.gain_batch(ground, g_fused);
    plain.gain_batch(ground, g_plain);
    for (std::size_t i = 0; i < ground.size(); ++i) {
      ASSERT_EQ(g_fused[i], g_plain[i]) << "element " << i;
    }
    EXPECT_EQ(fused.gain(pick), plain.gain(pick));
    EXPECT_EQ(fused.add(pick), plain.add(pick));
    EXPECT_EQ(fused.value(), plain.value());
  }

  const FusionStats stats = fused.fusion()->stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.mq_tiles, 0u);
}

TEST(GainFusion, ClonesShareTheGroup) {
  const auto points = make_points(64, 12);
  ExemplarOracle proto(points, 2.0);
  proto.attach_fusion(std::make_shared<GainFusionGroup>(points));

  const auto clone = proto.clone();
  auto* as_exemplar = dynamic_cast<ExemplarOracle*>(clone.get());
  ASSERT_NE(as_exemplar, nullptr);
  EXPECT_EQ(as_exemplar->fusion().get(), proto.fusion().get());
}

TEST(GainFusion, AttachRejectsForeignPointSet) {
  const auto points = make_points(48, 13);
  const auto other = make_points(48, 14);
  ExemplarOracle oracle(points, 2.0);
  EXPECT_THROW(oracle.attach_fusion(std::make_shared<GainFusionGroup>(other)),
               std::invalid_argument);
}

// Concurrent fused evaluations from many threads (each on its own clone,
// all sharing the group) must be bitwise equal to unfused evaluations and
// must not race (this is the case the TSan leg pins).
TEST(GainFusion, ConcurrentFusedEvaluationsMatchUnfused) {
  const auto points = make_points(200, 15);
  const auto ground = iota_ids(points->size());

  ExemplarOracle proto(points, 2.0);
  proto.attach_fusion(std::make_shared<GainFusionGroup>(points));
  proto.add(7);  // shared seed state in every clone

  ExemplarOracle plain(points, 2.0);
  plain.add(7);

  constexpr std::size_t kThreads = 6;
  const std::size_t chunk = ground.size() / kThreads;
  std::vector<std::vector<double>> fused(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto clone = proto.clone();
      const std::size_t begin = t * chunk;
      const std::size_t end =
          t + 1 == kThreads ? ground.size() : begin + chunk;
      const std::span<const ElementId> slice(ground.data() + begin,
                                             end - begin);
      fused[t].resize(slice.size());
      // Two passes per thread so combiners see queued work arrive mid-round.
      clone->gain_batch(slice, fused[t]);
      clone->gain_batch(slice, fused[t]);
    });
  }
  for (auto& w : workers) w.join();

  std::vector<double> expected(ground.size());
  plain.gain_batch(ground, expected);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t begin = t * chunk;
    for (std::size_t i = 0; i < fused[t].size(); ++i) {
      ASSERT_EQ(fused[t][i], expected[begin + i])
          << "thread " << t << " element " << begin + i;
    }
  }
  EXPECT_EQ(proto.fusion()->stats().requests, 2 * kThreads);
}

// Fused selection end to end: greedy over a fused oracle must pick the
// same items with the same values as over an unfused one.
TEST(GainFusion, GreedySelectionUnchangedByFusion) {
  const auto points = make_points(120, 16);
  const auto ground = iota_ids(points->size());

  ExemplarOracle fused(points, 2.0);
  fused.attach_fusion(std::make_shared<GainFusionGroup>(points));
  ExemplarOracle plain(points, 2.0);

  auto fused_oracle = fused.clone();
  auto plain_oracle = plain.clone();
  const GreedyResult picks_fused = greedy(*fused_oracle, ground, 8);
  const GreedyResult picks_plain = greedy(*plain_oracle, ground, 8);
  EXPECT_EQ(picks_fused.picks, picks_plain.picks);
  EXPECT_EQ(fused_oracle->value(), plain_oracle->value());
}

}  // namespace
}  // namespace bds
