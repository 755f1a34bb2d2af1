// CertifiedMaintainer (core/maintain.h): the certified maintenance loop
// that keeps a bicriteria answer valid across corpus mutations, re-solving
// only when the certificate decays past ε or the answer becomes
// unaddressable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/maintain.h"
#include "core/upper_bound.h"
#include "data/dynamic.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace bds {
namespace {

using data::DynamicCorpus;
using data::Mutation;
using data::MutationKind;
using testing::random_set_system;

MaintainConfig small_config() {
  MaintainConfig config;
  config.k = 5;
  config.epsilon = 0.2;
  config.max_rounds = 3;
  config.machines = 4;
  return config;
}

std::shared_ptr<DynamicCorpus> small_corpus(std::uint64_t seed) {
  return std::make_shared<DynamicCorpus>(random_set_system(40, 90, 0.08, seed),
                                         "maintain");
}

// Sets confined to the first 25 items of a 90-item universe: the maintained
// solution saturates what the corpus can cover, leaving a wide gap a
// dominating insert can exploit.
std::shared_ptr<DynamicCorpus> narrow_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> sets(40);
  for (auto& s : sets) {
    const std::size_t len = 2 + rng.next_below(5);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<std::uint32_t>(rng.next_below(25)));
    }
  }
  return std::make_shared<DynamicCorpus>(
      std::make_shared<const SetSystem>(std::move(sets), 90), "narrow");
}

TEST(DynamicMaintain, InitialSolveIsCertified) {
  CertifiedMaintainer maintainer(small_corpus(1), small_config());
  EXPECT_FALSE(maintainer.solution().empty());
  EXPECT_GT(maintainer.value(), 0.0);
  EXPECT_GE(maintainer.upper_bound(), maintainer.value());
  EXPECT_GE(maintainer.certified_ratio(), 1.0 - 0.2);
  EXPECT_EQ(maintainer.stats().batches, 0u)
      << "the initial solve is not a mutation batch";
  EXPECT_EQ(maintainer.oracle().corpus_epoch(), 0u);
}

TEST(DynamicMaintain, IrrelevantInsertIsKeptByTheCertificate) {
  const auto corpus = small_corpus(2);
  CertifiedMaintainer maintainer(corpus, small_config());
  const double value_before = maintainer.value();

  // A duplicate of an existing set adds no new coverage anywhere: the
  // certificate cannot decay, so the batch must be absorbed.
  const auto dup = corpus->set_items(0);
  const auto decision = maintainer.insert(
      std::vector<std::uint32_t>(dup.begin(), dup.end()));
  EXPECT_EQ(decision, MaintainDecision::kKept);
  EXPECT_EQ(maintainer.value(), value_before);
  EXPECT_EQ(maintainer.stats().kept, 1u);
  EXPECT_EQ(maintainer.stats().resolved, 0u);
  EXPECT_GT(maintainer.stats().certificate_evals, 0u);
  EXPECT_EQ(maintainer.stats().resolve_evals, 0u);
  EXPECT_EQ(maintainer.oracle().corpus_epoch(), corpus->epoch());
}

TEST(DynamicMaintain, ErasingASolutionMemberForcesAReSolve) {
  const auto corpus = small_corpus(3);
  CertifiedMaintainer maintainer(corpus, small_config());
  const ElementId member = maintainer.solution().front();

  EXPECT_EQ(maintainer.erase(member), MaintainDecision::kResolved);
  EXPECT_EQ(maintainer.stats().resolved, 1u);
  EXPECT_GT(maintainer.stats().resolve_evals, 0u);
  for (const ElementId x : maintainer.solution()) {
    EXPECT_NE(x, member) << "the re-solved answer must not contain the dead id";
    EXPECT_TRUE(corpus->is_live(x));
  }
  EXPECT_GE(maintainer.certified_ratio(), 1.0 - 0.2);
}

TEST(DynamicMaintain, DominatingInsertDecaysTheCertificate) {
  const auto corpus = narrow_corpus(4);
  CertifiedMaintainer maintainer(corpus, small_config());
  EXPECT_LE(maintainer.value(), 25.0);

  // One set covering the whole universe: f(OPT_k) jumps from <= 25 to 90,
  // the cached ratio collapses, and the maintainer must re-solve (and then
  // select the new set).
  std::vector<std::uint32_t> everything(90);
  for (std::uint32_t e = 0; e < 90; ++e) everything[e] = e;
  EXPECT_EQ(maintainer.insert(std::move(everything)),
            MaintainDecision::kResolved);
  const ElementId giant = static_cast<ElementId>(corpus->size() - 1);
  EXPECT_EQ(maintainer.solution().front(), giant);
  EXPECT_GE(maintainer.certified_ratio(), 1.0 - 0.2);
}

TEST(DynamicMaintain, BatchIsOneDecision) {
  const auto corpus = small_corpus(5);
  CertifiedMaintainer maintainer(corpus, small_config());

  std::vector<Mutation> batch(3);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].kind = MutationKind::kInsert;
    batch[i].id = static_cast<ElementId>(corpus->size() + i);
    batch[i].items = {static_cast<std::uint32_t>(i)};
  }
  maintainer.apply(batch);
  EXPECT_EQ(maintainer.stats().batches, 1u);
  EXPECT_EQ(maintainer.stats().mutations, 3u);
  EXPECT_EQ(corpus->epoch(), 3u);
}

TEST(DynamicMaintain, ChurnKeepsMoreThanItReSolves) {
  const auto corpus = small_corpus(6);
  MaintainConfig config = small_config();
  config.epsilon = 0.3;  // generous tolerance: most churn must be absorbed
  CertifiedMaintainer maintainer(corpus, config);

  util::Rng rng(7);
  for (int step = 0; step < 30; ++step) {
    if (step % 5 == 4) {
      // Erase non-members so the unaddressable path stays out of the way.
      ElementId victim =
          static_cast<ElementId>(rng.next_below(corpus->size()));
      int guard = 0;
      while ((!corpus->is_live(victim) ||
              std::find(maintainer.solution().begin(),
                        maintainer.solution().end(),
                        victim) != maintainer.solution().end()) &&
             guard++ < 1000) {
        victim = static_cast<ElementId>(rng.next_below(corpus->size()));
      }
      maintainer.erase(victim);
    } else {
      std::vector<std::uint32_t> items(1 + rng.next_below(4));
      for (auto& e : items) {
        e = static_cast<std::uint32_t>(rng.next_below(90));
      }
      maintainer.insert(std::move(items));
    }
  }
  const MaintainStats& stats = maintainer.stats();
  EXPECT_EQ(stats.batches, 30u);
  EXPECT_LT(stats.resolve_rate(), 1.0)
      << "certified maintenance must absorb some of the churn";
  EXPECT_GT(stats.kept, stats.resolved)
      << "small mutations should mostly be kept under epsilon = 0.3";
  EXPECT_GE(maintainer.certified_ratio(), 1.0 - config.epsilon);
  EXPECT_EQ(maintainer.oracle().corpus_epoch(), corpus->epoch());
}

TEST(DynamicMaintain, RecertifiedRatioMatchesUpperBoundModule) {
  // The maintainer's certificate must be the core/upper_bound math, not an
  // ad-hoc bound: after a kept batch, upper_bound() equals
  // solution_upper_bound of the cached solution on a fresh oracle, bit for
  // bit.
  const auto corpus = small_corpus(8);
  CertifiedMaintainer maintainer(corpus, small_config());
  const auto dup = corpus->set_items(1);
  ASSERT_EQ(maintainer.insert(std::vector<std::uint32_t>(dup.begin(),
                                                         dup.end())),
            MaintainDecision::kKept);

  const std::vector<ElementId> ground = corpus->live_ground();
  const double reference = solution_upper_bound(
      maintainer.oracle(), maintainer.solution(), ground, small_config().k);
  EXPECT_EQ(util::double_bits(maintainer.upper_bound()),
            util::double_bits(reference));
}

TEST(DynamicMaintain, RebuildFallbackCountsRebuilds) {
  MaintainConfig config = small_config();
  config.oracle.prefer_incremental = false;  // force the rebuild path
  const auto corpus = small_corpus(9);
  CertifiedMaintainer maintainer(corpus, config);
  maintainer.insert({1, 2, 3});
  EXPECT_GE(maintainer.stats().oracle_rebuilds, 1u);
  EXPECT_EQ(maintainer.oracle().corpus_epoch(), corpus->epoch());
}

}  // namespace
}  // namespace bds
