// Worker-oracle contract (SubmodularOracle::shard_view): over the elements
// of its shard, the oracle a distributed worker runs must be *bit-identical*
// to a clone of the coordinator oracle — same gains (exact double equality),
// same realized add gains, same selections, same evaluation accounting —
// starting from the coordinator's accumulated set. Parametrized over every
// oracle family in the tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/greedy.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "objectives/logdet.h"
#include "objectives/prob_coverage.h"
#include "objectives/saturated_coverage.h"
#include "objectives/submodular.h"
#include "test_support.h"
#include "util/rng.h"

namespace bds {
namespace {

std::shared_ptr<const ProbSetSystem> random_prob_sets(std::uint32_t n_sets,
                                                      std::uint32_t universe,
                                                      double density,
                                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<ProbSetSystem::Entry>> sets(n_sets);
  for (auto& s : sets) {
    for (std::uint32_t e = 0; e < universe; ++e) {
      if (rng.next_bool(density)) {
        s.push_back({e, static_cast<float>(0.05 + 0.9 * rng.next_double())});
      }
    }
  }
  return std::make_shared<const ProbSetSystem>(std::move(sets), universe);
}

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = 0.1 + rng.next_double();
  return w;
}

// Block-sparse similarity matrix: elements interact mostly within their
// block.
std::shared_ptr<const SimilarityMatrix> block_similarity(std::size_t n,
                                                         std::size_t blocks,
                                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const bool same_block = (i % blocks) == (j % blocks);
      double v = 0.0;
      if (i == j) {
        v = 1.0;
      } else if (same_block && rng.next_bool(0.7)) {
        v = rng.next_double();
      }
      values[i * n + j] = v;
      values[j * n + i] = v;
    }
  }
  return std::make_shared<const SimilarityMatrix>(n, std::move(values));
}

std::shared_ptr<const PointSet> random_points(std::size_t n, std::size_t dim,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& v : data) v = static_cast<float>(rng.next_double());
  auto points = std::make_shared<PointSet>(n, dim, std::move(data));
  points->normalize_rows();
  return points;
}

// gtest prints a parameter type it has no printer for as its size and raw
// bytes, and that text is part of each ctest name. So FamilyParam holds no
// pointer and no padding (the builder is picked by Family), and every build
// registers the same test names.
enum class Family : std::uint64_t {
  kCoverage,
  kWeightedCoverage,
  kProbCoverage,
  kWeightedProbCoverage,
  kOverlayCoverage,
  kSaturatedCoverage,
  kSaturatedCoverageDiversity,
  kExemplar,
  kLogDet,
};

struct FamilyParam {
  char name[32];
  Family family;
  std::uint64_t seed;  // data seed handed to the builder
};
static_assert(std::has_unique_object_representations_v<FamilyParam>);

std::unique_ptr<SubmodularOracle> build_coverage(std::uint64_t seed) {
  return std::make_unique<CoverageOracle>(
      testing::random_set_system(60, 3000, 0.004, seed));
}

std::unique_ptr<SubmodularOracle> build_weighted_coverage(std::uint64_t seed) {
  return std::make_unique<WeightedCoverageOracle>(
      testing::random_set_system(60, 3000, 0.004, seed),
      random_weights(3000, seed + 1));
}

std::unique_ptr<SubmodularOracle> build_prob_coverage(std::uint64_t seed) {
  return std::make_unique<ProbCoverageOracle>(
      random_prob_sets(60, 3000, 0.004, seed));
}

std::unique_ptr<SubmodularOracle> build_weighted_prob_coverage(
    std::uint64_t seed) {
  return std::make_unique<ProbCoverageOracle>(
      random_prob_sets(60, 3000, 0.004, seed), random_weights(3000, seed + 1));
}

// A coverage oracle that absorbed dynamic inserts: 4 overlay rows after
// the 60 base sets, so shards and seeds hold ids on both sides of the base
// boundary.
std::unique_ptr<SubmodularOracle> build_overlay_coverage(std::uint64_t seed) {
  auto oracle = std::make_unique<CoverageOracle>(
      testing::random_set_system(60, 3000, 0.004, seed));
  const std::vector<std::vector<std::uint32_t>> inserts = {
      {3, 17, 250, 2999}, {}, {17, 1200}, {5, 6, 7, 8, 9, 1500, 2400}};
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    oracle->apply_insert(static_cast<ElementId>(60 + i), inserts[i], i + 1);
  }
  return oracle;
}

std::unique_ptr<SubmodularOracle> build_saturated(std::uint64_t seed) {
  return std::make_unique<SaturatedCoverageOracle>(
      block_similarity(48, 6, seed), SaturatedCoverageConfig{0.3, {}, 0.0});
}

std::unique_ptr<SubmodularOracle> build_saturated_diversity(
    std::uint64_t seed) {
  const std::size_t n = 48;
  SaturatedCoverageConfig config;
  config.gamma = 0.3;
  config.lambda = 0.5;
  config.cluster_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    config.cluster_of[i] = static_cast<std::uint32_t>(i % 5);
  }
  return std::make_unique<SaturatedCoverageOracle>(
      block_similarity(n, 6, seed), std::move(config));
}

std::unique_ptr<SubmodularOracle> build_exemplar(std::uint64_t seed) {
  return std::make_unique<ExemplarOracle>(random_points(80, 6, seed), 2.0);
}

std::unique_ptr<SubmodularOracle> build_logdet(std::uint64_t seed) {
  return std::make_unique<LogDetOracle>(random_points(40, 6, seed), 1.0, 0.5);
}

std::unique_ptr<SubmodularOracle> build_family(Family family,
                                               std::uint64_t seed) {
  switch (family) {
    case Family::kCoverage:
      return build_coverage(seed);
    case Family::kWeightedCoverage:
      return build_weighted_coverage(seed);
    case Family::kProbCoverage:
      return build_prob_coverage(seed);
    case Family::kWeightedProbCoverage:
      return build_weighted_prob_coverage(seed);
    case Family::kOverlayCoverage:
      return build_overlay_coverage(seed);
    case Family::kSaturatedCoverage:
      return build_saturated(seed);
    case Family::kSaturatedCoverageDiversity:
      return build_saturated_diversity(seed);
    case Family::kExemplar:
      return build_exemplar(seed);
    case Family::kLogDet:
      return build_logdet(seed);
  }
  throw std::invalid_argument("unknown oracle family");
}

class ShardViewFamily : public ::testing::TestWithParam<FamilyParam> {
 protected:
  std::unique_ptr<SubmodularOracle> build() const {
    return build_family(GetParam().family, GetParam().seed);
  }

  // A deterministic shard: every third element, plus the tail element.
  static std::vector<ElementId> make_shard(std::size_t ground) {
    std::vector<ElementId> shard;
    for (std::size_t x = 0; x < ground; x += 3) {
      shard.push_back(static_cast<ElementId>(x));
    }
    shard.push_back(static_cast<ElementId>(ground - 1));
    return shard;
  }

  // Seeds an accumulated coordinator set: a few ids, some inside the shard
  // and some outside it.
  static std::vector<ElementId> make_seed(std::size_t ground) {
    return {ElementId{0}, ElementId{1}, ElementId{2},
            static_cast<ElementId>(ground / 2),
            static_cast<ElementId>(ground - 2)};
  }
};

TEST_P(ShardViewFamily, GainsBitIdenticalToCloneWithSeededState) {
  const auto proto = build();
  const std::size_t ground = proto->ground_size();
  // Non-empty coordinator state: the worker oracle must start from the
  // accumulated S, not from scratch.
  for (const ElementId s : make_seed(ground)) proto->add(s);

  const std::vector<ElementId> shard = make_shard(ground);
  const auto view = proto->shard_view(shard);
  const auto clone = proto->clone();

  ASSERT_EQ(view->evals(), 0u);
  for (const ElementId x : shard) {
    const double expected = clone->gain(x);
    const double actual = view->gain(x);
    EXPECT_EQ(actual, expected) << "element " << x;
  }
  EXPECT_EQ(view->evals(), clone->evals());

  // Batched path agrees too (same contract, one call).
  const std::vector<double> batch_view = view->gain_batch(shard);
  const std::vector<double> batch_clone = clone->gain_batch(shard);
  for (std::size_t i = 0; i < shard.size(); ++i) {
    EXPECT_EQ(batch_view[i], batch_clone[i]) << "element " << shard[i];
  }
}

TEST_P(ShardViewFamily, AddsStayBitIdenticalToClone) {
  const auto proto = build();
  const std::size_t ground = proto->ground_size();
  for (const ElementId s : make_seed(ground)) proto->add(s);

  const std::vector<ElementId> shard = make_shard(ground);
  const auto view = proto->shard_view(shard);
  const auto clone = proto->clone();

  // Interleave adds (including a re-add and a seeded member) with full
  // shard re-evaluations; every realized and queried gain must match.
  const std::vector<ElementId> adds = {shard[1], shard[shard.size() / 2],
                                       shard[1], shard[0],
                                       shard[shard.size() - 1]};
  for (const ElementId a : adds) {
    EXPECT_EQ(view->add(a), clone->add(a)) << "add " << a;
    for (const ElementId x : shard) {
      EXPECT_EQ(view->gain(x), clone->gain(x))
          << "element " << x << " after adding " << a;
    }
  }
  EXPECT_EQ(view->value(), clone->value());
  EXPECT_EQ(view->evals(), clone->evals());
}

TEST_P(ShardViewFamily, LazyGreedySelectionsIdentical) {
  const auto proto = build();
  const std::size_t ground = proto->ground_size();
  for (const ElementId s : make_seed(ground)) proto->add(s);

  const std::vector<ElementId> shard = make_shard(ground);
  const auto view = proto->shard_view(shard);
  const auto clone = proto->clone();

  const GreedyResult from_view = lazy_greedy(*view, shard, 8, {true});
  const GreedyResult from_clone = lazy_greedy(*clone, shard, 8, {true});
  EXPECT_EQ(from_view.picks, from_clone.picks);
  EXPECT_EQ(view->value(), clone->value());
  EXPECT_EQ(view->evals(), clone->evals());
}

TEST_P(ShardViewFamily, DuplicateShardEntriesCollapse) {
  const auto proto = build();
  const std::vector<ElementId> shard = {ElementId{5}, ElementId{2},
                                        ElementId{5}, ElementId{2},
                                        ElementId{9}};
  const auto view = proto->shard_view(shard);
  const auto clone = proto->clone();
  for (const ElementId x : {ElementId{2}, ElementId{5}, ElementId{9}}) {
    EXPECT_EQ(view->gain(x), clone->gain(x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ShardViewFamily,
    ::testing::Values(
        FamilyParam{"Coverage", Family::kCoverage, 11},
        FamilyParam{"WeightedCoverage", Family::kWeightedCoverage, 12},
        FamilyParam{"ProbCoverage", Family::kProbCoverage, 14},
        FamilyParam{"WeightedProbCoverage", Family::kWeightedProbCoverage,
                    15},
        FamilyParam{"OverlayCoverage", Family::kOverlayCoverage, 11},
        FamilyParam{"SaturatedCoverage", Family::kSaturatedCoverage, 17},
        FamilyParam{"SaturatedCoverageDiversity",
                    Family::kSaturatedCoverageDiversity, 18},
        FamilyParam{"Exemplar", Family::kExemplar, 19},
        FamilyParam{"LogDet", Family::kLogDet, 20}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return std::string(info.param.name);
    });

// A worker oracle is itself an oracle, so cloning it (what a nested round
// would do) must preserve its state and stay consistent.
TEST(ShardViewNesting, CloneOfViewMatchesView) {
  CoverageOracle oracle(testing::random_set_system(40, 200, 0.05, 22));
  oracle.add(ElementId{7});
  const std::vector<ElementId> shard = {ElementId{1}, ElementId{7},
                                        ElementId{13}, ElementId{21}};
  const auto view = oracle.shard_view(shard);
  view->add(ElementId{13});
  const auto copy = view->clone();
  for (const ElementId x : shard) {
    EXPECT_EQ(copy->gain(x), view->gain(x));
  }
}

}  // namespace
}  // namespace bds
