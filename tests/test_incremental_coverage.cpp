// Inverted-index incremental coverage (objectives/coverage_incremental.h):
// residuals must track the scan-based CoverageOracle gain exactly — integer
// counts, so equality is exact, not approximate — after every add, and the
// incremental oracle must be a drop-in replacement for the scan-based one in
// distributed runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/bicriteria.h"
#include "core/greedy.h"
#include "objectives/coverage.h"
#include "objectives/coverage_incremental.h"
#include "test_support.h"
#include "util/rng.h"

namespace bds {
namespace {

TEST(IncrementalCoverage, GainsMatchScalarOracleAfterEveryAdd) {
  const auto sets = testing::random_set_system(50, 250, 0.05, 31);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  const std::vector<ElementId> ids = testing::iota_ids(50);

  util::Rng rng(32);
  for (int step = 0; step < 20; ++step) {
    for (const ElementId x : ids) {
      EXPECT_EQ(incremental.gain(x), scalar.gain(x))
          << "set " << x << " at step " << step;
    }
    const auto pick = static_cast<ElementId>(rng.next_below(50));
    EXPECT_EQ(incremental.add(pick), scalar.add(pick)) << "add " << pick;
    EXPECT_EQ(incremental.value(), scalar.value());
    EXPECT_EQ(incremental.covered_count(), scalar.covered_count());
  }
  EXPECT_EQ(incremental.evals(), scalar.evals());
}

TEST(IncrementalCoverage, GainBatchMatchesScalar) {
  const auto sets = testing::random_set_system(40, 200, 0.05, 33);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  for (const ElementId x : {ElementId{4}, ElementId{17}, ElementId{30}}) {
    scalar.add(x);
    incremental.add(x);
  }
  const std::vector<ElementId> ids = testing::iota_ids(40);
  EXPECT_EQ(incremental.gain_batch(ids), scalar.gain_batch(ids));
}

TEST(IncrementalCoverage, LazyGreedySelectionsIdentical) {
  const auto sets = testing::random_set_system(60, 300, 0.04, 34);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  const std::vector<ElementId> ids = testing::iota_ids(60);

  const GreedyResult from_scalar = lazy_greedy(scalar, ids, 12, {true});
  const GreedyResult from_incremental =
      lazy_greedy(incremental, ids, 12, {true});
  EXPECT_EQ(from_incremental.picks, from_scalar.picks);
  EXPECT_EQ(incremental.value(), scalar.value());
  EXPECT_EQ(incremental.evals(), scalar.evals());
}

TEST(IncrementalCoverage, ShardViewOfIncrementalMatchesScalarClone) {
  const auto sets = testing::random_set_system(50, 2500, 0.005, 37);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  for (const ElementId x : {ElementId{2}, ElementId{25}}) {
    scalar.add(x);
    incremental.add(x);
  }

  const std::vector<ElementId> shard = {ElementId{1}, ElementId{2},
                                        ElementId{8}, ElementId{19},
                                        ElementId{33}, ElementId{49}};
  const auto view = incremental.shard_view(shard);
  const auto reference = scalar.clone();
  // The worker oracle is a clone: it carries the full residual state.
  EXPECT_EQ(view->state_bytes(), incremental.clone()->state_bytes());
  for (const ElementId x : shard) {
    EXPECT_EQ(view->gain(x), reference->gain(x));
  }
  view->add(ElementId{19});
  reference->add(ElementId{19});
  for (const ElementId x : shard) {
    EXPECT_EQ(view->gain(x), reference->gain(x));
  }
}

TEST(IncrementalCoverage, EvalAccountingCheaperInWork) {
  // Not a value test: the point of the engine is cost. Charge model — an
  // incremental gain reads one residual; a scalar gain walks the row. We
  // can't observe instruction counts here, but we can check the structural
  // prerequisite: residuals stay consistent under a long randomized
  // add/query mix (the invariant the O(1) claim rests on).
  const auto sets = testing::random_set_system(80, 400, 0.03, 38);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  util::Rng rng(39);
  for (int i = 0; i < 60; ++i) {
    const auto x = static_cast<ElementId>(rng.next_below(80));
    if (rng.next_bool(0.4)) {
      EXPECT_EQ(incremental.add(x), scalar.add(x));
    } else {
      EXPECT_EQ(incremental.gain(x), scalar.gain(x));
    }
  }
}

TEST(IncrementalCoverage, DistributedRunsBitIdenticalWithUpgrade) {
  // End-to-end: the same bicriteria / baseline run with the scan-based
  // oracle upgraded to the incremental one must produce identical
  // solutions, values and evaluation counts.
  const auto sets = testing::random_set_system(120, 600, 0.02, 40);
  CoverageOracle scalar(sets);
  IncrementalCoverageOracle incremental(sets);
  const std::vector<ElementId> ground = testing::iota_ids(120);

  BicriteriaConfig config;
  config.mode = BicriteriaMode::kPractical;
  config.k = 6;
  config.output_items = 10;
  config.rounds = 2;
  config.runtime.seed = 9;
  const DistributedResult plain = bicriteria_greedy(scalar, ground, config);
  const DistributedResult upgraded =
      bicriteria_greedy(incremental, ground, config);
  EXPECT_EQ(upgraded.solution, plain.solution);
  EXPECT_EQ(upgraded.value, plain.value);
  EXPECT_EQ(upgraded.stats.total_evals(), plain.stats.total_evals());

  OneRoundConfig one_round;
  one_round.k = 5;
  one_round.runtime.seed = 9;
  const DistributedResult rg_plain = rand_greedi(scalar, ground, one_round);
  const DistributedResult rg_upgraded =
      rand_greedi(incremental, ground, one_round);
  EXPECT_EQ(rg_upgraded.solution, rg_plain.solution);
  EXPECT_EQ(rg_upgraded.value, rg_plain.value);
}

}  // namespace
}  // namespace bds
