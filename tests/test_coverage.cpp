#include "objectives/coverage.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_support.h"

namespace bds {
namespace {

std::shared_ptr<const SetSystem> tiny_system() {
  // Universe {0..5}: set0={0,1,2}, set1={2,3}, set2={4}, set3={} .
  return std::make_shared<const SetSystem>(
      std::vector<std::vector<std::uint32_t>>{
          {0, 1, 2}, {2, 3}, {4}, {}},
      6);
}

TEST(SetSystem, BasicAccessors) {
  const auto sys = tiny_system();
  EXPECT_EQ(sys->num_sets(), 4u);
  EXPECT_EQ(sys->universe_size(), 6u);
  EXPECT_EQ(sys->total_size(), 6u);
  EXPECT_EQ(sys->set_size(0), 3u);
  EXPECT_EQ(sys->set_size(3), 0u);
  const auto items = sys->set_items(1);
  EXPECT_EQ(std::vector<std::uint32_t>(items.begin(), items.end()),
            (std::vector<std::uint32_t>{2, 3}));
}

TEST(SetSystem, DeduplicatesWithinSets) {
  const SetSystem sys({{1, 1, 2, 2, 2}}, 3);
  EXPECT_EQ(sys.set_size(0), 2u);
  EXPECT_EQ(sys.total_size(), 2u);
}

TEST(SetSystem, ReservesExactlyPostDedupCapacity) {
  // Regression: the constructor used to reserve the pre-dedup entry total,
  // stranding the duplicate slack in the immutable, widely shared entry
  // array for its whole lifetime. The reserve must happen after dedup.
  const SetSystem sys({{1, 1, 2, 2, 2}, {0, 0, 0, 1}, {2, 2}}, 3);
  EXPECT_EQ(sys.total_size(), 5u);
  EXPECT_EQ(sys.entries_capacity(), sys.total_size());

  const SetSystem no_dupes({{0, 1}, {2}}, 3);
  EXPECT_EQ(no_dupes.entries_capacity(), no_dupes.total_size());
}

TEST(SetSystem, RejectsOutOfUniverseElements) {
  EXPECT_THROW(SetSystem({{0, 7}}, 6), std::out_of_range);
}

TEST(CoverageOracle, GainsAndAddsAgree) {
  CoverageOracle oracle(tiny_system());
  EXPECT_DOUBLE_EQ(oracle.gain(0), 3.0);
  EXPECT_DOUBLE_EQ(oracle.add(0), 3.0);
  // Set1 overlaps on element 2.
  EXPECT_DOUBLE_EQ(oracle.gain(1), 1.0);
  EXPECT_DOUBLE_EQ(oracle.add(1), 1.0);
  EXPECT_DOUBLE_EQ(oracle.value(), 4.0);
  EXPECT_EQ(oracle.covered_count(), 4u);
}

TEST(CoverageOracle, EmptySetHasZeroGain) {
  CoverageOracle oracle(tiny_system());
  EXPECT_DOUBLE_EQ(oracle.gain(3), 0.0);
  EXPECT_DOUBLE_EQ(oracle.add(3), 0.0);
}

TEST(CoverageOracle, ReaddingIsIdempotent) {
  CoverageOracle oracle(tiny_system());
  oracle.add(0);
  EXPECT_DOUBLE_EQ(oracle.gain(0), 0.0);
  EXPECT_DOUBLE_EQ(oracle.add(0), 0.0);
  EXPECT_DOUBLE_EQ(oracle.value(), 3.0);
}

TEST(CoverageOracle, MaxValueIsUniverse) {
  CoverageOracle oracle(tiny_system());
  EXPECT_DOUBLE_EQ(oracle.max_value(), 6.0);
  oracle.add(0);
  oracle.add(1);
  oracle.add(2);
  EXPECT_DOUBLE_EQ(oracle.value(), 5.0);  // element 5 is uncoverable
  EXPECT_LE(oracle.value(), oracle.max_value());
}

TEST(CoverageOracle, CloneIsDeepAndResetsEvals) {
  CoverageOracle oracle(tiny_system());
  oracle.add(0);
  EXPECT_EQ(oracle.evals(), 1u);

  const auto copy = oracle.clone();
  EXPECT_EQ(copy->evals(), 0u);
  EXPECT_DOUBLE_EQ(copy->value(), 3.0);
  EXPECT_EQ(copy->current_set(), oracle.current_set());

  // Mutating the copy must not affect the original.
  copy->add(1);
  EXPECT_DOUBLE_EQ(copy->value(), 4.0);
  EXPECT_DOUBLE_EQ(oracle.value(), 3.0);
  EXPECT_DOUBLE_EQ(oracle.gain(1), 1.0);
}

TEST(CoverageOracle, EvalCounting) {
  CoverageOracle oracle(tiny_system());
  oracle.gain(0);
  oracle.gain(1);
  oracle.add(0);
  EXPECT_EQ(oracle.evals(), 3u);
}

TEST(CoverageOracle, CurrentSetTracksInsertionOrder) {
  CoverageOracle oracle(tiny_system());
  oracle.add(2);
  oracle.add(0);
  EXPECT_EQ(oracle.current_set(), (std::vector<ElementId>{2, 0}));
}

TEST(CoverageOracle, ValueMatchesExplicitUnion) {
  const auto sys = testing::random_set_system(30, 60, 0.15, 99);
  CoverageOracle oracle(sys);
  std::set<std::uint32_t> covered;
  util::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const auto x = static_cast<ElementId>(rng.next_below(30));
    oracle.add(x);
    const auto items = sys->set_items(x);
    covered.insert(items.begin(), items.end());
    EXPECT_DOUBLE_EQ(oracle.value(), double(covered.size()));
  }
}

// --- dynamic inserts: the overlay rows after the base sets ---

// Runs `mutate` and expects it to throw E with `needle` in its message.
template <typename E, typename F>
void expect_throw_naming(F mutate, const std::string& needle) {
  try {
    mutate();
    FAIL() << "expected a throw naming '" << needle << "'";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CoverageOracle, InsertedSetsGainAndAddLikeBaseSets) {
  CoverageOracle oracle(tiny_system());
  EXPECT_TRUE(oracle.supports_dynamic_updates());
  const std::vector<std::uint32_t> row = {1, 3, 5};
  oracle.apply_insert(4, row, 1);
  EXPECT_EQ(oracle.corpus_epoch(), 1u);
  EXPECT_DOUBLE_EQ(oracle.gain(4), 3.0);
  oracle.add(1);  // covers 2 and 3
  EXPECT_DOUBLE_EQ(oracle.gain(4), 2.0);
  const std::vector<ElementId> ids = {0, 4, 1};
  EXPECT_EQ(oracle.gain_batch(ids), (std::vector<double>{2.0, 2.0, 0.0}));
  EXPECT_DOUBLE_EQ(oracle.add(4), 2.0);
  EXPECT_DOUBLE_EQ(oracle.value(), 4.0);
  EXPECT_EQ(oracle.covered_count(), 4u);
}

TEST(CoverageOracle, ApplyInsertRejectsAnIdOutOfLogOrder) {
  CoverageOracle oracle(tiny_system());
  const std::vector<std::uint32_t> row = {1};
  expect_throw_naming<std::invalid_argument>(
      [&] { oracle.apply_insert(7, row, 1); }, "id 7");
  EXPECT_EQ(oracle.ground_size(), 4u);
  EXPECT_EQ(oracle.corpus_epoch(), 0u);
}

TEST(CoverageOracle, ApplyInsertRejectsAnItemBeyondTheUniverse) {
  CoverageOracle oracle(tiny_system());
  const std::vector<std::uint32_t> row = {1, 6};
  expect_throw_naming<std::out_of_range>(
      [&] { oracle.apply_insert(4, row, 1); }, "element 6");
  EXPECT_EQ(oracle.ground_size(), 4u);
  EXPECT_EQ(oracle.corpus_epoch(), 0u);
}

TEST(CoverageOracle, ApplyInsertRejectsARowThatIsNotSortedUnique) {
  // A repeated item would count twice in gain() and once in add().
  CoverageOracle oracle(tiny_system());
  const std::vector<std::uint32_t> repeated = {1, 1};
  expect_throw_naming<std::invalid_argument>(
      [&] { oracle.apply_insert(4, repeated, 1); }, "set 4");
  const std::vector<std::uint32_t> unsorted = {3, 1};
  EXPECT_THROW(oracle.apply_insert(4, unsorted, 1), std::invalid_argument);
  EXPECT_EQ(oracle.ground_size(), 4u);
}

TEST(CoverageOracle, ApplyEraseRejectsAnUnknownId) {
  CoverageOracle oracle(tiny_system());
  const std::vector<std::uint32_t> row = {5};
  oracle.apply_insert(4, row, 1);
  EXPECT_NO_THROW(oracle.apply_erase(4, 2));
  expect_throw_naming<std::out_of_range>(
      [&] { oracle.apply_erase(5, 3); }, "id 5");
  EXPECT_EQ(oracle.corpus_epoch(), 2u);
}

TEST(CoverageOracle, CloneTakenBeforeAnInsertDoesNotSeeIt) {
  CoverageOracle oracle(tiny_system());
  oracle.add(0);
  const auto before = oracle.clone();
  const std::vector<std::uint32_t> row = {4, 5};
  oracle.apply_insert(4, row, 1);
  EXPECT_EQ(before->ground_size(), 4u);
  EXPECT_EQ(before->corpus_epoch(), 0u);
  EXPECT_EQ(oracle.ground_size(), 5u);
  // A clone taken after the insert carries the overlay and the set state.
  const auto after = oracle.clone();
  EXPECT_EQ(after->ground_size(), 5u);
  EXPECT_DOUBLE_EQ(after->gain(4), 2.0);
  EXPECT_DOUBLE_EQ(after->value(), 3.0);
}

TEST(CoverageOracle, GroundSizeAndStateBytesCountTheOverlay) {
  CoverageOracle oracle(tiny_system());
  const std::size_t frozen_bytes = oracle.state_bytes();
  const std::vector<std::uint32_t> first = {0, 1, 2, 3, 4};
  const std::vector<std::uint32_t> second = {5};
  oracle.apply_insert(4, first, 1);
  oracle.apply_insert(5, second, 2);
  EXPECT_EQ(oracle.ground_size(), 6u);
  // Two row ends and six items; growth may leave spare capacity, while a
  // clone copies exactly what is there.
  const std::size_t overlay =
      2 * sizeof(std::uint64_t) + 6 * sizeof(std::uint32_t);
  EXPECT_GE(oracle.state_bytes(), frozen_bytes + overlay);
  EXPECT_EQ(oracle.clone()->state_bytes(), frozen_bytes + overlay);
}

class CoverageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverageProperty, IsMonotoneSubmodular) {
  const auto sys = testing::random_set_system(25, 40, 0.2, GetParam());
  const CoverageOracle proto(sys);
  EXPECT_EQ(testing::count_submodularity_violations(proto, GetParam(), 60), 0);
  EXPECT_EQ(testing::count_monotonicity_violations(proto, GetParam(), 30), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(WeightedCoverage, MatchesUnweightedWithUnitWeights) {
  const auto sys = testing::random_set_system(20, 30, 0.2, 7);
  CoverageOracle plain(sys);
  WeightedCoverageOracle weighted(sys, std::vector<double>(30, 1.0));
  for (ElementId x = 0; x < 20; ++x) {
    EXPECT_DOUBLE_EQ(plain.gain(x), weighted.gain(x));
  }
  plain.add(3);
  weighted.add(3);
  EXPECT_DOUBLE_EQ(plain.value(), weighted.value());
}

TEST(WeightedCoverage, UsesWeights) {
  const auto sys = std::make_shared<const SetSystem>(
      std::vector<std::vector<std::uint32_t>>{{0}, {1}, {0, 1}}, 2);
  WeightedCoverageOracle oracle(sys, {10.0, 1.0});
  EXPECT_DOUBLE_EQ(oracle.gain(0), 10.0);
  EXPECT_DOUBLE_EQ(oracle.gain(1), 1.0);
  EXPECT_DOUBLE_EQ(oracle.gain(2), 11.0);
  EXPECT_DOUBLE_EQ(oracle.max_value(), 11.0);
  oracle.add(0);
  EXPECT_DOUBLE_EQ(oracle.gain(2), 1.0);
}

TEST(WeightedCoverage, RejectsBadWeights) {
  const auto sys = tiny_system();
  EXPECT_THROW(WeightedCoverageOracle(sys, {1.0}), std::invalid_argument);
  EXPECT_THROW(WeightedCoverageOracle(sys,
                                      {1, 1, 1, 1, 1, -0.5}),
               std::invalid_argument);
}

TEST(WeightedCoverage, PropertyCheck) {
  const auto sys = testing::random_set_system(20, 25, 0.25, 11);
  util::Rng rng(11);
  std::vector<double> weights(25);
  for (double& w : weights) w = rng.next_double(0.0, 5.0);
  const WeightedCoverageOracle proto(sys, std::move(weights));
  EXPECT_EQ(testing::count_submodularity_violations(proto, 11, 50), 0);
  EXPECT_EQ(testing::count_monotonicity_violations(proto, 11, 25), 0);
}

}  // namespace
}  // namespace bds
