// White-box tests of the worker glue shared by every distributed algorithm.
#include "core/machine_runner.h"

#include <gtest/gtest.h>

#include <atomic>

#include "objectives/coverage.h"
#include "test_support.h"

namespace bds::detail {
namespace {

using bds::testing::iota_ids;
using bds::testing::random_set_system;

TEST(MachineRng, DeterministicPerTriple) {
  util::Rng a = machine_rng(1, 2, 3);
  util::Rng b = machine_rng(1, 2, 3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(MachineRng, DistinctAcrossMachinesAndRounds) {
  util::Rng base = machine_rng(1, 0, 0);
  for (const auto& [round, machine] :
       {std::pair<std::size_t, std::size_t>{0, 1}, {1, 0}, {1, 1}, {2, 7}}) {
    util::Rng other = machine_rng(1, round, machine);
    int equal = 0;
    util::Rng base_copy = machine_rng(1, 0, 0);
    for (int i = 0; i < 64; ++i) {
      equal += (base_copy.next_u64() == other.next_u64());
    }
    EXPECT_LT(equal, 4) << "round " << round << " machine " << machine;
  }
  static_cast<void>(base);
}

TEST(RunSelector, DispatchesAllSelectors) {
  const auto sys = random_set_system(30, 60, 0.2, 1);
  util::Rng rng(1);
  for (const auto selector :
       {MachineSelector::kGreedy, MachineSelector::kLazyGreedy,
        MachineSelector::kStochasticGreedy}) {
    CoverageOracle oracle(sys);
    const auto result =
        run_selector(oracle, iota_ids(30), 5, selector, 3.0, true, rng);
    EXPECT_GT(result.size(), 0u);
    EXPECT_LE(result.size(), 5u);
    EXPECT_NEAR(result.gained, oracle.value(), 1e-9);
  }
}

TEST(MachineWorker, ClonesCoordinatorState) {
  const auto sys = random_set_system(40, 80, 0.15, 2);
  CoverageOracle central(sys);
  central.add(0);
  const double central_value = central.value();

  MachineWorkerConfig cfg;
  cfg.budget = 3;
  cfg.central = &central;
  const auto worker = make_machine_worker(cfg);
  const std::vector<ElementId> shard{5, 6, 7, 8};
  const auto report = worker(0, shard);

  // Coordinator untouched; worker reported only its own evals.
  EXPECT_DOUBLE_EQ(central.value(), central_value);
  EXPECT_GT(report.oracle_evals, 0u);
  EXPECT_LE(report.summary.size(), 3u);
  for (const ElementId x : report.summary) {
    EXPECT_NE(std::find(shard.begin(), shard.end(), x), shard.end());
  }
}

TEST(MachineWorker, FactorySeedsWithCoordinatorSolution) {
  const auto sys = random_set_system(40, 80, 0.15, 3);
  CoverageOracle central(sys);
  central.add(1);
  central.add(2);

  std::atomic<int> calls{0};
  MachineOracleFactory factory =
      [&](std::size_t) -> std::unique_ptr<SubmodularOracle> {
    ++calls;
    return std::make_unique<CoverageOracle>(sys);
  };
  MachineWorkerConfig cfg;
  cfg.budget = 2;
  cfg.central = &central;
  cfg.factory = &factory;
  const auto worker = make_machine_worker(cfg);
  const auto report = worker(4, std::vector<ElementId>{1, 2, 10, 11});

  EXPECT_EQ(calls.load(), 1);
  // Seeding replays |S| = 2 adds, so evals >= 2 + shard work.
  EXPECT_GE(report.oracle_evals, 2u);
  // Items already in S have zero marginal; with stop_when_no_gain they are
  // never selected.
  for (const ElementId x : report.summary) {
    EXPECT_NE(x, 1u);
    EXPECT_NE(x, 2u);
  }
}

TEST(MachineWorker, ShardViewAndCloneWorkersReportIdenticalSelections) {
  const auto sys = random_set_system(60, 1200, 0.01, 6);
  CoverageOracle central(sys);
  central.add(0);
  central.add(9);

  MachineWorkerConfig cfg;
  cfg.budget = 4;
  cfg.central = &central;
  const auto worker = make_machine_worker(cfg);

  // The worker runs central.shard_view(shard); it must report exactly what
  // lazy greedy on a clone of the coordinator selects and costs.
  const std::vector<ElementId> shard{3, 9, 14, 21, 30, 44, 58};
  const auto report = worker(2, shard);
  const auto clone = central.clone();
  const GreedyResult from_clone = lazy_greedy(*clone, shard, 4, {true});
  EXPECT_EQ(report.summary, from_clone.picks);
  EXPECT_EQ(report.oracle_evals, clone->evals());
  EXPECT_GT(report.state_bytes, 0u);
  EXPECT_EQ(report.state_bytes, clone->state_bytes());
}

TEST(MachineWorker, EmptyShardYieldsEmptySummary) {
  const auto sys = random_set_system(10, 20, 0.3, 4);
  CoverageOracle central(sys);
  MachineWorkerConfig cfg;
  cfg.budget = 5;
  cfg.central = &central;
  const auto worker = make_machine_worker(cfg);
  const auto report = worker(0, std::span<const ElementId>{});
  EXPECT_TRUE(report.summary.empty());
}

TEST(MachineWorker, StochasticSelectorIsSeededPerMachine) {
  const auto sys = random_set_system(200, 150, 0.05, 5);
  CoverageOracle central(sys);
  MachineWorkerConfig cfg;
  cfg.selector = MachineSelector::kStochasticGreedy;
  cfg.budget = 5;
  cfg.seed = 11;
  cfg.central = &central;
  const auto worker = make_machine_worker(cfg);

  const auto shard = iota_ids(200);
  const auto a0 = worker(0, shard);
  const auto a0_again = worker(0, shard);
  const auto a1 = worker(1, shard);
  EXPECT_EQ(a0.summary, a0_again.summary);  // deterministic per machine
  EXPECT_NE(a0.summary, a1.summary);        // differs across machines
}

}  // namespace
}  // namespace bds::detail
