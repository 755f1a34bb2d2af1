// Golden suite for the round-program engine (dist/engine.h):
//
//   1. every distributed algorithm, now a thin RoundProgram spec-builder,
//      must reproduce the frozen pre-engine loops (tests/legacy_reference.h)
//      bit-for-bit — solutions, values, RoundTraces and all deterministic
//      ExecutionStats fields — across oracle modes, fault plans and seeds;
//   2. checkpoint/resume: a run killed after round i and resumed from its
//      snapshot produces exactly the uninterrupted run's output, including
//      under injected faults;
//   3. eval accounting: per-round central_evals are deltas that sum to the
//      coordinator oracle's total, and best-of-machines merge probes are
//      metered into RoundStats::merge_evals without polluting total_evals().
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/bicriteria.h"
#include "core/matroid.h"
#include "dist/engine.h"
#include "legacy_reference.h"
#include "objectives/coverage.h"
#include "test_support.h"

namespace bds {
namespace {

using bds::testing::iota_ids;
using bds::testing::random_set_system;

CoverageOracle make_proto(std::uint64_t instance_seed = 99) {
  return CoverageOracle(random_set_system(60, 140, 0.06, instance_seed));
}

// A fault plan where work can be lost for good (crashes vs a tight retry
// budget): exercises unheard machines and wasted-eval accounting.
dist::FaultPlan lossy_plan(std::uint64_t seed) {
  dist::FaultPlan plan;
  plan.seed = seed;
  plan.crash_probability = 0.25;
  plan.drop_probability = 0.1;
  return plan;
}

struct FaultScenario {
  const char* name;
  dist::FaultPlan plan;
  dist::RetryPolicy retry;
};

std::vector<FaultScenario> fault_scenarios() {
  dist::RetryPolicy unlimited;
  unlimited.max_attempts = 0;
  dist::RetryPolicy tight;
  tight.max_attempts = 2;
  tight.backoff_base_seconds = 0.001;
  return {
      {"healthy", dist::FaultPlan{}, dist::RetryPolicy{}},
      {"recoverable", dist::FaultPlan::recoverable(7), unlimited},
      {"lossy", lossy_plan(11), tight},
  };
}

RuntimeOptions make_runtime(std::uint64_t seed,
                            const FaultScenario& scenario) {
  RuntimeOptions rt;
  rt.seed = seed;
  rt.threads = 2;
  rt.faults = scenario.plan;
  rt.retry = scenario.retry;
  return rt;
}

void expect_same_round_stats(const dist::ExecutionStats& want,
                             const dist::ExecutionStats& got,
                             bool compare_merge_evals = false) {
  ASSERT_EQ(want.rounds.size(), got.rounds.size());
  for (std::size_t i = 0; i < want.rounds.size(); ++i) {
    const dist::RoundStats& w = want.rounds[i];
    const dist::RoundStats& g = got.rounds[i];
    EXPECT_EQ(w.round_index, g.round_index) << "round " << i;
    EXPECT_EQ(w.machines_used, g.machines_used) << "round " << i;
    EXPECT_EQ(w.elements_scattered, g.elements_scattered) << "round " << i;
    EXPECT_EQ(w.elements_gathered, g.elements_gathered) << "round " << i;
    EXPECT_EQ(w.worker_evals, g.worker_evals) << "round " << i;
    EXPECT_EQ(w.max_machine_evals, g.max_machine_evals) << "round " << i;
    EXPECT_EQ(w.max_machine_items, g.max_machine_items) << "round " << i;
    EXPECT_EQ(w.bytes_cloned, g.bytes_cloned) << "round " << i;
    EXPECT_EQ(w.peak_worker_state_bytes, g.peak_worker_state_bytes)
        << "round " << i;
    EXPECT_EQ(w.wasted_evals, g.wasted_evals) << "round " << i;
    EXPECT_EQ(w.retries, g.retries) << "round " << i;
    EXPECT_EQ(w.faults_injected, g.faults_injected) << "round " << i;
    EXPECT_EQ(w.machines_unheard, g.machines_unheard) << "round " << i;
    EXPECT_EQ(w.backoff_seconds, g.backoff_seconds) << "round " << i;
    EXPECT_EQ(w.central_evals, g.central_evals) << "round " << i;
    EXPECT_EQ(w.central_selected, g.central_selected) << "round " << i;
    if (compare_merge_evals) {
      EXPECT_EQ(w.merge_evals, g.merge_evals) << "round " << i;
    }
  }
}

void expect_same_result(const DistributedResult& want,
                        const DistributedResult& got,
                        bool compare_merge_evals = false) {
  EXPECT_EQ(want.solution, got.solution);
  EXPECT_EQ(want.value, got.value);  // bit-identical, not approximate
  ASSERT_EQ(want.rounds.size(), got.rounds.size());
  for (std::size_t i = 0; i < want.rounds.size(); ++i) {
    const RoundTrace& w = want.rounds[i];
    const RoundTrace& g = got.rounds[i];
    EXPECT_EQ(w.round, g.round) << "trace " << i;
    EXPECT_EQ(w.alpha, g.alpha) << "trace " << i;
    EXPECT_EQ(w.machines, g.machines) << "trace " << i;
    EXPECT_EQ(w.machine_budget, g.machine_budget) << "trace " << i;
    EXPECT_EQ(w.central_budget, g.central_budget) << "trace " << i;
    EXPECT_EQ(w.items_added, g.items_added) << "trace " << i;
    EXPECT_EQ(w.value_after, g.value_after) << "trace " << i;
  }
  expect_same_round_stats(want.stats, got.stats, compare_merge_evals);
}

// ---------------------------------------------------------------------------
// 1. Golden: engine vs frozen legacy loops

// Parameters: (seed, worker oracle, fault scenario). The middle coordinate
// is the worker-oracle axis: "_view" cells (0) and "_clone" cells (1).
// Workers always run shard_view(shard), which returns a clone, so both
// cells run the same path; the _view cells are where a compact worker
// oracle behind shard_view() would be checked against the legacy loops.
class EngineGolden
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, int>> {
 protected:
  std::uint64_t seed() const { return std::get<0>(GetParam()); }
  FaultScenario scenario() const {
    return fault_scenarios()[static_cast<std::size_t>(std::get<2>(GetParam()))];
  }
  RuntimeOptions runtime() const { return make_runtime(seed(), scenario()); }
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineGolden,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(0, 1), ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0 ? "_view" : "_clone") + "_" +
             fault_scenarios()[static_cast<std::size_t>(
                                   std::get<2>(info.param))]
                 .name;
    });

TEST_P(EngineGolden, BicriteriaAllModes) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  for (const BicriteriaMode m :
       {BicriteriaMode::kTheory, BicriteriaMode::kMultiplicity,
        BicriteriaMode::kHybrid, BicriteriaMode::kPractical}) {
    BicriteriaConfig config;
    config.mode = m;
    config.k = 4;
    config.rounds = 2;
    config.epsilon = 0.3;
    config.output_items = m == BicriteriaMode::kPractical ? 9 : 0;  // 9 % 2
    config.runtime = runtime();
    expect_same_result(legacy::bicriteria_greedy(proto, ground, config),
                       bicriteria_greedy(proto, ground, config));
  }
}

TEST_P(EngineGolden, OneRoundFamily) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  OneRoundConfig config;
  config.k = 5;
  config.budget_factor = 1.5;
  config.runtime = runtime();
  expect_same_result(legacy::greedi(proto, ground, config),
                     greedi(proto, ground, config));
  expect_same_result(legacy::rand_greedi(proto, ground, config),
                     rand_greedi(proto, ground, config));
  expect_same_result(legacy::pseudo_greedy(proto, ground, config),
                     pseudo_greedy(proto, ground, config));
}

TEST_P(EngineGolden, NaiveDistributed) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  NaiveDistributedConfig config;
  config.k = 4;
  config.epsilon = 0.2;  // 2 rounds
  config.runtime = runtime();
  expect_same_result(legacy::naive_distributed_greedy(proto, ground, config),
                     naive_distributed_greedy(proto, ground, config));
}

TEST_P(EngineGolden, ParallelAlg) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  ParallelAlgConfig config;
  config.k = 4;
  config.epsilon = 0.4;  // 3 rounds
  config.runtime = runtime();
  expect_same_result(legacy::parallel_alg(proto, ground, config),
                     parallel_alg(proto, ground, config));
}

TEST_P(EngineGolden, GreedyScaling) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  GreedyScalingConfig config;
  config.k = 5;
  config.epsilon = 0.3;
  config.runtime = runtime();
  expect_same_result(legacy::greedy_scaling(proto, ground, config),
                     greedy_scaling(proto, ground, config));
}

TEST_P(EngineGolden, RandGreediMatroid) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  std::vector<std::uint32_t> group(proto.ground_size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i] = static_cast<std::uint32_t>(i % 3);
  }
  const PartitionMatroid constraint(group, {2, 2, 2});
  MatroidDistributedConfig config;
  config.runtime = runtime();
  expect_same_result(
      legacy::rand_greedi_matroid(proto, ground, constraint, config),
      rand_greedi_matroid(proto, ground, constraint, config));
}

TEST(EngineGolden, SqrtModularOracleAgrees) {
  // Non-coverage objective: the engine must not depend on coverage.
  std::vector<double> weights;
  for (int i = 0; i < 40; ++i) weights.push_back(1.0 + (i * 37) % 11);
  const bds::testing::SqrtModularOracle proto(weights);
  const auto ground = iota_ids(proto.ground_size());
  NaiveDistributedConfig config;
  config.k = 3;
  config.epsilon = 0.2;
  config.runtime.seed = 5;
  expect_same_result(legacy::naive_distributed_greedy(proto, ground, config),
                     naive_distributed_greedy(proto, ground, config));
}

// ---------------------------------------------------------------------------
// 2. Checkpoint/resume

// Runs `run` three ways: uninterrupted; halted after `kill_round` (capturing
// the last snapshot through the sink); resumed from that snapshot. The
// resumed run must equal the uninterrupted one exactly.
template <typename RunFn>
void check_resume_equivalence(RunFn run, const RuntimeOptions& base,
                              std::size_t kill_round) {
  const DistributedResult full = run(base);

  RuntimeOptions halted = base;
  auto last = std::make_shared<std::optional<Checkpoint>>();
  halted.checkpoint_sink = [last](const Checkpoint& c) { *last = c; };
  halted.halt_after_round = kill_round;
  const DistributedResult partial = run(halted);
  ASSERT_TRUE(last->has_value());
  EXPECT_EQ((*last)->rounds_completed, kill_round);
  EXPECT_LE(partial.rounds.size(), full.rounds.size());

  // Round-trip the snapshot through its text serialization, as the CLI does.
  const Checkpoint restored =
      Checkpoint::deserialize((*last)->serialize());

  RuntimeOptions resumed = base;
  resumed.resume_from = std::make_shared<const Checkpoint>(restored);
  expect_same_result(full, run(resumed), /*compare_merge_evals=*/true);
}

TEST(EngineResume, BicriteriaPractical) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  BicriteriaConfig config;
  config.k = 4;
  config.rounds = 3;
  config.output_items = 10;  // remainder lands in the last round
  RuntimeOptions base;
  base.seed = 3;
  for (const std::size_t kill : {std::size_t{1}, std::size_t{2}}) {
    check_resume_equivalence(
        [&](const RuntimeOptions& rt) {
          BicriteriaConfig c = config;
          c.runtime = rt;
          return bicriteria_greedy(proto, ground, c);
        },
        base, kill);
  }
}

TEST(EngineResume, BicriteriaHybridAdoptedZeroGainMembers) {
  // Hybrid adoption commits zero-gain items into the coordinator oracle
  // without reporting them in the solution — the case Checkpoint::
  // coordinator_set exists for.
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  BicriteriaConfig config;
  config.mode = BicriteriaMode::kHybrid;
  config.k = 3;
  config.rounds = 3;
  config.epsilon = 0.4;
  RuntimeOptions base;
  base.seed = 4;
  check_resume_equivalence(
      [&](const RuntimeOptions& rt) {
        BicriteriaConfig c = config;
        c.runtime = rt;
        return bicriteria_greedy(proto, ground, c);
      },
      base, 2);
}

TEST(EngineResume, ParallelAlgPoolAndBestMachineSurvive) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  ParallelAlgConfig config;
  config.k = 4;
  config.epsilon = 0.3;  // 4 rounds
  RuntimeOptions base;
  base.seed = 6;
  for (const std::size_t kill : {std::size_t{1}, std::size_t{3}}) {
    check_resume_equivalence(
        [&](const RuntimeOptions& rt) {
          ParallelAlgConfig c = config;
          c.runtime = rt;
          return parallel_alg(proto, ground, c);
        },
        base, kill);
  }
}

TEST(EngineResume, GreedyScalingThresholdScheduleSurvives) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  GreedyScalingConfig config;
  config.k = 6;
  config.epsilon = 0.25;
  RuntimeOptions base;
  base.seed = 9;
  check_resume_equivalence(
      [&](const RuntimeOptions& rt) {
        GreedyScalingConfig c = config;
        c.runtime = rt;
        return greedy_scaling(proto, ground, c);
      },
      base, 2);
}

TEST(EngineResume, UnderInjectedFaults) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  NaiveDistributedConfig config;
  config.k = 4;
  config.epsilon = 0.1;  // 3 rounds
  RuntimeOptions base;
  base.seed = 12;
  base.faults = dist::FaultPlan::recoverable(21);
  base.retry.max_attempts = 0;  // unlimited
  check_resume_equivalence(
      [&](const RuntimeOptions& rt) {
        NaiveDistributedConfig c = config;
        c.runtime = rt;
        return naive_distributed_greedy(proto, ground, c);
      },
      base, 2);

  base.faults = lossy_plan(31);
  base.retry.max_attempts = 2;
  check_resume_equivalence(
      [&](const RuntimeOptions& rt) {
        NaiveDistributedConfig c = config;
        c.runtime = rt;
        return naive_distributed_greedy(proto, ground, c);
      },
      base, 1);
}

TEST(EngineResume, RejectsMismatchedProgramOrSeed) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  NaiveDistributedConfig config;
  config.k = 3;
  config.epsilon = 0.2;
  config.runtime.seed = 5;
  auto snapshot = std::make_shared<std::optional<Checkpoint>>();
  config.runtime.checkpoint_sink = [snapshot](const Checkpoint& c) {
    *snapshot = c;
  };
  naive_distributed_greedy(proto, ground, config);
  ASSERT_TRUE(snapshot->has_value());

  NaiveDistributedConfig resumed = config;
  resumed.runtime.checkpoint_sink = nullptr;
  resumed.runtime.resume_from =
      std::make_shared<const Checkpoint>(**snapshot);
  resumed.runtime.seed = 6;  // wrong seed
  EXPECT_THROW(naive_distributed_greedy(proto, ground, resumed),
               std::invalid_argument);

  ParallelAlgConfig other;  // wrong program
  other.k = 3;
  other.epsilon = 0.5;
  other.runtime.seed = 5;
  other.runtime.resume_from = std::make_shared<const Checkpoint>(**snapshot);
  EXPECT_THROW(parallel_alg(proto, ground, other), std::invalid_argument);
}

TEST(EngineCheckpoint, SerializationRoundTripsEveryField) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  BicriteriaConfig config;
  config.k = 4;
  config.rounds = 2;
  config.output_items = 8;
  config.runtime.seed = 17;
  config.runtime.faults = dist::FaultPlan::recoverable(5);
  config.runtime.retry.max_attempts = 0;
  std::vector<Checkpoint> snapshots;
  config.runtime.checkpoint_sink = [&snapshots](const Checkpoint& c) {
    snapshots.push_back(c);
  };
  bicriteria_greedy(proto, ground, config);
  ASSERT_EQ(snapshots.size(), 2u);

  for (const Checkpoint& c : snapshots) {
    const Checkpoint r = Checkpoint::deserialize(c.serialize());
    EXPECT_EQ(c.program_id, r.program_id);
    EXPECT_EQ(c.seed, r.seed);
    EXPECT_EQ(c.rounds_completed, r.rounds_completed);
    EXPECT_EQ(c.rng_state, r.rng_state);
    EXPECT_EQ(c.solution, r.solution);
    EXPECT_EQ(c.coordinator_set, r.coordinator_set);
    EXPECT_EQ(c.pool, r.pool);
    EXPECT_EQ(c.best_machine, r.best_machine);
    EXPECT_EQ(c.best_machine_value, r.best_machine_value);
    ASSERT_EQ(c.rounds.size(), r.rounds.size());
    for (std::size_t i = 0; i < c.rounds.size(); ++i) {
      EXPECT_EQ(c.rounds[i].value_after, r.rounds[i].value_after);
      EXPECT_EQ(c.rounds[i].alpha, r.rounds[i].alpha);
    }
    expect_same_round_stats(c.stats, r.stats, /*compare_merge_evals=*/true);
    ASSERT_EQ(c.stats.trace.rounds.size(), r.stats.trace.rounds.size());
    for (std::size_t i = 0; i < c.stats.trace.rounds.size(); ++i) {
      const dist::RoundSpan& w = c.stats.trace.rounds[i];
      const dist::RoundSpan& g = r.stats.trace.rounds[i];
      EXPECT_EQ(w.round_index, g.round_index);
      EXPECT_EQ(w.retries, g.retries);
      EXPECT_EQ(w.faults_injected, g.faults_injected);
      EXPECT_EQ(w.unheard, g.unheard);
      ASSERT_EQ(w.machines.size(), g.machines.size());
      for (std::size_t m = 0; m < w.machines.size(); ++m) {
        EXPECT_EQ(w.machines[m].heard, g.machines[m].heard);
        EXPECT_EQ(w.machines[m].degraded, g.machines[m].degraded);
        EXPECT_EQ(w.machines[m].summary_size, g.machines[m].summary_size);
        ASSERT_EQ(w.machines[m].attempts.size(),
                  g.machines[m].attempts.size());
        for (std::size_t a = 0; a < w.machines[m].attempts.size(); ++a) {
          EXPECT_EQ(w.machines[m].attempts[a].fault,
                    g.machines[m].attempts[a].fault);
          EXPECT_EQ(w.machines[m].attempts[a].delivered,
                    g.machines[m].attempts[a].delivered);
          EXPECT_EQ(w.machines[m].attempts[a].evals,
                    g.machines[m].attempts[a].evals);
        }
      }
    }
  }
}

TEST(EngineCheckpoint, FileRoundTripAndMalformedInput) {
  Checkpoint c;
  c.program_id = "naive-distributed";
  c.seed = 42;
  c.rounds_completed = 1;
  c.rng_state = {1, 2, 3, 4};
  c.solution = {5, 7};
  c.coordinator_set = {5, 7, 9};
  c.best_machine_value = 1.5;
  c.stats.rounds.resize(1);
  c.stats.rounds[0].worker_evals = 10;
  c.stats.trace.rounds.resize(1);
  c.rounds.resize(1);

  const std::string path = ::testing::TempDir() + "/bds_engine_ckpt_test";
  save_checkpoint_file(c, path);
  const Checkpoint r = load_checkpoint_file(path);
  EXPECT_EQ(r.program_id, c.program_id);
  EXPECT_EQ(r.solution, c.solution);
  EXPECT_EQ(r.coordinator_set, c.coordinator_set);
  EXPECT_EQ(r.stats.rounds[0].worker_evals, 10u);
  std::remove(path.c_str());

  EXPECT_THROW(load_checkpoint_file(path + ".does-not-exist"),
               std::runtime_error);
  EXPECT_THROW(Checkpoint::deserialize("not a checkpoint"),
               std::invalid_argument);
  EXPECT_THROW(Checkpoint::deserialize("bdsckpt 999\nend\n"),
               std::invalid_argument);
  // v3 checkpoints carry the evals_avoided fields v4 dropped.
  try {
    Checkpoint::deserialize("bdsckpt 3\nend\n");
    ADD_FAILURE() << "a v3 checkpoint was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 3"),
              std::string::npos)
        << e.what();
  }
  std::string truncated = c.serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(Checkpoint::deserialize(truncated), std::invalid_argument);
}

// A fault token past the last FaultKind must fail naming the field, not be
// cast to an enumerator that does not exist.
TEST(EngineCheckpoint, RejectsOutOfRangeAttemptFault) {
  Checkpoint c;
  c.program_id = "naive-distributed";
  c.rng_state = {1, 2, 3, 4};
  c.stats.rounds.resize(1);
  c.stats.trace.rounds.resize(1);
  c.stats.trace.rounds[0].machines.resize(1);
  auto& attempts = c.stats.trace.rounds[0].machines[0].attempts;
  attempts.resize(1);
  attempts[0].fault = dist::FaultKind::kCrash;
  c.rounds.resize(1);

  std::string text = c.serialize();
  ASSERT_NO_THROW(Checkpoint::deserialize(text));
  const std::size_t at = text.find("\nA 1 1 ");  // attempt 1, kCrash
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "\nA 1 9 ");
  try {
    Checkpoint::deserialize(text);
    FAIL() << "an out-of-range fault token was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault"), std::string::npos) << what;
    EXPECT_NE(what.find("(max 4)"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// 3. Eval accounting (the one_round_merge delta fix + merge_evals metering)

TEST(EngineEvalAccounting, PerRoundCentralDeltasSumToCoordinatorTotal) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());

  const auto check = [](const DistributedResult& result) {
    EXPECT_GT(result.coordinator_evals, 0u);
    EXPECT_EQ(result.stats.total_central_evals(), result.coordinator_evals);
  };

  {
    OneRoundConfig config;
    config.k = 5;
    check(greedi(proto, ground, config));
    check(rand_greedi(proto, ground, config));
  }
  {
    BicriteriaConfig config;
    config.k = 4;
    config.rounds = 3;
    config.output_items = 9;
    check(bicriteria_greedy(proto, ground, config));
  }
  {
    NaiveDistributedConfig config;
    config.k = 4;
    config.epsilon = 0.2;
    check(naive_distributed_greedy(proto, ground, config));
  }
  {
    // ParallelAlg folds its single deferred filter into the last round.
    ParallelAlgConfig config;
    config.k = 4;
    config.epsilon = 0.4;
    check(parallel_alg(proto, ground, config));
  }
  {
    GreedyScalingConfig config;
    config.k = 5;
    config.epsilon = 0.3;
    check(greedy_scaling(proto, ground, config));
  }
}

TEST(EngineEvalAccounting, MergeProbesMeteredSeparately) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());

  OneRoundConfig config;
  config.k = 5;
  const DistributedResult result = greedi(proto, ground, config);

  // The best-of probes re-score every delivered summary's k-prefix: at
  // least one machine delivered, so probes must have been charged...
  EXPECT_GT(result.stats.total_merge_evals(), 0u);
  // ...into merge_evals only: total_evals() remains worker + central.
  EXPECT_EQ(result.stats.total_evals(),
            result.stats.total_worker_evals() +
                result.stats.total_central_evals());
  // Probe cost: Σ over delivered machines of min(|summary|, k).
  std::uint64_t expected_probes = 0;
  for (const auto& span : result.stats.trace.rounds) {
    for (const auto& machine : span.machines) {
      expected_probes +=
          std::min<std::uint64_t>(machine.summary_size, config.k);
    }
  }
  EXPECT_EQ(result.stats.total_merge_evals(), expected_probes);

  // Plain-merge programs never probe.
  NaiveDistributedConfig naive;
  naive.k = 4;
  naive.epsilon = 0.2;
  EXPECT_EQ(naive_distributed_greedy(proto, ground, naive)
                .stats.total_merge_evals(),
            0u);
}

TEST(EngineEvalAccounting, HaltedRunReportsPartialTail) {
  const auto proto = make_proto();
  const auto ground = iota_ids(proto.ground_size());
  NaiveDistributedConfig config;
  config.k = 4;
  config.epsilon = 0.1;  // 3 rounds
  config.runtime.halt_after_round = 1;
  const DistributedResult partial =
      naive_distributed_greedy(proto, ground, config);
  EXPECT_EQ(partial.rounds.size(), 1u);
  EXPECT_EQ(partial.stats.rounds.size(), 1u);
  EXPECT_EQ(partial.coordinator_evals, partial.stats.total_central_evals());
}

TEST(Engine, DefaultMachineCountMatchesFootnote3) {
  EXPECT_EQ(default_machine_count(0, 10), 1u);
  EXPECT_EQ(default_machine_count(100, 4), 5u);   // ceil(sqrt(25))
  EXPECT_EQ(default_machine_count(101, 4), 6u);   // ceil(sqrt(25.25))
  EXPECT_EQ(default_machine_count(50, 0), 8u);    // budget clamped to 1
}

}  // namespace
}  // namespace bds
