// Exact oracle-evaluation-count goldens per algorithm, pinned on one
// frozen coverage instance. These are the historical Minoux accounting: a
// regression here means an algorithm's evaluation pattern changed, which
// is a bigger event than any perf tweak and must be reviewed by hand.
//
// Skipped when BDS_FAULT_SEED injects a fault plan into every run —
// delivered-work accounting is only frozen for fault-free execution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/registry.h"
#include "objectives/coverage.h"
#include "test_support.h"

namespace bds {
namespace {

struct GoldenRow {
  const char* algorithm;
  std::uint64_t total_evals;
};

std::size_t rounds_for(const std::string& algorithm) {
  if (algorithm == "naive" || algorithm == "multiplicity" ||
      algorithm == "scaling") {
    return 2;
  }
  if (algorithm == "greedi" || algorithm == "randgreedi") return 1;
  return 3;
}

TEST(EvalCountGolden, FrozenPerAlgorithmModeAndLazyGrid) {
  if (std::getenv("BDS_FAULT_SEED") != nullptr) {
    GTEST_SKIP() << "eval goldens are frozen for fault-free runs only";
  }
  const CoverageOracle proto(
      bds::testing::random_set_system(80, 160, 0.05, 99));
  const auto ground = bds::testing::iota_ids(proto.ground_size());

  const std::vector<GoldenRow> golden = {
      {"bicriteria", 479u},
      {"hybrid", 4024u},
      {"naive", 357u},
      {"parallel", 883u},
      {"greedi", 194u},
      {"randgreedi", 184u},
      {"multiplicity", 4746u},
      {"scaling", 247u},
  };

  for (const GoldenRow& row : golden) {
    RuntimeOptions runtime;
    runtime.seed = 7;
    AlgorithmParams params;
    params.k = 5;
    params.rounds = rounds_for(row.algorithm);
    params.output_items = 12;
    params.epsilon = 0.25;
    const RunResult run =
        run_distributed(row.algorithm, proto, ground, runtime, params);
    EXPECT_EQ(run.stats.total_evals(), row.total_evals) << row.algorithm;
  }
}

}  // namespace
}  // namespace bds
