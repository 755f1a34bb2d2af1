// Exact oracle-evaluation-count goldens per (algorithm × lazy on/off),
// pinned on one frozen coverage instance. Two things are frozen here,
// deliberately:
//
//  * lazy-off counts are the historical Minoux accounting — a regression
//    here means an algorithm's evaluation pattern changed, which is a
//    bigger event than any perf tweak and must be reviewed by hand;
//  * lazy-on counts pin the substrate's exact savings (and the metered
//    evals_avoided), so a change to bound carrying that silently degrades
//    (or inflates the accounting of) the pruning fails loudly.
//
// Skipped when BDS_FAULT_SEED injects a fault plan into every run —
// delivered-work accounting is only frozen for fault-free execution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/bound_heap.h"
#include "core/registry.h"
#include "objectives/coverage.h"
#include "test_support.h"

namespace bds {
namespace {

struct GoldenRow {
  const char* algorithm;
  bool lazy;
  std::uint64_t total_evals;
  std::uint64_t evals_avoided;
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
      {"bicriteria", false, 479u, 0u},
      {"bicriteria", true, 367u, 797u},
      {"hybrid", false, 4024u, 0u},
      {"hybrid", true, 3328u, 18520u},
      {"naive", false, 357u, 0u},
      {"naive", true, 294u, 656u},
      {"parallel", false, 883u, 0u},
      {"parallel", true, 443u, 2072u},
      {"greedi", false, 194u, 0u},
      {"greedi", true, 174u, 301u},
      {"randgreedi", false, 184u, 0u},
      {"randgreedi", true, 164u, 311u},
      {"multiplicity", false, 4746u, 0u},
      {"multiplicity", true, 4710u, 23752u},
      // Threshold workers have no heap to seed: the substrate is inert on
      // scaling by design, and the golden proves it stays that way.
      {"scaling", false, 247u, 0u},
      {"scaling", true, 247u, 0u},
  };

  for (const GoldenRow& row : golden) {
    detail::ForcedLazy guard(row.lazy);
    RuntimeOptions runtime;
    runtime.seed = 7;
    AlgorithmParams params;
    params.k = 5;
    params.rounds = rounds_for(row.algorithm);
    params.output_items = 12;
    params.epsilon = 0.25;
    const RunResult run =
        run_distributed(row.algorithm, proto, ground, runtime, params);
    const std::string label =
        std::string(row.algorithm) + " lazy=" + (row.lazy ? "on" : "off");
    EXPECT_EQ(run.stats.total_evals(), row.total_evals) << label;
    EXPECT_EQ(run.stats.total_evals_avoided(), row.evals_avoided) << label;
  }
}

}  // namespace
}  // namespace bds
