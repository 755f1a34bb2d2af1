// Generic property audit over the objective registry: every registered
// objective must be monotone submodular — that pair of properties is what
// lazy greedy's stale-bound pruning (core/bound_heap.h) and the bicriteria
// guarantees rest on. The test enumerates core/registry.h's objective list
// so a newly registered objective fails loudly here until it either passes
// the probes or is consciously exempted.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "objectives/logdet.h"
#include "objectives/prob_coverage.h"
#include "objectives/saturated_coverage.h"
#include "test_support.h"
#include "util/rng.h"

namespace bds {
namespace {

std::shared_ptr<const PointSet> random_points(std::size_t n, std::size_t dim,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data(n * dim);
  for (float& v : data) v = static_cast<float>(rng.next_double(-1.0, 1.0));
  return std::make_shared<const PointSet>(n, dim, std::move(data));
}

std::shared_ptr<const ProbSetSystem> random_prob_system(std::uint32_t n_sets,
                                                        std::uint32_t universe,
                                                        std::uint64_t seed) {
  util::Rng rng(seed);
  using Entry = ProbSetSystem::Entry;
  std::vector<std::vector<Entry>> sets(n_sets);
  for (auto& s : sets) {
    for (std::uint32_t e = 0; e < universe; ++e) {
      if (rng.next_bool(0.2)) {
        s.push_back({e, static_cast<float>(rng.next_double(0.05, 1.0))});
      }
    }
  }
  return std::make_shared<const ProbSetSystem>(std::move(sets), universe);
}

std::shared_ptr<const SimilarityMatrix> random_similarity(std::size_t n,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    values[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.next_double(0.0, 1.0);
      values[i * n + j] = v;
      values[j * n + i] = v;
    }
  }
  return std::make_shared<const SimilarityMatrix>(n, std::move(values));
}

// A representative small instance for each registered objective name.
// Throws for names this test does not know — which is the point: extending
// the registry without extending this switch is a test failure.
std::unique_ptr<SubmodularOracle> make_test_oracle(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "coverage") {
    return std::make_unique<CoverageOracle>(
        bds::testing::random_set_system(50, 80, 0.1, seed));
  }
  if (name == "prob-coverage") {
    return std::make_unique<ProbCoverageOracle>(random_prob_system(40, 60,
                                                                   seed));
  }
  if (name == "exemplar") {
    return std::make_unique<ExemplarOracle>(random_points(40, 3, seed), 4.0);
  }
  if (name == "sampled-exemplar") {
    util::Rng rng(seed);
    return std::make_unique<SampledExemplarOracle>(random_points(50, 3, seed),
                                                   4.0, 20, rng);
  }
  if (name == "logdet") {
    return std::make_unique<LogDetOracle>(random_points(35, 3, seed), 1.0,
                                          0.5);
  }
  if (name == "saturated-coverage") {
    SaturatedCoverageConfig cfg;
    cfg.gamma = 0.4;
    return std::make_unique<SaturatedCoverageOracle>(
        random_similarity(30, seed), cfg);
  }
  throw std::logic_error("make_test_oracle: objective '" + name +
                         "' registered but not covered by the "
                         "submodularity audit — add an instance here");
}

TEST(SubmodularityRegistryAudit, EveryRegisteredObjectiveIsCovered) {
  for (const auto& spec : objective_registry()) {
    EXPECT_NO_THROW({ (void)make_test_oracle(spec.name, 1); }) << spec.name;
  }
}

TEST(SubmodularityRegistryAudit, GainMonotonicityOnRandomNestedSets) {
  // For random A ⊆ B and x ∉ B: Δ(x, A) ≥ Δ(x, B) up to FP noise. logdet
  // and the exemplar family accumulate rounding across kernel sums, so
  // they get a looser (still tiny) tolerance than the exact set systems.
  for (const auto& spec : objective_registry()) {
    const double tol =
        (spec.name == "coverage" || spec.name == "prob-coverage") ? 1e-9
                                                                  : 1e-7;
    for (const std::uint64_t seed : {11u, 29u}) {
      const auto proto = make_test_oracle(spec.name, seed);
      EXPECT_EQ(bds::testing::count_submodularity_violations(*proto, seed, 40,
                                                             tol),
                0)
          << spec.name << " seed " << seed;
    }
  }
}

TEST(SubmodularityRegistryAudit, MonotonicityOnRandomChains) {
  for (const auto& spec : objective_registry()) {
    const double tol =
        (spec.name == "coverage" || spec.name == "prob-coverage") ? 1e-9
                                                                  : 1e-7;
    for (const std::uint64_t seed : {13u, 31u}) {
      const auto proto = make_test_oracle(spec.name, seed);
      EXPECT_EQ(bds::testing::count_monotonicity_violations(*proto, seed, 20,
                                                            tol),
                0)
          << spec.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bds
