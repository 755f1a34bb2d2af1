// CertifiedMaintainer — the certified maintenance loop over a dynamic
// corpus (ISSUE 10 tentpole, core layer).
//
// The paper's bicriteria guarantee is exactly what makes dynamism cheap: a
// value-certified superset S with f(S) ≥ (1−ε)·UB stays a valid answer for
// *any* mutated corpus until the recomputed certificate shows it has decayed
// past ε. So after each mutation batch the maintainer:
//
//   1. syncs its oracle through data::sync_dynamic_oracle — in place in
//      O(degree) for coverage, otherwise a rebuild from the mutated corpus;
//   2. recomputes the core/upper_bound certificate against the *cached*
//      solution — one O(|ground|) oracle pass, no rounds;
//   3. re-solves with adaptive_bicriteria only when an erase removed a
//      solution member (the cached answer is unaddressable) or the ratio
//      f(S)/UB dropped below 1−ε.
//
// MaintainStats meters the kept/recertified/resolved split; the churn
// benchmark's exit gate asserts the re-solve rate stays below 100%.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/runtime_options.h"
#include "data/dynamic.h"
#include "objectives/submodular.h"

namespace bds {

struct MaintainConfig {
  std::size_t k = 10;          // cardinality target of the certificate
  double epsilon = 0.1;        // decay tolerance: re-solve when ratio < 1−ε
  std::string objective = "coverage";
  data::DynamicOracleOptions oracle;  // incremental vs rebuild, scalars
  // Re-solve parameters (forwarded to adaptive_bicriteria; target_ratio is
  // derived from epsilon).
  std::size_t items_per_round = 0;
  std::size_t max_rounds = 4;
  std::size_t machines = 0;
  MachineSelector selector = MachineSelector::kLazyGreedy;
  RuntimeOptions runtime;
};

// What a mutation batch cost: nothing but the certificate pass, or a full
// adaptive re-solve.
enum class MaintainDecision : std::uint8_t { kKept = 0, kResolved = 1 };

struct MaintainStats {
  std::uint64_t batches = 0;
  std::uint64_t mutations = 0;
  std::uint64_t kept = 0;      // batches absorbed by the certificate
  std::uint64_t resolved = 0;  // batches that triggered adaptive re-solve
  std::uint64_t oracle_rebuilds = 0;  // syncs that took the rebuild fallback
  std::uint64_t certificate_evals = 0;  // oracle evals spent recertifying
  std::uint64_t resolve_evals = 0;      // oracle evals spent re-solving

  // Fraction of batches that needed a re-solve; the churn gate pins < 1.
  double resolve_rate() const noexcept {
    return batches == 0
               ? 0.0
               : static_cast<double>(resolved) / static_cast<double>(batches);
  }
};

class CertifiedMaintainer {
 public:
  // Solves once at the corpus's current epoch (this initial solve is not
  // counted in stats — the stats meter mutation batches). Throws like
  // adaptive_bicriteria on bad k/epsilon and like make_dynamic_oracle on an
  // unknown objective.
  CertifiedMaintainer(std::shared_ptr<data::DynamicCorpus> corpus,
                      MaintainConfig config);

  // Single-mutation conveniences: a batch of one.
  MaintainDecision insert(std::vector<std::uint32_t> items);
  MaintainDecision erase(ElementId id);
  // Applies the whole batch to the corpus, syncs the oracle once, and makes
  // one keep/re-solve decision for the batch.
  MaintainDecision apply(std::span<const data::Mutation> batch);

  const data::DynamicCorpus& corpus() const noexcept { return *corpus_; }
  // Current-epoch fresh prototype (empty set). Never stale: every apply()
  // resyncs it before returning.
  const SubmodularOracle& oracle() const noexcept { return *oracle_; }

  const std::vector<ElementId>& solution() const noexcept { return solution_; }
  double value() const noexcept { return value_; }
  double upper_bound() const noexcept { return upper_bound_; }
  // f(S)/UB — stays ≥ 1−ε by construction (re-solve restores it).
  double certified_ratio() const noexcept { return ratio_; }
  const MaintainStats& stats() const noexcept { return stats_; }

 private:
  // Recomputes value + certificate for the cached solution; returns the
  // fresh ratio.
  double recertify();
  void resolve();

  std::shared_ptr<data::DynamicCorpus> corpus_;
  MaintainConfig config_;
  std::unique_ptr<SubmodularOracle> oracle_;
  std::vector<ElementId> solution_;
  double value_ = 0.0;
  double upper_bound_ = 0.0;
  double ratio_ = 0.0;
  MaintainStats stats_;
};

}  // namespace bds
