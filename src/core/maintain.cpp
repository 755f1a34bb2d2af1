#include "core/maintain.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/upper_bound.h"

namespace bds {

CertifiedMaintainer::CertifiedMaintainer(
    std::shared_ptr<data::DynamicCorpus> corpus, MaintainConfig config)
    : corpus_(std::move(corpus)), config_(std::move(config)) {
  if (!corpus_) {
    throw std::invalid_argument("CertifiedMaintainer: null corpus");
  }
  if (config_.epsilon <= 0.0 || config_.epsilon >= 1.0) {
    throw std::invalid_argument(
        "CertifiedMaintainer: epsilon must be in (0, 1)");
  }
  oracle_ =
      data::make_dynamic_oracle(*corpus_, config_.objective, config_.oracle);
  resolve();
  // The constructor's solve is the baseline, not a maintained batch.
  stats_ = MaintainStats{};
}

MaintainDecision CertifiedMaintainer::insert(std::vector<std::uint32_t> items) {
  data::Mutation m;
  m.kind = data::MutationKind::kInsert;
  m.id = static_cast<ElementId>(corpus_->size());
  m.items = std::move(items);
  return apply(std::span<const data::Mutation>(&m, 1));
}

MaintainDecision CertifiedMaintainer::erase(ElementId id) {
  data::Mutation m;
  m.kind = data::MutationKind::kErase;
  m.id = id;
  return apply(std::span<const data::Mutation>(&m, 1));
}

MaintainDecision CertifiedMaintainer::apply(
    std::span<const data::Mutation> batch) {
  bool solution_member_erased = false;
  for (const data::Mutation& m : batch) {
    if (m.kind == data::MutationKind::kErase &&
        std::find(solution_.begin(), solution_.end(), m.id) !=
            solution_.end()) {
      solution_member_erased = true;
    }
    corpus_->apply(m);
  }
  data::SyncedOracle synced = data::sync_dynamic_oracle(
      std::move(oracle_), *corpus_, config_.objective, config_.oracle);
  oracle_ = std::move(synced.oracle);
  if (synced.rebuilt) ++stats_.oracle_rebuilds;

  ++stats_.batches;
  stats_.mutations += batch.size();

  // An erased solution member makes the cached answer unaddressable — no
  // certificate can save it. Otherwise one O(|ground|) pass decides.
  if (!solution_member_erased && recertify() >= 1.0 - config_.epsilon) {
    ++stats_.kept;
    return MaintainDecision::kKept;
  }
  resolve();
  ++stats_.resolved;
  return MaintainDecision::kResolved;
}

double CertifiedMaintainer::recertify() {
  const std::vector<ElementId> ground = corpus_->live_ground();
  const SolutionCertificate cert =
      certify_solution(*oracle_, solution_, ground, config_.k);
  value_ = cert.value;
  upper_bound_ = cert.upper_bound;
  stats_.certificate_evals += cert.evals;
  ratio_ = upper_bound_ > 0.0 ? value_ / upper_bound_ : 1.0;
  return ratio_;
}

void CertifiedMaintainer::resolve() {
  const std::vector<ElementId> ground = corpus_->live_ground();
  AdaptiveConfig cfg;
  cfg.k = config_.k;
  cfg.items_per_round = config_.items_per_round;
  cfg.target_ratio = 1.0 - config_.epsilon;
  cfg.max_rounds = config_.max_rounds;
  cfg.machines = config_.machines;
  cfg.selector = config_.selector;
  cfg.runtime = config_.runtime;
  const AdaptiveResult solved = adaptive_bicriteria(*oracle_, ground, cfg);
  solution_ = solved.result.solution;
  value_ = solved.result.value;
  upper_bound_ = solved.upper_bound;
  ratio_ = solved.certified_ratio;
  stats_.resolve_evals += solved.result.stats.total_evals();
}

}  // namespace bds
