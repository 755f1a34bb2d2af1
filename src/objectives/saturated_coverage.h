// Document-summarization objective (the paper's intro application [20],
// Lin & Bilmes, "A class of submodular functions for document
// summarization"):
//
//   L(S) = Σ_{i∈V} min( C_i(S), γ·C_i(V) )          (saturated coverage)
//        + λ · Σ_k sqrt( Σ_{j ∈ S ∩ P_k} r_j )       (diversity reward)
//
// where C_i(S) = Σ_{j∈S} w_ij is how much sentence i is "covered" by the
// summary S under pairwise similarities w, γ ∈ (0,1] saturates each
// sentence's contribution, P_k is a clustering of the sentences and
// r_j = (1/n)·Σ_i w_ij is sentence j's mean relevance. Both terms are
// monotone submodular, hence so is L.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// Dense symmetric pairwise similarity matrix (row-major), values >= 0.
class SimilarityMatrix {
 public:
  // Preconditions: values.size() == n*n, symmetric and non-negative
  // (validated; throws std::invalid_argument).
  SimilarityMatrix(std::size_t n, std::vector<double> values);

  std::size_t size() const noexcept { return n_; }
  double at(std::size_t i, std::size_t j) const noexcept {
    return values_[i * n_ + j];
  }
  // Row i as a contiguous span (row-major storage) for batched kernels.
  const double* row(std::size_t i) const noexcept {
    return values_.data() + i * n_;
  }
  // Row sum Σ_j w_ij (used for the saturation caps and relevance scores).
  double row_sum(std::size_t i) const noexcept { return row_sums_[i]; }

 private:
  std::size_t n_;
  std::vector<double> values_;
  std::vector<double> row_sums_;
};

struct SaturatedCoverageConfig {
  double gamma = 0.25;  // saturation fraction, in (0, 1]
  // Diversity reward: cluster labels (one per element, ids < n_clusters)
  // and weight λ. Leave cluster_of empty to disable the term.
  std::vector<std::uint32_t> cluster_of;
  double lambda = 0.0;
};

class SaturatedCoverageOracle final : public SubmodularOracle {
 public:
  // Throws std::invalid_argument on gamma outside (0,1], negative lambda,
  // or a cluster label vector of the wrong length.
  SaturatedCoverageOracle(std::shared_ptr<const SimilarityMatrix> sim,
                          SaturatedCoverageConfig config);

  std::size_t ground_size() const noexcept override { return sim_->size(); }
  double max_value() const noexcept override;

 protected:
  double do_gain(ElementId x) const override;
  double do_add(ElementId x) override;
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override;
  std::unique_ptr<SubmodularOracle> do_clone() const override;
  std::size_t do_state_bytes() const noexcept override;

 private:
  double diversity_delta(ElementId x) const noexcept;

  std::shared_ptr<const SimilarityMatrix> sim_;
  std::shared_ptr<const SaturatedCoverageConfig> config_;
  std::shared_ptr<const std::vector<double>> relevance_;  // r_j
  std::vector<double> covered_;        // C_i(S)
  std::vector<double> caps_;           // γ·C_i(V)
  std::vector<double> cluster_mass_;   // Σ_{j∈S∩P_k} r_j
  std::vector<std::uint8_t> in_set_;
};

}  // namespace bds
