// Exemplar-based clustering (§4.2): given points with a squared-L2 distance
// and a phantom exemplar p0 at distance d0 from every point, maximize
//
//   f(S) = c({p0}) − c(S ∪ {p0}),   c(S) = Σ_v min_{s∈S} dist(v, s),
//
// a monotone submodular function; maximizing it minimizes clustering cost.
//
// Two oracles are provided:
//  * ExemplarOracle — exact; each evaluation touches every point: O(n·dim).
//  * SampledExemplarOracle — the paper's estimation scheme: the objective is
//    estimated on a fixed uniform sample V' (500 points per machine in §4.2),
//    scaled by n/|V'|. Distributed machines each receive an independent
//    sample; exact values for reporting are always recomputed with the exact
//    oracle.
//
// Both oracles evaluate through the SIMD kernel layer (util/kernels.h):
// distances use the norms+dot identity over PointSet's padded rows and
// cached squared norms, gains accumulate over the cost points in canonical
// kern::kCostChunk chunks merged in chunk order, so batched and single
// gains and add()'s realized gain are bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "objectives/submodular.h"
#include "util/aligned.h"
#include "util/element.h"
#include "util/rng.h"

namespace bds {

// Immutable row-major point matrix (float storage; accumulation in double).
// Rows are stored padded to kern::padded_dim(dim) floats (zero-filled) on a
// 32-byte-aligned base so SIMD kernels can stream them, and each row's
// squared L2 norm is cached for the norms+dot distance formulation.
//
// The padded matrix and the norm cache can either be owned (heap vectors,
// the generator path) or borrowed from externally owned storage — the
// sections of an mmap'd dataset file (data/io.h `map_point_set`), kept
// alive by the `storage` handle. Stored norms were computed with the lane
// kernels, which are bit-identical across ISA tiers, so a mapped PointSet
// evaluates exactly like the heap-built one it was written from.
class PointSet {
 public:
  // Preconditions: dim > 0, data.size() == n * dim (packed rows; the
  // constructor re-lays them out padded).
  PointSet(std::size_t n, std::size_t dim, std::vector<float> data);

  // Zero-copy view over an external padded matrix + norm cache (the mmap
  // path). `rows` must hold n × stride floats on a util::kSimdAlign'ed
  // base with stride == kern::padded_dim(dim) and zero-filled tails;
  // `norms` holds n doubles. Throws std::invalid_argument on a stride or
  // alignment violation.
  PointSet(std::size_t n, std::size_t dim, std::size_t stride,
           const float* rows, const double* norms,
           std::shared_ptr<const void> storage);

  std::size_t size() const noexcept { return n_; }
  std::size_t dim() const noexcept { return dim_; }
  // Floats per stored row: dim rounded up to kern::kLanes.
  std::size_t stride() const noexcept { return stride_; }
  // True when the matrix aliases external storage (an mmap'd file section).
  bool borrows_storage() const noexcept { return storage_ != nullptr; }

  std::span<const float> point(std::size_t i) const noexcept {
    return std::span<const float>(rows() + i * stride_, dim_);
  }
  // Padded row pointer (stride() floats, tail zero-filled).
  const float* row(std::size_t i) const noexcept {
    return rows() + i * stride_;
  }
  // Base of the padded matrix (row 0).
  const float* rows() const noexcept {
    return storage_ ? ext_rows_ : data_.data();
  }

  // Cached squared L2 norms per row, computed with the lane kernels (so
  // they are bit-identical across BDS_KERNEL ISA tiers).
  const double* norms() const noexcept {
    return storage_ ? ext_norms_ : norms_.data();
  }
  double norm2(std::size_t i) const noexcept { return norms()[i]; }

  // Scales every point to unit L2 norm (zero vectors are left untouched),
  // matching the paper's preprocessing. Refreshes the cached norms. On a
  // storage-borrowing PointSet this first materializes an owned copy of
  // the matrix (the mapping is read-only), so it may allocate/throw;
  // converters normalize before writing so mapped sets never need this.
  void normalize_rows();

 private:
  void recompute_norms();
  void materialize_owned();

  std::size_t n_;
  std::size_t dim_;
  std::size_t stride_;
  util::AlignedVector<float> data_;
  std::vector<double> norms_;
  std::shared_ptr<const void> storage_;  // borrow mode: keep-alive
  const float* ext_rows_ = nullptr;
  const double* ext_norms_ = nullptr;
};

// Squared Euclidean distance between two equal-length vectors, computed
// with the dispatched lane kernel.
double squared_l2(std::span<const float> a, std::span<const float> b) noexcept;

// Exact exemplar-clustering oracle over all points of `points`.
// p0_dist is dist(v, p0) for every v — the paper fixes it to 2, an upper
// bound on the squared distance of unit vectors with non-negative dot
// products.
class ExemplarOracle final : public SubmodularOracle {
 public:
  // Preconditions: points non-null and non-empty, p0_dist > 0.
  ExemplarOracle(std::shared_ptr<const PointSet> points, double p0_dist);

  std::size_t ground_size() const noexcept override {
    return points_->size();
  }
  // f(S) <= c({p0}) = n * p0_dist for any S.
  double max_value() const noexcept override {
    return static_cast<double>(points_->size()) * p0_dist_;
  }

  // Current clustering cost c(S ∪ {p0}) = Σ_v min_dist[v].
  double clustering_cost() const noexcept;
  double p0_dist() const noexcept { return p0_dist_; }

 protected:
  double do_gain(ElementId x) const override;
  double do_add(ElementId x) override;
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override;
  std::unique_ptr<SubmodularOracle> do_clone() const override;
  // Workers clone min_dist_ whole: any shard point can tighten any point's
  // cost term. The paper's own row restriction is SampledExemplarOracle.
  std::size_t do_state_bytes() const noexcept override {
    return min_dist_.capacity() * sizeof(double);
  }

 private:
  std::shared_ptr<const PointSet> points_;
  double p0_dist_;
  std::vector<double> min_dist_;  // min over S ∪ {p0}; starts at p0_dist
};

// Sampled estimate: identical semantics, but cost terms are summed over a
// fixed uniform sample of `sample_size` points and scaled by n/sample_size.
// Gains/values are unbiased estimates of the exact oracle's.
class SampledExemplarOracle final : public SubmodularOracle {
 public:
  // Preconditions as ExemplarOracle; additionally 0 < sample_size.
  // sample_size is clamped to the point count. `rng` draws the sample.
  SampledExemplarOracle(std::shared_ptr<const PointSet> points,
                        double p0_dist, std::size_t sample_size,
                        util::Rng& rng);

  std::size_t ground_size() const noexcept override {
    return points_->size();
  }
  double max_value() const noexcept override {
    return static_cast<double>(points_->size()) * p0_dist_;
  }

  std::span<const std::uint32_t> sample_ids() const noexcept {
    return *sample_;
  }

 protected:
  double do_gain(ElementId x) const override;
  double do_add(ElementId x) override;
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override;
  std::unique_ptr<SubmodularOracle> do_clone() const override;
  std::size_t do_state_bytes() const noexcept override {
    return min_dist_.capacity() * sizeof(double);
  }

 private:
  std::shared_ptr<const PointSet> points_;
  double p0_dist_;
  double scale_;  // n / |sample|
  std::shared_ptr<const std::vector<std::uint32_t>> sample_;
  std::vector<double> min_dist_;  // parallel to *sample_
};

}  // namespace bds
