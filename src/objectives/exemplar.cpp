#include "objectives/exemplar.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/kernels.h"

namespace bds {

PointSet::PointSet(std::size_t n, std::size_t dim, std::vector<float> data)
    : n_(n), dim_(dim), stride_(kern::padded_dim(dim)) {
  if (dim == 0) throw std::invalid_argument("PointSet: dim must be positive");
  if (data.size() != n * dim) {
    throw std::invalid_argument("PointSet: data size != n * dim");
  }
  data_.assign(n_ * stride_, 0.0f);
  for (std::size_t i = 0; i < n_; ++i) {
    std::copy(data.begin() + i * dim_, data.begin() + (i + 1) * dim_,
              data_.begin() + i * stride_);
  }
  recompute_norms();
}

PointSet::PointSet(std::size_t n, std::size_t dim, std::size_t stride,
                   const float* rows, const double* norms,
                   std::shared_ptr<const void> storage)
    : n_(n),
      dim_(dim),
      stride_(stride),
      storage_(std::move(storage)),
      ext_rows_(rows),
      ext_norms_(norms) {
  if (dim == 0) throw std::invalid_argument("PointSet: dim must be positive");
  if (storage_ == nullptr || (n > 0 && (rows == nullptr || norms == nullptr))) {
    throw std::invalid_argument("PointSet: null external storage");
  }
  if (stride != kern::padded_dim(dim)) {
    throw std::invalid_argument(
        "PointSet: external stride != kern::padded_dim(dim)");
  }
  if (reinterpret_cast<std::uintptr_t>(rows) % util::kSimdAlign != 0) {
    throw std::invalid_argument(
        "PointSet: external row matrix is not SIMD-aligned");
  }
}

void PointSet::recompute_norms() {
  norms_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    norms_[i] = kern::squared_norm(row(i), dim_);
  }
}

void PointSet::materialize_owned() {
  if (!storage_) return;
  data_.assign(ext_rows_, ext_rows_ + n_ * stride_);
  norms_.assign(ext_norms_, ext_norms_ + n_);
  storage_.reset();
  ext_rows_ = nullptr;
  ext_norms_ = nullptr;
}

void PointSet::normalize_rows() {
  materialize_owned();  // the mapping is read-only; scale an owned copy
  for (std::size_t i = 0; i < n_; ++i) {
    float* r = data_.data() + i * stride_;
    const double norm2 = kern::squared_norm(r, dim_);
    if (norm2 <= 0.0) continue;
    const auto inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (std::size_t d = 0; d < dim_; ++d) r[d] *= inv;
  }
  recompute_norms();
}

double squared_l2(std::span<const float> a,
                  std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  return kern::squared_l2(a.data(), b.data(), a.size());
}

namespace {

// The cost-term view both oracles evaluate against: `count` terms, term t
// referring to point id (ids ? ids[t] : t), with its current min distance
// in min_dist[t].
struct CostView {
  const PointSet* points;
  const std::uint32_t* ids;  // nullptr = identity (exact oracle)
  std::size_t count;
  const double* min_dist;
};

// --- canonical kernel-layer evaluation --------------------------------------
//
// Gains accumulate per canonical kern::kCostChunk chunk of cost terms
// (sequentially inside a chunk), and the chunk partials are summed in
// ascending chunk order. The batch path, add() and single gain() share
// this grouping, so every path yields bit-identical doubles.

std::size_t chunk_count(std::size_t count) {
  return (count + kern::kCostChunk - 1) / kern::kCostChunk;
}

// out[j] = Σ_chunks gain_tile(chunk)[j], scaled.
void kernel_gain_batch(const CostView& view, double scale,
                       std::span<const ElementId> xs, std::span<double> out) {
  const std::size_t batch = xs.size();
  if (batch == 0) return;
  const PointSet& pts = *view.points;
  const std::size_t n_chunks = chunk_count(view.count);
  const kern::KernelTable& kt = kern::active_table();

  // partial[c * batch + j]: candidate j's gain over chunk c; the merge
  // below sums the chunks in order.
  std::vector<double> partial(n_chunks * batch);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * kern::kCostChunk;
    const std::size_t end =
        std::min(begin + kern::kCostChunk, view.count);
    double* prow = partial.data() + c * batch;
    for (std::size_t j0 = 0; j0 < batch; j0 += kern::kGainTile) {
      const std::size_t n_x = std::min(kern::kGainTile, batch - j0);
      const float* tile_rows[kern::kGainTile];
      double tile_norms[kern::kGainTile];
      for (std::size_t j = 0; j < n_x; ++j) {
        tile_rows[j] = pts.row(xs[j0 + j]);
        tile_norms[j] = pts.norm2(xs[j0 + j]);
      }
      kt.gain_tile(pts.rows(), pts.stride(), pts.norms(), view.ids,
                   view.min_dist, begin, end, tile_rows, tile_norms, n_x,
                   prow + j0);
    }
  }

  // Chunk-ordered merge.
  for (std::size_t j = 0; j < batch; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n_chunks; ++c) acc += partial[c * batch + j];
    out[j] = acc * scale;
  }
}

double kernel_gain_one(const CostView& view, ElementId x) {
  const PointSet& pts = *view.points;
  const kern::KernelTable& kt = kern::active_table();
  const float* xr = pts.row(x);
  const double xn = pts.norm2(x);
  double total = 0.0;
  for (std::size_t begin = 0; begin < view.count;
       begin += kern::kCostChunk) {
    const std::size_t end =
        std::min(begin + kern::kCostChunk, view.count);
    double part = 0.0;
    kt.gain_tile(pts.rows(), pts.stride(), pts.norms(), view.ids,
                 view.min_dist, begin, end, &xr, &xn, 1, &part);
    total += part;
  }
  return total;
}

// Commits x: tightens min_dist in place, returns the realized (unscaled)
// gain with the same chunked accumulation gain uses, so gain(x) == the
// gain add(x) realizes, bit for bit.
double kernel_add(const CostView& view, std::vector<double>& min_dist,
                  ElementId x) {
  const PointSet& pts = *view.points;
  const kern::KernelTable& kt = kern::active_table();
  const float* xr = pts.row(x);
  const double xn = pts.norm2(x);
  double buf[kern::kCostChunk];
  double total = 0.0;
  for (std::size_t begin = 0; begin < view.count;
       begin += kern::kCostChunk) {
    const std::size_t end =
        std::min(begin + kern::kCostChunk, view.count);
    kt.distance_row(pts.rows(), pts.stride(), pts.norms(), view.ids, begin,
                    end, xr, xn, buf);
    double part = 0.0;
    for (std::size_t t = begin; t < end; ++t) {
      const double d = buf[t - begin];
      if (d < min_dist[t]) {
        part += min_dist[t] - d;
        min_dist[t] = d;
      }
    }
    total += part;
  }
  return total;
}

}  // namespace

ExemplarOracle::ExemplarOracle(std::shared_ptr<const PointSet> points,
                               double p0_dist)
    : points_(std::move(points)), p0_dist_(p0_dist) {
  if (!points_ || points_->size() == 0) {
    throw std::invalid_argument("ExemplarOracle: empty point set");
  }
  if (p0_dist <= 0.0) {
    throw std::invalid_argument("ExemplarOracle: p0_dist must be positive");
  }
  min_dist_.assign(points_->size(), p0_dist_);
}

double ExemplarOracle::clustering_cost() const noexcept {
  double cost = 0.0;
  for (const double d : min_dist_) cost += d;
  return cost;
}

double ExemplarOracle::do_gain(ElementId x) const {
  const CostView view{points_.get(), nullptr, min_dist_.size(),
                      min_dist_.data()};
  return kernel_gain_one(view, x);
}

void ExemplarOracle::do_gain_batch(std::span<const ElementId> xs,
                                   std::span<double> out) const {
  const CostView view{points_.get(), nullptr, min_dist_.size(),
                      min_dist_.data()};
  kernel_gain_batch(view, 1.0, xs, out);
}

double ExemplarOracle::do_add(ElementId x) {
  const CostView view{points_.get(), nullptr, min_dist_.size(),
                      min_dist_.data()};
  return kernel_add(view, min_dist_, x);
}

std::unique_ptr<SubmodularOracle> ExemplarOracle::do_clone() const {
  return std::make_unique<ExemplarOracle>(*this);
}

SampledExemplarOracle::SampledExemplarOracle(
    std::shared_ptr<const PointSet> points, double p0_dist,
    std::size_t sample_size, util::Rng& rng)
    : points_(std::move(points)), p0_dist_(p0_dist) {
  if (!points_ || points_->size() == 0) {
    throw std::invalid_argument("SampledExemplarOracle: empty point set");
  }
  if (p0_dist <= 0.0) {
    throw std::invalid_argument(
        "SampledExemplarOracle: p0_dist must be positive");
  }
  if (sample_size == 0) {
    throw std::invalid_argument(
        "SampledExemplarOracle: sample_size must be positive");
  }
  sample_size = std::min(sample_size, points_->size());
  auto ids = rng.sample_without_replacement(points_->size(), sample_size);
  auto sample = std::make_shared<std::vector<std::uint32_t>>();
  sample->reserve(ids.size());
  for (const auto id : ids) sample->push_back(static_cast<std::uint32_t>(id));
  sample_ = std::move(sample);
  scale_ = static_cast<double>(points_->size()) /
           static_cast<double>(sample_->size());
  min_dist_.assign(sample_->size(), p0_dist_);
}

double SampledExemplarOracle::do_gain(ElementId x) const {
  const CostView view{points_.get(), sample_->data(), sample_->size(),
                      min_dist_.data()};
  return kernel_gain_one(view, x) * scale_;
}

void SampledExemplarOracle::do_gain_batch(std::span<const ElementId> xs,
                                          std::span<double> out) const {
  const CostView view{points_.get(), sample_->data(), sample_->size(),
                      min_dist_.data()};
  kernel_gain_batch(view, scale_, xs, out);
}

double SampledExemplarOracle::do_add(ElementId x) {
  const CostView view{points_.get(), sample_->data(), sample_->size(),
                      min_dist_.data()};
  return kernel_add(view, min_dist_, x) * scale_;
}

std::unique_ptr<SubmodularOracle> SampledExemplarOracle::do_clone() const {
  return std::make_unique<SampledExemplarOracle>(*this);
}

}  // namespace bds
