#include "objectives/saturated_coverage.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bds {

SimilarityMatrix::SimilarityMatrix(std::size_t n, std::vector<double> values)
    : n_(n), values_(std::move(values)) {
  if (values_.size() != n * n) {
    throw std::invalid_argument("SimilarityMatrix: values size != n*n");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (values_[i * n + j] != values_[j * n + i]) {
        throw std::invalid_argument("SimilarityMatrix: not symmetric");
      }
    }
  }
  for (const double v : values_) {
    if (v < 0.0) {
      throw std::invalid_argument("SimilarityMatrix: negative similarity");
    }
  }
  row_sums_.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) row_sums_[i] += values_[i * n + j];
  }
}

SaturatedCoverageOracle::SaturatedCoverageOracle(
    std::shared_ptr<const SimilarityMatrix> sim,
    SaturatedCoverageConfig config)
    : sim_(std::move(sim)), in_set_(sim_->size(), 0) {
  if (!(config.gamma > 0.0 && config.gamma <= 1.0)) {
    throw std::invalid_argument(
        "SaturatedCoverageOracle: gamma must be in (0, 1]");
  }
  if (config.lambda < 0.0) {
    throw std::invalid_argument(
        "SaturatedCoverageOracle: lambda must be non-negative");
  }
  if (!config.cluster_of.empty() &&
      config.cluster_of.size() != sim_->size()) {
    throw std::invalid_argument(
        "SaturatedCoverageOracle: one cluster label per element required");
  }

  const std::size_t n = sim_->size();
  covered_.assign(n, 0.0);
  caps_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    caps_[i] = config.gamma * sim_->row_sum(i);
  }

  // Relevance r_j = mean similarity to the corpus.
  auto relevance = std::make_shared<std::vector<double>>(n);
  for (std::size_t j = 0; j < n; ++j) {
    (*relevance)[j] = sim_->row_sum(j) / static_cast<double>(n);
  }
  relevance_ = std::move(relevance);

  if (!config.cluster_of.empty()) {
    std::uint32_t max_cluster = 0;
    for (const std::uint32_t c : config.cluster_of) {
      max_cluster = std::max(max_cluster, c);
    }
    cluster_mass_.assign(max_cluster + 1, 0.0);
  }
  config_ = std::make_shared<const SaturatedCoverageConfig>(std::move(config));
}

double SaturatedCoverageOracle::max_value() const noexcept {
  // Coverage term is capped by Σ_i γ·C_i(V); diversity by
  // λ·Σ_k sqrt(total cluster relevance).
  double cap_total = 0.0;
  for (const double c : caps_) cap_total += c;
  double diversity_cap = 0.0;
  if (!cluster_mass_.empty()) {
    std::vector<double> totals(cluster_mass_.size(), 0.0);
    for (std::size_t j = 0; j < sim_->size(); ++j) {
      totals[config_->cluster_of[j]] += (*relevance_)[j];
    }
    for (const double t : totals) diversity_cap += std::sqrt(t);
  }
  return cap_total + config_->lambda * diversity_cap;
}

double SaturatedCoverageOracle::diversity_delta(ElementId x) const noexcept {
  if (cluster_mass_.empty() || config_->lambda <= 0.0) return 0.0;
  const std::uint32_t c = config_->cluster_of[x];
  const double mass = cluster_mass_[c];
  return config_->lambda *
         (std::sqrt(mass + (*relevance_)[x]) - std::sqrt(mass));
}

double SaturatedCoverageOracle::do_gain(ElementId x) const {
  if (in_set_[x]) return 0.0;
  const std::size_t n = sim_->size();
  double gain = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double before = std::min(covered_[i], caps_[i]);
    const double after = std::min(covered_[i] + sim_->at(i, x), caps_[i]);
    gain += after - before;
  }
  return gain + diversity_delta(x);
}

void SaturatedCoverageOracle::do_gain_batch(std::span<const ElementId> xs,
                                            std::span<double> out) const {
  // Transposed kernel: the scalar path reads one similarity *column* per
  // candidate (stride-n accesses). Here the outer loop walks rows, so each
  // row of the matrix is streamed once — contiguous loads — and covered_/
  // caps_ are read once per row instead of once per (row, candidate).
  // Accumulation per candidate still runs over rows in ascending order,
  // matching do_gain's floating-point sum exactly.
  const std::size_t n = sim_->size();
  for (std::size_t j = 0; j < xs.size(); ++j) out[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cov = covered_[i];
    const double cap = caps_[i];
    const double before = std::min(cov, cap);
    const double* const row = sim_->row(i);
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const double after = std::min(cov + row[xs[j]], cap);
      out[j] += after - before;
    }
  }
  for (std::size_t j = 0; j < xs.size(); ++j) {
    out[j] = in_set_[xs[j]] ? 0.0 : out[j] + diversity_delta(xs[j]);
  }
}

double SaturatedCoverageOracle::do_add(ElementId x) {
  if (in_set_[x]) return 0.0;
  in_set_[x] = 1;
  const std::size_t n = sim_->size();
  double gain = diversity_delta(x);
  if (!cluster_mass_.empty()) {
    cluster_mass_[config_->cluster_of[x]] += (*relevance_)[x];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double before = std::min(covered_[i], caps_[i]);
    covered_[i] += sim_->at(i, x);
    gain += std::min(covered_[i], caps_[i]) - before;
  }
  return gain;
}

std::unique_ptr<SubmodularOracle> SaturatedCoverageOracle::do_clone() const {
  return std::make_unique<SaturatedCoverageOracle>(*this);
}

std::size_t SaturatedCoverageOracle::do_state_bytes() const noexcept {
  return (covered_.capacity() + caps_.capacity() + cluster_mass_.capacity()) *
             sizeof(double) +
         in_set_.capacity() * sizeof(std::uint8_t);
}

}  // namespace bds
