#include "objectives/coverage.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bds {

SetSystem::SetSystem(std::vector<std::vector<std::uint32_t>> sets,
                     std::uint32_t universe_size)
    : universe_size_(universe_size) {
  owned_offsets_.reserve(sets.size() + 1);
  owned_offsets_.push_back(0);
  // Deduplicate within each set so gain() and add() always agree on the
  // contribution of a set containing a repeated element. Dedup happens
  // before the reserve: the pre-dedup total would over-reserve and strand
  // the slack for the lifetime of the (immutable, widely shared) system.
  std::size_t total = 0;
  for (auto& s : sets) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    total += s.size();
  }
  owned_entries_.reserve(total);
  for (const auto& s : sets) {
    for (const std::uint32_t e : s) {
      if (e >= universe_size) {
        throw std::out_of_range("SetSystem: element beyond universe");
      }
      owned_entries_.push_back(e);
    }
    owned_offsets_.push_back(owned_entries_.size());
  }
  num_sets_ = sets.size();
  num_entries_ = owned_entries_.size();
}

SetSystem::SetSystem(const std::uint64_t* offsets, std::size_t num_sets,
                     const std::uint32_t* entries, std::size_t num_entries,
                     std::uint32_t universe_size,
                     std::shared_ptr<const void> storage)
    : storage_(std::move(storage)),
      ext_offsets_(offsets),
      ext_entries_(entries),
      num_sets_(num_sets),
      num_entries_(num_entries),
      universe_size_(universe_size) {
  if (storage_ == nullptr || offsets == nullptr ||
      (entries == nullptr && num_entries != 0)) {
    throw std::invalid_argument("SetSystem: null external CSR storage");
  }
  if (offsets[0] != 0 || offsets[num_sets] != num_entries) {
    throw std::invalid_argument("SetSystem: external CSR offsets corrupt");
  }
}

CoverageOracle::CoverageOracle(std::shared_ptr<const SetSystem> sets)
    : sets_(std::move(sets)), covered_(sets_->universe_size(), 0) {}

double CoverageOracle::do_gain(ElementId x) const {
  std::uint64_t fresh = 0;
  for (const std::uint32_t e : sets_->set_items(x)) {
    fresh += (covered_[e] == 0);
  }
  return static_cast<double>(fresh);
}

void CoverageOracle::do_gain_batch(std::span<const ElementId> xs,
                                   std::span<double> out) const {
  // One pass over the CSR arrays with all bases hoisted into registers: no
  // per-element virtual dispatch, no span re-materialization, and the
  // covered bitmap stays hot across consecutive candidates.
  const std::uint64_t* const offsets = sets_->offsets_data();
  const std::uint32_t* const entries = sets_->entries_data();
  const std::uint8_t* const covered = covered_.data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t begin = offsets[xs[i]];
    const std::size_t end = offsets[xs[i] + 1];
    std::uint64_t fresh = 0;
    for (std::size_t e = begin; e < end; ++e) {
      fresh += (covered[entries[e]] == 0);
    }
    out[i] = static_cast<double>(fresh);
  }
}

double CoverageOracle::do_add(ElementId x) {
  std::uint64_t fresh = 0;
  for (const std::uint32_t e : sets_->set_items(x)) {
    if (covered_[e] == 0) {
      covered_[e] = 1;
      ++fresh;
    }
  }
  covered_count_ += fresh;
  return static_cast<double>(fresh);
}

std::unique_ptr<SubmodularOracle> CoverageOracle::do_clone() const {
  return std::make_unique<CoverageOracle>(*this);
}

std::size_t CoverageOracle::do_state_bytes() const noexcept {
  return covered_.capacity() * sizeof(std::uint8_t);
}

WeightedCoverageOracle::WeightedCoverageOracle(
    std::shared_ptr<const SetSystem> sets, std::vector<double> weights)
    : sets_(std::move(sets)),
      covered_(sets_->universe_size(), 0) {
  if (weights.size() != sets_->universe_size()) {
    throw std::invalid_argument(
        "WeightedCoverageOracle: one weight per universe element required");
  }
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "WeightedCoverageOracle: weights must be non-negative");
    }
    total_weight_ += w;
  }
  weights_ = std::make_shared<const std::vector<double>>(std::move(weights));
}

double WeightedCoverageOracle::do_gain(ElementId x) const {
  double fresh = 0.0;
  const auto& w = *weights_;
  for (const std::uint32_t e : sets_->set_items(x)) {
    if (covered_[e] == 0) fresh += w[e];
  }
  return fresh;
}

void WeightedCoverageOracle::do_gain_batch(std::span<const ElementId> xs,
                                           std::span<double> out) const {
  const std::uint64_t* const offsets = sets_->offsets_data();
  const std::uint32_t* const entries = sets_->entries_data();
  const std::uint8_t* const covered = covered_.data();
  const double* const w = weights_->data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t begin = offsets[xs[i]];
    const std::size_t end = offsets[xs[i] + 1];
    double fresh = 0.0;
    for (std::size_t e = begin; e < end; ++e) {
      const std::uint32_t el = entries[e];
      if (covered[el] == 0) fresh += w[el];
    }
    out[i] = fresh;
  }
}

double WeightedCoverageOracle::do_add(ElementId x) {
  double fresh = 0.0;
  const auto& w = *weights_;
  for (const std::uint32_t e : sets_->set_items(x)) {
    if (covered_[e] == 0) {
      covered_[e] = 1;
      fresh += w[e];
    }
  }
  return fresh;
}

std::unique_ptr<SubmodularOracle> WeightedCoverageOracle::do_clone() const {
  return std::make_unique<WeightedCoverageOracle>(*this);
}

std::size_t WeightedCoverageOracle::do_state_bytes() const noexcept {
  return covered_.capacity() * sizeof(std::uint8_t);
}

}  // namespace bds
