#include "objectives/coverage_incremental.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace bds {

InvertedIndex::InvertedIndex(const SetSystem& sets) {
  offsets_.assign(sets.universe_size() + 1, 0);
  const std::size_t num_sets = sets.num_sets();
  for (std::size_t s = 0; s < num_sets; ++s) {
    for (const std::uint32_t e : sets.set_items(s)) ++offsets_[e + 1];
  }
  for (std::size_t e = 1; e < offsets_.size(); ++e) {
    offsets_[e] += offsets_[e - 1];
  }
  entries_.resize(sets.total_size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < num_sets; ++s) {
    for (const std::uint32_t e : sets.set_items(s)) {
      entries_[cursor[e]++] = static_cast<std::uint32_t>(s);
    }
  }
}

IncrementalCoverageOracle::IncrementalCoverageOracle(
    std::shared_ptr<const SetSystem> sets)
    : IncrementalCoverageOracle(
          sets, std::make_shared<const InvertedIndex>(*sets)) {}

IncrementalCoverageOracle::IncrementalCoverageOracle(
    std::shared_ptr<const SetSystem> sets,
    std::shared_ptr<const InvertedIndex> index)
    : sets_(std::move(sets)),
      index_(std::move(index)),
      covered_(sets_->universe_size(), 0) {
  residual_.reserve(sets_->num_sets());
  for (std::size_t s = 0; s < sets_->num_sets(); ++s) {
    residual_.push_back(static_cast<std::uint32_t>(sets_->set_size(s)));
  }
}

double IncrementalCoverageOracle::do_gain(ElementId x) const {
  return static_cast<double>(residual_[x]);
}

void IncrementalCoverageOracle::do_gain_batch(std::span<const ElementId> xs,
                                              std::span<double> out) const {
  const std::uint32_t* const residual = residual_.data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = static_cast<double>(residual[xs[i]]);
  }
}

std::span<const std::uint32_t> IncrementalCoverageOracle::set_items(
    ElementId x) const {
  const std::size_t base = sets_->num_sets();
  if (x < base) return sets_->set_items(x);
  const std::size_t row = x - base;
  return std::span<const std::uint32_t>(
      ov_entries_.data() + ov_offsets_[row],
      static_cast<std::size_t>(ov_offsets_[row + 1] - ov_offsets_[row]));
}

double IncrementalCoverageOracle::do_add(ElementId x) {
  const double gain = static_cast<double>(residual_[x]);
  for (const std::uint32_t e : set_items(x)) {
    if (covered_[e]) continue;
    covered_[e] = 1;
    ++covered_count_;
    for (const std::uint32_t s : index_->sets_of(e)) --residual_[s];
    if (!ov_index_.empty()) {
      if (const auto hit = ov_index_.find(e); hit != ov_index_.end()) {
        for (const std::uint32_t s : hit->second) --residual_[s];
      }
    }
  }
  return gain;
}

void IncrementalCoverageOracle::do_apply_insert(
    ElementId id, std::span<const std::uint32_t> items) {
  if (id != residual_.size()) {
    throw std::invalid_argument(
        "apply_insert: id " + std::to_string(id) +
        " is not the next ground id (" + std::to_string(residual_.size()) +
        ") — mutations must be applied in log order");
  }
  // Items arrive canonical (sorted unique, in range) from the DynamicCorpus;
  // validate the range anyway so a bad caller cannot corrupt the bitmap.
  std::uint32_t residual = 0;
  for (const std::uint32_t e : items) {
    if (e >= covered_.size()) {
      throw std::out_of_range("apply_insert: element " + std::to_string(e) +
                              " outside universe");
    }
    if (!covered_[e]) ++residual;
  }
  const std::size_t ov_row = ov_offsets_.size() - 1;
  ov_entries_.insert(ov_entries_.end(), items.begin(), items.end());
  ov_offsets_.push_back(ov_entries_.size());
  residual_.push_back(residual);
  for (const std::uint32_t e : items) {
    ov_index_[e].push_back(static_cast<std::uint32_t>(
        sets_->num_sets() + ov_row));
  }
}

void IncrementalCoverageOracle::do_apply_erase(ElementId id) {
  if (id >= residual_.size()) {
    throw std::out_of_range("apply_erase: unknown ground id " +
                            std::to_string(id));
  }
  // An erase is a ground-set exclusion: the corpus tombstones the id and
  // ground enumeration skips it, so no residual or coverage state changes.
}

std::unique_ptr<SubmodularOracle> IncrementalCoverageOracle::do_clone()
    const {
  return std::make_unique<IncrementalCoverageOracle>(*this);
}

std::size_t IncrementalCoverageOracle::do_state_bytes() const noexcept {
  std::size_t ov_index_bytes = 0;
  for (const auto& [element, sets] : ov_index_) {
    (void)element;
    ov_index_bytes += sizeof(std::uint32_t) +
                      sets.capacity() * sizeof(std::uint32_t);
  }
  return covered_.capacity() * sizeof(std::uint8_t) +
         residual_.capacity() * sizeof(std::uint32_t) +
         ov_offsets_.capacity() * sizeof(std::uint64_t) +
         ov_entries_.capacity() * sizeof(std::uint32_t) + ov_index_bytes;
}

}  // namespace bds
