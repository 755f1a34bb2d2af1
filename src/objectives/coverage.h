// Coverage maximization (§4.1): the ground set is a family of sets over a
// universe U; f(S) = |∪_{i∈S} set_i| (or the weighted sum). Selecting an
// element means selecting a set of the family.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// Immutable CSR-packed family of sets over a universe [0, universe_size).
// Shared read-only by every oracle clone, so the per-clone state is just the
// covered bitmap.
//
// Two storage modes behind one interface: the owning constructor packs the
// CSR into heap vectors (canonicalizing as it goes), while the borrowing
// constructor aliases externally owned arrays — in practice the sections of
// an mmap'd dataset file (data/io.h `map_set_system`), held alive by the
// `storage` handle. Every accessor reads through the same pointers either
// way, so oracles are bit-identical across both backings.
class SetSystem {
 public:
  // Builds from explicit sets. Duplicate entries within a set are
  // deduplicated at construction (they count once for coverage). Throws
  // std::out_of_range if any element is >= universe_size.
  SetSystem(std::vector<std::vector<std::uint32_t>> sets,
            std::uint32_t universe_size);

  // Zero-copy view over an already-canonical CSR (offsets ascending from 0
  // to num_entries, per-set entries sorted unique, elements in range —
  // what save_set_system writes). `offsets` has num_sets + 1 entries;
  // `storage` owns the backing bytes (mapping or holder) and is retained
  // for the SetSystem's lifetime. Throws std::invalid_argument on a null
  // array or an offsets/num_entries mismatch.
  SetSystem(const std::uint64_t* offsets, std::size_t num_sets,
            const std::uint32_t* entries, std::size_t num_entries,
            std::uint32_t universe_size, std::shared_ptr<const void> storage);

  std::size_t num_sets() const noexcept { return num_sets_; }
  std::uint32_t universe_size() const noexcept { return universe_size_; }
  // Sum of set sizes (the "total size" the paper quotes per dataset).
  std::size_t total_size() const noexcept { return num_entries_; }
  // Allocated capacity of the entry array. Regression surface: the
  // constructor reserves post-dedup, so this must equal total_size().
  std::size_t entries_capacity() const noexcept {
    return storage_ ? num_entries_ : owned_entries_.capacity();
  }
  // True when the CSR aliases external storage (an mmap'd file section).
  bool borrows_storage() const noexcept { return storage_ != nullptr; }

  std::span<const std::uint32_t> set_items(ElementId set_id) const noexcept {
    const std::uint64_t* const offsets = offsets_data();
    return std::span<const std::uint32_t>(
        entries_data() + offsets[set_id],
        static_cast<std::size_t>(offsets[set_id + 1] - offsets[set_id]));
  }

  std::size_t set_size(ElementId set_id) const noexcept {
    const std::uint64_t* const offsets = offsets_data();
    return static_cast<std::size_t>(offsets[set_id + 1] - offsets[set_id]);
  }

  // Raw CSR arrays for batched kernels (offsets has num_sets()+1 entries).
  const std::uint64_t* offsets_data() const noexcept {
    return storage_ ? ext_offsets_ : owned_offsets_.data();
  }
  const std::uint32_t* entries_data() const noexcept {
    return storage_ ? ext_entries_ : owned_entries_.data();
  }

 private:
  std::vector<std::uint64_t> owned_offsets_;    // num_sets + 1 (owning mode)
  std::vector<std::uint32_t> owned_entries_;    // concatenated set members
  std::shared_ptr<const void> storage_;         // borrow mode: keep-alive
  const std::uint64_t* ext_offsets_ = nullptr;  // borrow mode: CSR aliases
  const std::uint32_t* ext_entries_ = nullptr;
  std::size_t num_sets_ = 0;
  std::size_t num_entries_ = 0;
  std::uint32_t universe_size_;
};

// Unweighted coverage oracle. gain(i) = number of not-yet-covered universe
// elements of set i: O(|set i|) per evaluation.
//
// It is also the oracle of dynamic set-system corpora (data/dynamic.h).
// apply_insert appends the new set as a row of an overlay CSR that this
// oracle owns, with ids after the base sets: O(degree). Clones copy the
// overlay; the base is never written, so a mapped base stays zero-copy. An
// erase is a ground-set exclusion (the corpus tombstones the id and never
// offers it again), so apply_erase only range-checks the id. Gains are
// integer counts over the same rows a snapshot rebuild stores, so an oracle
// that replayed a mutation log answers bit for bit what one built over
// DynamicCorpus::materialize_sets() answers.
class CoverageOracle final : public SubmodularOracle {
 public:
  explicit CoverageOracle(std::shared_ptr<const SetSystem> sets);

  std::size_t ground_size() const noexcept override {
    return sets_->num_sets() + ov_ends_.size();
  }
  double max_value() const noexcept override {
    return static_cast<double>(sets_->universe_size());
  }
  bool supports_dynamic_updates() const noexcept override { return true; }

  std::uint64_t covered_count() const noexcept { return covered_count_; }

 protected:
  double do_gain(ElementId x) const override;
  double do_add(ElementId x) override;
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override;
  std::unique_ptr<SubmodularOracle> do_clone() const override;
  std::size_t do_state_bytes() const noexcept override;
  void do_apply_insert(ElementId id,
                       std::span<const std::uint32_t> items) override;
  void do_apply_erase(ElementId id) override;

 private:
  // Members of set x: a base row, or overlay row x − num_sets().
  std::span<const std::uint32_t> row(ElementId x) const noexcept;

  std::shared_ptr<const SetSystem> sets_;
  std::vector<std::uint8_t> covered_;
  std::uint64_t covered_count_ = 0;
  // Inserted sets, CSR-packed: row r ends at ov_ends_[r]. Both stay empty
  // (unallocated) on a frozen corpus.
  std::vector<std::uint64_t> ov_ends_;
  std::vector<std::uint32_t> ov_entries_;
};

// Weighted coverage: each universe element has a non-negative weight;
// f(S) = total weight covered.
class WeightedCoverageOracle final : public SubmodularOracle {
 public:
  // Preconditions: weights.size() == sets->universe_size(), weights >= 0.
  WeightedCoverageOracle(std::shared_ptr<const SetSystem> sets,
                         std::vector<double> weights);

  std::size_t ground_size() const noexcept override {
    return sets_->num_sets();
  }
  double max_value() const noexcept override { return total_weight_; }

 protected:
  double do_gain(ElementId x) const override;
  double do_add(ElementId x) override;
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override;
  std::unique_ptr<SubmodularOracle> do_clone() const override;
  std::size_t do_state_bytes() const noexcept override;

 private:
  std::shared_ptr<const SetSystem> sets_;
  std::shared_ptr<const std::vector<double>> weights_;  // shared, immutable
  std::vector<std::uint8_t> covered_;
  double total_weight_ = 0.0;
};

}  // namespace bds
