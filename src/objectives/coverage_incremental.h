// Inverted-index incremental gains for unweighted coverage (the oracle
// behind dynamic corpora, data/dynamic.h).
//
// A plain CoverageOracle answers gain(x) by scanning set x and counting
// uncovered elements — O(|set x|) per query. A greedy filter over a pool P
// therefore pays O(k · Σ_{x∈P} |set x|): every one of the k adds rescans the
// whole pool. IncrementalCoverageOracle stores each set's current marginal
// gain (its *residual* — the number of its elements still uncovered) and an
// element → sets inverted index (the CSR transpose). Then
//
//   gain(x)  = residual[x]                                  — O(1),
//   add(x)   = for each newly covered element e of set x,
//              decrement residual[s] for every set s ∋ e    — O(Σ updates),
//
// and total filter work drops to O(Σ|set| + #residual updates): each
// (element, set) incidence is charged at most once over the whole run, when
// that element flips to covered.
//
// Exactness: residuals are integer counts, so decrements are exact and
// gain() is bit-identical to CoverageOracle::gain() at every step. This is
// also why it covers ONLY unweighted coverage — a floating-point weighted
// residual would drift away from the freshly-summed gain under repeated
// decrements, breaking the bit-identical contract, so the weighted and
// probabilistic oracles keep their scan-based gains.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "objectives/coverage.h"
#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// Immutable element → sets transpose of a SetSystem, CSR-packed. Shared
// read-only across clones of the incremental oracle.
class InvertedIndex {
 public:
  explicit InvertedIndex(const SetSystem& sets);

  std::span<const std::uint32_t> sets_of(std::uint32_t element)
      const noexcept {
    return std::span<const std::uint32_t>(
        entries_.data() + offsets_[element],
        offsets_[element + 1] - offsets_[element]);
  }

  std::size_t bytes() const noexcept {
    return offsets_.capacity() * sizeof(std::size_t) +
           entries_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::size_t> offsets_;    // universe_size + 1
  std::vector<std::uint32_t> entries_;  // set ids, grouped by element
};

// Drop-in replacement for an unweighted CoverageOracle with O(1) gains.
// Same values, same evaluation accounting; only the cost model changes.
//
// This is also the repo's one oracle with an *incremental dynamic path*
// (supports_dynamic_updates): a corpus insert appends one residual counter,
// one overlay-CSR row, and one inverted-index posting per item — O(degree)
// — while the base SetSystem (possibly an mmap'd borrow) stays untouched.
// Because residuals are integers, a replayed mutation log yields state
// bit-identical to an oracle built from a materialized snapshot, which is
// what the dynamic-vs-rebuild identity tests pin. An erase is a ground-set
// exclusion (the id is tombstoned by the DynamicCorpus and never queried
// again); it costs nothing here and leaves other residuals untouched.
class IncrementalCoverageOracle final : public SubmodularOracle {
 public:
  // Builds the inverted index from `sets`.
  explicit IncrementalCoverageOracle(std::shared_ptr<const SetSystem> sets);
  // Shares a prebuilt index (must be the transpose of `sets`).
  IncrementalCoverageOracle(std::shared_ptr<const SetSystem> sets,
                            std::shared_ptr<const InvertedIndex> index);

  std::size_t ground_size() const noexcept override {
    return residual_.size();
  }
  double max_value() const noexcept override {
    return static_cast<double>(sets_->universe_size());
  }
  std::uint64_t covered_count() const noexcept { return covered_count_; }
  bool supports_dynamic_updates() const noexcept override { return true; }

  // Members of set `x`, whether it lives in the base CSR or the overlay.
  std::span<const std::uint32_t> set_items(ElementId x) const;

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
  std::shared_ptr<const SetSystem> sets_;
  std::shared_ptr<const InvertedIndex> index_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::uint32_t> residual_;  // current marginal gain per set
  std::uint64_t covered_count_ = 0;
  // Dynamic overlay: sets appended after construction, ids starting at
  // sets_->num_sets(). ov_index_ is the overlay's element → sets posting
  // list (the inverted index's growable sibling); empty until the first
  // insert, so the frozen fast path never consults it.
  std::vector<std::uint64_t> ov_offsets_{0};
  std::vector<std::uint32_t> ov_entries_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> ov_index_;
};

}  // namespace bds
