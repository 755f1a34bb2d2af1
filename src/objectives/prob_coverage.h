// Probabilistic (soft) coverage: each item i covers universe element u only
// with probability p_{i,u}; the objective is the expected covered weight
//
//   f(S) = Σ_u w_u · (1 − Π_{i∈S} (1 − p_{i,u})),
//
// a classic monotone submodular function (independent-cascade-style
// influence on a bipartite graph, soft sensor coverage, weighted keyword
// coverage with click-through rates). Strictly generalizes CoverageOracle
// (p ∈ {0,1}) and gives the library an objective whose marginal gains never
// hit zero exactly — useful for exercising the algorithms away from the
// saturation regime of hard coverage.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// CSR-packed bipartite item -> (element, probability) lists.
//
// Like SetSystem, either owns its CSR arrays (the validating constructor)
// or borrows them from externally owned storage — the sections of an
// mmap'd dataset file (data/io.h `map_prob_set_system`) — held alive by
// the `storage` handle. Entry's {u32, f32} layout is the on-disk layout.
class ProbSetSystem {
 public:
  struct Entry {
    std::uint32_t element;
    float probability;  // in [0, 1]
  };
  static_assert(sizeof(Entry) == 8 && alignof(Entry) == 4,
                "Entry is the on-disk section-B record");
  static_assert(std::is_trivially_copyable_v<Entry>,
                "Entry must be mappable from raw bytes");

  // Throws std::out_of_range for elements >= universe_size and
  // std::invalid_argument for probabilities outside [0, 1].
  ProbSetSystem(std::vector<std::vector<Entry>> sets,
                std::uint32_t universe_size);

  // Zero-copy view over an already-validated CSR (what save_prob_set_system
  // writes: offsets ascending from 0 to num_entries, probabilities in
  // [0, 1], no duplicate element within a set). `offsets` has num_sets + 1
  // entries; `storage` owns the backing bytes and is retained for the
  // ProbSetSystem's lifetime. Throws std::invalid_argument on a null array
  // or an offsets/num_entries mismatch.
  ProbSetSystem(const std::uint64_t* offsets, std::size_t num_sets,
                const Entry* entries, std::size_t num_entries,
                std::uint32_t universe_size,
                std::shared_ptr<const void> storage);

  std::size_t num_sets() const noexcept { return num_sets_; }
  std::uint32_t universe_size() const noexcept { return universe_size_; }
  std::size_t total_entries() const noexcept { return num_entries_; }
  // True when the CSR aliases external storage (an mmap'd file section).
  bool borrows_storage() const noexcept { return storage_ != nullptr; }

  std::span<const Entry> set_entries(ElementId set_id) const noexcept {
    const std::uint64_t* const offsets = offsets_data();
    return std::span<const Entry>(
        entries_data() + offsets[set_id],
        static_cast<std::size_t>(offsets[set_id + 1] - offsets[set_id]));
  }

  // Raw CSR arrays for batched kernels (offsets has num_sets()+1 entries).
  const std::uint64_t* offsets_data() const noexcept {
    return storage_ ? ext_offsets_ : owned_offsets_.data();
  }
  const Entry* entries_data() const noexcept {
    return storage_ ? ext_entries_ : owned_entries_.data();
  }

 private:
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<Entry> owned_entries_;
  std::shared_ptr<const void> storage_;  // borrow mode: keep-alive
  const std::uint64_t* ext_offsets_ = nullptr;
  const Entry* ext_entries_ = nullptr;
  std::size_t num_sets_ = 0;
  std::size_t num_entries_ = 0;
  std::uint32_t universe_size_;
};

class ProbCoverageOracle final : public SubmodularOracle {
 public:
  // Unit weights.
  explicit ProbCoverageOracle(std::shared_ptr<const ProbSetSystem> sets);
  // Per-element non-negative weights; weights.size() must equal the
  // universe size (throws std::invalid_argument otherwise).
  ProbCoverageOracle(std::shared_ptr<const ProbSetSystem> sets,
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
  std::shared_ptr<const ProbSetSystem> sets_;
  std::shared_ptr<const std::vector<double>> weights_;  // may be null (unit)
  // Π_{i∈S} (1 − p_{i,u}) per universe element: 1.0 initially.
  std::vector<double> uncovered_prob_;
  // Set-function semantics: members contribute exactly once; re-adding an
  // already-selected item gains nothing.
  std::vector<std::uint8_t> in_set_;
  double total_weight_ = 0.0;

  double weight_of(std::uint32_t element) const noexcept {
    return weights_ ? (*weights_)[element] : 1.0;
  }
};

}  // namespace bds
