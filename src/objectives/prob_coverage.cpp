#include "objectives/prob_coverage.h"

#include <algorithm>
#include <stdexcept>

namespace bds {

namespace {

// Batched probabilistic-coverage gain over a CSR row: sums
// w_u · q_u · p in original entry order for kProbTile candidates at once.
// Each candidate keeps its own accumulator (so every per-candidate sum is
// bit-identical to the scalar gain() loop), but interleaving kProbTile
// independent FP add chains hides the loop-carried add latency that made
// the naive one-candidate-at-a-time batch slower than scalar gain calls.
inline constexpr std::size_t kProbTile = 4;

// Candidates already selected (in_set) gain 0.
void prob_gain_batch_csr(std::span<const ElementId> xs, std::span<double> out,
                         const std::uint64_t* offsets,
                         const ProbSetSystem::Entry* entries,
                         const double* uncovered, const double* w,
                         const std::uint8_t* in_set) {
  std::size_t i = 0;
  for (; i + kProbTile <= xs.size(); i += kProbTile) {
    std::size_t cursor[kProbTile];
    std::size_t end[kProbTile];
    double acc[kProbTile];
    std::size_t shortest = ~std::size_t{0};
    for (std::size_t t = 0; t < kProbTile; ++t) {
      acc[t] = 0.0;
      const std::size_t row = xs[i + t];
      if (in_set[row] != 0) {
        cursor[t] = 0;
        end[t] = 0;
      } else {
        cursor[t] = static_cast<std::size_t>(offsets[row]);
        end[t] = static_cast<std::size_t>(offsets[row + 1]);
      }
      shortest = std::min(shortest, end[t] - cursor[t]);
    }
    // Lockstep over the shared prefix: four independent add chains.
    if (w == nullptr) {
      for (std::size_t step = 0; step < shortest; ++step) {
        for (std::size_t t = 0; t < kProbTile; ++t) {
          const ProbSetSystem::Entry e = entries[cursor[t] + step];
          acc[t] += uncovered[e.element] * double(e.probability);
        }
      }
      for (std::size_t t = 0; t < kProbTile; ++t) {
        for (std::size_t e = cursor[t] + shortest; e < end[t]; ++e) {
          acc[t] += uncovered[entries[e].element] *
                    double(entries[e].probability);
        }
      }
    } else {
      for (std::size_t step = 0; step < shortest; ++step) {
        for (std::size_t t = 0; t < kProbTile; ++t) {
          const ProbSetSystem::Entry e = entries[cursor[t] + step];
          acc[t] += w[e.element] * uncovered[e.element] *
                    double(e.probability);
        }
      }
      for (std::size_t t = 0; t < kProbTile; ++t) {
        for (std::size_t e = cursor[t] + shortest; e < end[t]; ++e) {
          acc[t] += w[entries[e].element] * uncovered[entries[e].element] *
                    double(entries[e].probability);
        }
      }
    }
    for (std::size_t t = 0; t < kProbTile; ++t) out[i + t] = acc[t];
  }
  // Remainder: plain per-candidate scan (identical accumulation order).
  for (; i < xs.size(); ++i) {
    const std::size_t row = xs[i];
    if (in_set[row] != 0) {
      out[i] = 0.0;
      continue;
    }
    double gain = 0.0;
    if (w == nullptr) {
      for (auto e = static_cast<std::size_t>(offsets[row]);
           e < static_cast<std::size_t>(offsets[row + 1]); ++e) {
        gain += uncovered[entries[e].element] * double(entries[e].probability);
      }
    } else {
      for (auto e = static_cast<std::size_t>(offsets[row]);
           e < static_cast<std::size_t>(offsets[row + 1]); ++e) {
        gain += w[entries[e].element] * uncovered[entries[e].element] *
                double(entries[e].probability);
      }
    }
    out[i] = gain;
  }
}

}  // namespace

ProbSetSystem::ProbSetSystem(std::vector<std::vector<Entry>> sets,
                             std::uint32_t universe_size)
    : universe_size_(universe_size) {
  owned_offsets_.reserve(sets.size() + 1);
  owned_offsets_.push_back(0);
  std::size_t total = 0;
  for (const auto& s : sets) total += s.size();
  owned_entries_.reserve(total);
  std::vector<std::uint32_t> scratch;
  for (const auto& s : sets) {
    for (const Entry& e : s) {
      if (e.element >= universe_size) {
        throw std::out_of_range("ProbSetSystem: element beyond universe");
      }
      if (e.probability < 0.0f || e.probability > 1.0f) {
        throw std::invalid_argument(
            "ProbSetSystem: probability outside [0, 1]");
      }
      owned_entries_.push_back(e);
    }
    // Reject duplicate elements within one set: the incremental gain()
    // formula assumes each element appears at most once per item.
    scratch.clear();
    for (const Entry& e : s) scratch.push_back(e.element);
    std::sort(scratch.begin(), scratch.end());
    if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end()) {
      throw std::invalid_argument(
          "ProbSetSystem: duplicate element within a set");
    }
    owned_offsets_.push_back(owned_entries_.size());
  }
  num_sets_ = sets.size();
  num_entries_ = owned_entries_.size();
}

ProbSetSystem::ProbSetSystem(const std::uint64_t* offsets,
                             std::size_t num_sets, const Entry* entries,
                             std::size_t num_entries,
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
    throw std::invalid_argument("ProbSetSystem: null external CSR storage");
  }
  if (offsets[0] != 0 || offsets[num_sets] != num_entries) {
    throw std::invalid_argument("ProbSetSystem: external CSR offsets corrupt");
  }
}

ProbCoverageOracle::ProbCoverageOracle(
    std::shared_ptr<const ProbSetSystem> sets)
    : sets_(std::move(sets)),
      uncovered_prob_(sets_->universe_size(), 1.0),
      in_set_(sets_->num_sets(), 0),
      total_weight_(static_cast<double>(sets_->universe_size())) {}

ProbCoverageOracle::ProbCoverageOracle(
    std::shared_ptr<const ProbSetSystem> sets, std::vector<double> weights)
    : sets_(std::move(sets)),
      uncovered_prob_(sets_->universe_size(), 1.0),
      in_set_(sets_->num_sets(), 0) {
  if (weights.size() != sets_->universe_size()) {
    throw std::invalid_argument(
        "ProbCoverageOracle: one weight per universe element required");
  }
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "ProbCoverageOracle: weights must be non-negative");
    }
    total_weight_ += w;
  }
  weights_ = std::make_shared<const std::vector<double>>(std::move(weights));
}

double ProbCoverageOracle::do_gain(ElementId x) const {
  if (in_set_[x]) return 0.0;  // set semantics: members re-add for free
  // Adding x multiplies each touched element's uncovered probability by
  // (1 − p): the expected newly covered weight is w_u · q_u · p.
  double gain = 0.0;
  for (const auto& entry : sets_->set_entries(x)) {
    gain += weight_of(entry.element) * uncovered_prob_[entry.element] *
            double(entry.probability);
  }
  return gain;
}

void ProbCoverageOracle::do_gain_batch(std::span<const ElementId> xs,
                                       std::span<double> out) const {
  prob_gain_batch_csr(
      xs, out, sets_->offsets_data(), sets_->entries_data(),
      uncovered_prob_.data(), weights_ ? weights_->data() : nullptr,
      in_set_.data());
}

double ProbCoverageOracle::do_add(ElementId x) {
  if (in_set_[x]) return 0.0;
  in_set_[x] = 1;
  double gain = 0.0;
  for (const auto& entry : sets_->set_entries(x)) {
    const double q = uncovered_prob_[entry.element];
    gain += weight_of(entry.element) * q * double(entry.probability);
    uncovered_prob_[entry.element] = q * (1.0 - double(entry.probability));
  }
  return gain;
}

std::unique_ptr<SubmodularOracle> ProbCoverageOracle::do_clone() const {
  return std::make_unique<ProbCoverageOracle>(*this);
}

std::size_t ProbCoverageOracle::do_state_bytes() const noexcept {
  return uncovered_prob_.capacity() * sizeof(double) +
         in_set_.capacity() * sizeof(std::uint8_t);
}

}  // namespace bds
