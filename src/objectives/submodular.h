// The submodular-oracle abstraction every algorithm in src/core is written
// against.
//
// An oracle is *stateful*: it carries a current solution set S and answers
// marginal-gain queries Δ(x, S) = f(S ∪ {x}) − f(S) against it. Statefulness
// is what makes the objectives fast — coverage keeps a covered bitmap,
// exemplar clustering keeps a min-distance array — so a gain query costs
// O(|set x|) or O(n_sample) instead of re-evaluating f from scratch.
//
// The distributed algorithms rely on clone(): when round ℓ starts, the
// coordinator's oracle holds exactly the accumulated solution A_{ℓ-1}; each
// logical machine receives a clone of it (same set state, fresh evaluation
// counter) and greedily extends its own copy over its shard. Evaluation
// counters feed the cluster simulator's work accounting.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/element.h"

namespace bds {

class SubmodularOracle {
 public:
  virtual ~SubmodularOracle() = default;

  // Δ(x, S) for the current S. Counts one oracle evaluation. For a monotone
  // f this is always >= 0 (sampled oracles may return small negatives from
  // estimation noise; callers clamp where it matters).
  double gain(ElementId x) {
    ++evals_;
    return do_gain(x);
  }

  // Batched marginal gains: out[i] = Δ(xs[i], S) for the current S.
  // Counts exactly xs.size() oracle evaluations — identical accounting to
  // xs.size() gain() calls — and produces exactly the same values (same
  // floating-point accumulation order) as the scalar path, so selections
  // driven by batched gains are bit-identical to scalar ones.
  // Precondition: out.size() >= xs.size().
  void gain_batch(std::span<const ElementId> xs, std::span<double> out) {
    evals_ += xs.size();
    do_gain_batch(xs, out);
  }

  // Allocating convenience overload.
  std::vector<double> gain_batch(std::span<const ElementId> xs) {
    std::vector<double> out(xs.size());
    gain_batch(xs, std::span<double>(out));
    return out;
  }

  // Commits x into S and returns its realized marginal gain.
  // Counts one oracle evaluation. Adding an element twice is permitted and
  // contributes zero gain.
  double add(ElementId x) {
    ++evals_;
    const double g = do_add(x);
    set_.push_back(x);
    value_ += g;
    return g;
  }

  // f(S) for the current S (for sampled oracles: the current estimate).
  double value() const noexcept { return value_; }

  // The committed solution, in insertion order.
  const std::vector<ElementId>& current_set() const noexcept { return set_; }

  // Number of selectable elements (ids are [0, ground_size())).
  virtual std::size_t ground_size() const noexcept = 0;

  // A trivial upper bound on f over *any* set, if the objective has one
  // (coverage: universe size). +inf when no such bound exists.
  virtual double max_value() const noexcept {
    return std::numeric_limits<double>::infinity();
  }

  // Deep copy: identical set state, evaluation counter reset to zero.
  std::unique_ptr<SubmodularOracle> clone() const {
    auto copy = do_clone();
    copy->evals_ = 0;
    return copy;
  }

  // The oracle a distributed worker runs for `shard`: a clone of this
  // oracle (same committed set and value, zero evaluation counter). Every
  // worker path — in-process, bds_worker, the bench probes — goes through
  // here, so this is the one place worker state is built. A clone carries
  // O(ground)-sized mutable state (coverage: one byte per universe element);
  // DESIGN.md §"Worker memory model" states the trade.
  std::unique_ptr<SubmodularOracle> shard_view(
      std::span<const ElementId> shard) const {
    (void)shard;
    return clone();
  }

  // Heap footprint in bytes of this oracle's per-instance mutable state —
  // what clone() would copy — excluding structures shared immutably across
  // clones (CSR arrays, point matrices, weights). Feeds the cluster
  // simulator's bytes_cloned / peak_worker_state_bytes accounting.
  std::size_t state_bytes() const noexcept {
    return do_state_bytes() + set_.capacity() * sizeof(ElementId);
  }

  // --- dynamic-corpus support (data/dynamic.h) ---

  // Epoch of the data::DynamicCorpus snapshot this oracle answers for
  // (0 for frozen corpora). Clones inherit it via the copy constructor.
  // data::require_epoch() turns a mismatch into a StaleOracleError naming
  // the corpus, so an oracle can never silently answer for a ground set
  // that has moved on.
  std::uint64_t corpus_epoch() const noexcept { return corpus_epoch_; }
  void stamp_corpus_epoch(std::uint64_t epoch) noexcept {
    corpus_epoch_ = epoch;
  }

  // True when the oracle absorbs corpus mutations in place (unweighted
  // coverage: O(degree) via the inverted index). False means callers must
  // rebuild from the mutated corpus — the rebuild-on-epoch-change fallback
  // behind the same interface (data::make_dynamic_oracle).
  virtual bool supports_dynamic_updates() const noexcept { return false; }

  // Structural updates for dynamic corpora: a freshly inserted ground
  // element with its payload, or a tombstoned one. `new_epoch` restamps
  // the oracle in the same call so state and version move together. Both
  // throw std::logic_error when the oracle has no incremental path (see
  // supports_dynamic_updates).
  void apply_insert(ElementId id, std::span<const std::uint32_t> items,
                    std::uint64_t new_epoch) {
    do_apply_insert(id, items);
    corpus_epoch_ = new_epoch;
  }
  void apply_erase(ElementId id, std::uint64_t new_epoch) {
    do_apply_erase(id);
    corpus_epoch_ = new_epoch;
  }

  // Evaluations (gain + add calls) performed since construction/clone.
  std::uint64_t evals() const noexcept { return evals_; }

  // Zeroes the evaluation counter (e.g. after replaying a seed set into a
  // freshly built oracle, so accounting matches a clone of the same state).
  void reset_evals() noexcept { evals_ = 0; }

 protected:
  SubmodularOracle() = default;
  SubmodularOracle(const SubmodularOracle&) = default;
  SubmodularOracle& operator=(const SubmodularOracle&) = default;

  virtual double do_gain(ElementId x) const = 0;
  virtual double do_add(ElementId x) = 0;
  virtual std::unique_ptr<SubmodularOracle> do_clone() const = 0;

  // Per-instance mutable state footprint, excluding the base-class set
  // (added by state_bytes()). 0 means "unknown / negligible".
  virtual std::size_t do_state_bytes() const noexcept { return 0; }

  // Hooks behind apply_insert / apply_erase. The defaults refuse: an
  // oracle without an incremental structure must be rebuilt, and silently
  // accepting the call would desynchronize it from its corpus.
  virtual void do_apply_insert(ElementId id,
                               std::span<const std::uint32_t> items) {
    (void)id;
    (void)items;
    throw std::logic_error(
        "apply_insert: oracle has no incremental update path; rebuild it "
        "from the mutated corpus (data::make_dynamic_oracle)");
  }
  virtual void do_apply_erase(ElementId id) {
    (void)id;
    throw std::logic_error(
        "apply_erase: oracle has no incremental update path; rebuild it "
        "from the mutated corpus (data::make_dynamic_oracle)");
  }

  // Kernel behind gain_batch(). The default is the scalar loop (one
  // virtual do_gain per element); objectives with cache-friendly batched
  // kernels override it. Overrides must return exactly the values do_gain
  // would — same accumulation order, element by element.
  virtual void do_gain_batch(std::span<const ElementId> xs,
                             std::span<double> out) const {
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = do_gain(xs[i]);
  }

 private:
  std::vector<ElementId> set_;
  double value_ = 0.0;
  std::uint64_t evals_ = 0;
  std::uint64_t corpus_epoch_ = 0;
};

// Clones `proto` and commits every element of `seed` into the copy.
// This is the "oracle for g(B) = f(B ∪ S) − f(S)" the analysis in §2.1 works
// with: gains of the returned oracle are exactly marginals on top of `seed`.
std::unique_ptr<SubmodularOracle> seeded_clone(
    const SubmodularOracle& proto, std::span<const ElementId> seed);

// Evaluates f(S) from scratch on a clone of `proto` (which may already hold
// elements; they are included). Useful for tests and exact reporting.
double evaluate_set(const SubmodularOracle& proto,
                    std::span<const ElementId> extra);

}  // namespace bds
