// Stale-bound pruning substrate for cross-round lazy greedy selection.
//
// By submodularity, a marginal gain Δ(x, S) computed at any committed prefix
// S is a valid *upper bound* on Δ(x, S') for every superset S' ⊇ S. The
// engine's committed solution only grows — across iterations of one greedy
// run, across coordinator filter stages, and across rounds — so every gain
// the system ever evaluates is a reusable certificate. This header holds the
// pieces that carry those certificates around:
//
//  * BoundHeap      — the decrease-only max-heap lazy selection pops from.
//                     Deterministic tie-breaking (bound desc, then pool
//                     index asc) makes lazy selection *bit-identical* to an
//                     eager full re-scan: a stale entry only skips
//                     re-evaluation when its bound already loses to the
//                     current best exact gain, and on equal keys the earlier
//                     candidate pops first — exactly eager's tie rule.
//  * BoundStore     — engine-lifetime, element-keyed bound table. Workers
//                     and coordinator filters deposit the exact gains they
//                     computed (tagged with the committed-prefix length);
//                     later rounds seed their heaps from it instead of
//                     re-scanning. Entries whose prefix equals the current
//                     committed prefix are *exact* (clones give
//                     bit-identical gains) and need no refresh at all.
//  * SingletonBoundCache — corpus-lifetime, thread-safe cache of prefix-0
//                     singleton gains f({x}), shared across queries in the
//                     serve layer so a cache-miss query warm-starts from
//                     certified bounds rather than cold scans.
//
// Staleness is keyed by committed-prefix length, not iteration stamps: an
// entry recorded at prefix p is current iff the consumer's committed prefix
// is still p, stale (but valid as an upper bound) for any longer prefix.
//
// The whole substrate is an eval-count optimization only — it never changes
// which elements are selected. BDS_LAZY=off (or a ForcedLazy(false) scope)
// disables cross-round carrying entirely, restoring the per-run Minoux
// accounting that predates the substrate.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "util/element.h"

namespace bds::detail {

// Whether cross-round bound carrying is enabled: BDS_LAZY environment
// variable (default on; "off"/"0"/"false" disable), read once per process,
// overridable in-process with ForcedLazy.
bool lazy_enabled() noexcept;

// RAII in-process override for tests and benchmarks (nests; restores the
// previous override on destruction). Do not construct concurrently with
// engine runs on other threads.
class ForcedLazy {
 public:
  explicit ForcedLazy(bool enabled) noexcept;
  ~ForcedLazy();
  ForcedLazy(const ForcedLazy&) = delete;
  ForcedLazy& operator=(const ForcedLazy&) = delete;

 private:
  int saved_;
};

// One certified bound: an exact marginal gain computed when the committed
// solution had `prefix` elements — an upper bound for any longer prefix.
struct BoundEntry {
  double bound = 0.0;
  std::size_t prefix = 0;
};

// The decrease-only max-heap behind lazy selection. Keys are (bound, pool
// index); ties break toward the smaller index, matching eager greedy's
// earlier-candidate-wins rule, so refresh-until-current reproduces eager's
// argmax bitwise. "Decrease-only" is the submodularity contract on callers:
// a re-pushed entry's bound never exceeds the bound it was popped with.
class BoundHeap {
 public:
  struct Item {
    double bound = 0.0;
    std::size_t idx = 0;     // position in the caller's candidate pool
    std::size_t prefix = 0;  // committed-prefix length of the bound
  };

  // Heapifies a whole batch at once. The comparator is a total order
  // (indices are distinct), so bulk loading pops in exactly the order
  // incremental pushes would.
  void bulk_load(std::vector<Item> items) {
    heap_ = Heap(Less{}, std::move(items));
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  const Item& top() const { return heap_.top(); }
  void push(const Item& item) { heap_.push(item); }

  Item pop() {
    Item item = heap_.top();
    heap_.pop();
    return item;
  }

 private:
  struct Less {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.bound != b.bound) return a.bound < b.bound;
      return a.idx > b.idx;
    }
  };
  using Heap = std::priority_queue<Item, std::vector<Item>, Less>;
  Heap heap_;
};

// Thread-safe corpus-lifetime cache of prefix-0 singleton gains f({x}).
// First write wins; the objective is deterministic (cache_safe), so every
// writer stores the same bits and the "race" is benign by construction.
// Concurrent serve flights over one corpus share a single instance.
class SingletonBoundCache {
 public:
  // Records f({x}) computed on an empty committed set. Lazily sizes the
  // table to hold x.
  void record(ElementId x, double gain);

  // True (and *gain filled) when f({x}) has been recorded.
  bool lookup(ElementId x, double* gain) const;

  // Number of elements with a recorded singleton gain.
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> gains_;
  std::vector<unsigned char> valid_;
  std::size_t count_ = 0;
};

// Element-keyed bound table owned by one engine run. Single-writer: the
// engine records between rounds (workers only *read* it during the map
// phase, which is what keeps retried attempts pure functions of
// (machine, shard)). Keeps the entry with the largest prefix per element —
// by submodularity that is the tightest certificate.
class BoundStore {
 public:
  // Sizes the table for element ids in [0, ground_size) and drops any
  // previous entries. The singleton attachment survives.
  void reset(std::size_t ground_size);

  // Records an exact gain computed at `prefix`. Kept only when no tighter
  // (larger-prefix) entry exists. Prefix-0 gains are also harvested into
  // the attached SingletonBoundCache, if any.
  void record(ElementId x, double bound, std::size_t prefix);

  // Fills *out with the tightest certificate for x: the own entry when one
  // exists, else the attached singleton cache's prefix-0 gain. False when
  // neither knows x.
  bool lookup(ElementId x, BoundEntry* out) const;

  // Drops every own entry (fault/degradation invalidation). The singleton
  // attachment survives — f({x}) does not depend on delivery outcomes.
  void clear();

  // Cross-query warm start: consult (and feed) a corpus-lifetime singleton
  // cache. Pass nullptr to detach.
  void attach_singletons(std::shared_ptr<SingletonBoundCache> cache) {
    singletons_ = std::move(cache);
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept {
    return count_ == 0 &&
           (singletons_ == nullptr || singletons_->size() == 0);
  }

 private:
  std::vector<BoundEntry> entries_;
  std::vector<unsigned char> valid_;
  std::size_t count_ = 0;
  std::shared_ptr<SingletonBoundCache> singletons_;
};

}  // namespace bds::detail
