// The decrease-only max-heap behind Minoux's lazy greedy (core/greedy.h).
//
// By submodularity, a marginal gain Δ(x, S) computed at a committed prefix
// S is an upper bound on Δ(x, S') for every superset S' ⊇ S, so within one
// selection a stale heap key only over-estimates. Deterministic
// tie-breaking (bound desc, then pool index asc) makes lazy selection
// *bit-identical* to an eager full re-scan: a stale entry only skips
// re-evaluation when its bound already loses to the current best exact
// gain, and on equal keys the earlier candidate pops first — exactly
// eager's tie rule.
//
// Bounds live for one selection only: every lazy_greedy call starts from a
// fresh scan of its candidates. Staleness is keyed by committed-prefix
// length, not iteration stamps: an entry recorded at prefix p is current
// iff the selection's committed prefix is still p.
#pragma once

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

namespace bds::detail {

// Declared, never defined: lazy_greedy_bounded keeps a store parameter in
// its signature, and only a null pointer can be passed to it.
class BoundStore;

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

}  // namespace bds::detail
