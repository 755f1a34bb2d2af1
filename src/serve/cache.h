// The bicriteria summary cache behind the serving layer (serve/service.h).
//
// The paper's bicriteria structure is what makes caching sound: a
// bicriteria output for budget k is a *value-certified superset* — it
// carries enough information to answer any budget k' ≤ k by prefix
// truncation, with a quality certificate, without touching the oracle.
// A CachedSummary therefore stores, for one (corpus, objective, algorithm,
// ε, r, certified-runtime) configuration:
//
//  * the full solution in selection order, verbatim from the producing run;
//  * prefix values f(first i items) for every i, computed by replaying the
//    selection order on a clone of the same oracle prototype — the same
//    add() accumulation the run itself performed, so prefix answers are
//    bit-identical to the corresponding prefix of a direct run at the
//    cached configuration (and the full-length answer is the run's own
//    value, verbatim);
//  * the upper-bound certificate: f(OPT_k) ≤ f(S) + Σ(top-k marginal gains
//    Δ(x, S)) holds for ANY S by monotone submodularity (core/upper_bound.h),
//    so storing the sorted top-budget_k gains as prefix sums gives an O(1)
//    certified bound UB(k') for every k' ≤ budget_k.
//
// ## What "bit-identical" means across budgets
//
// Distributed runs are not budget-prefix-consistent: the machine count
// (⌈√(n/k)⌉ by default) and per-round budgets depend on k, so a fresh run
// at budget k' selects in a different order than the run at k. The serving
// contract is therefore: an exact-budget hit returns the direct run's
// output verbatim (bitwise), and a k' < k answer is bitwise equal to the
// corresponding prefix of the direct run at the *cached* configuration,
// with its certified bound computed for k'. test_serve_cache pins both.
//
// ## Cache key
//
// QueryKey holds exactly the fields that can change a certified answer:
// corpus, objective, algorithm, ε, rounds, machines, and the one
// result-affecting RuntimeOptions field, seed. Budget k is deliberately NOT
// part of the key — that is the reuse. threads / transport / tracing /
// checkpoint sinks are excluded because the determinism substrate
// guarantees they cannot change selections. Runs under an active fault
// plan, a resume, or a round halt are not certified (cache_safe() is
// false) and bypass the cache entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/registry.h"
#include "core/runtime_options.h"
#include "util/element.h"

namespace bds::serve {

// The certified configuration fingerprint. Two queries with equal keys are
// answerable from one summary (at any budget ≤ the cached one).
struct QueryKey {
  std::string corpus;
  // Corpus epoch (data/dynamic.h) the summary was certified against.
  // Frozen corpora stay at 0. A mutation bumps the corpus epoch, so stale
  // summaries simply stop matching — no blanket flush; the mutation path
  // recertifies or drops them explicitly (SummaryService).
  std::uint64_t epoch = 0;
  std::string objective;
  std::string algorithm;
  double epsilon = 0.1;
  std::size_t rounds = 1;
  std::size_t machines = 0;  // 0 = algorithm default
  std::uint64_t seed = 1;

  bool operator==(const QueryKey&) const = default;
};

struct QueryKeyHash {
  std::size_t operator()(const QueryKey& key) const noexcept;
};

// True when `runtime` produces certified, reusable results: no active
// fault plan (degraded runs are not supersets of anything), no resume, no
// round halt. Unsafe runs are computed fresh and never cached.
bool cache_safe(const RuntimeOptions& runtime) noexcept;

// Derives the key from a query's configuration + runtime. `epoch` is the
// corpus's current epoch (0 for frozen corpora).
QueryKey make_key(std::string corpus, std::string objective,
                  std::string algorithm, double epsilon, std::size_t rounds,
                  std::size_t machines, const RuntimeOptions& runtime,
                  std::uint64_t epoch = 0);

// One cached bicriteria summary with its certificate.
struct CachedSummary {
  QueryKey key;
  std::size_t budget_k = 0;  // budget the producing run was computed for

  std::vector<ElementId> solution;  // selection order, verbatim
  double value = 0.0;               // producing run's value, verbatim
  // prefix_value[i] = f(first i items), i ∈ [0, solution.size()]; computed
  // by ordered replay on a clone of the oracle prototype.
  std::vector<double> prefix_value;

  // Certificate: prefix sums of the sorted (descending) top-budget_k
  // marginal gains Δ(x, solution); top_gain_prefix[j] = sum of the largest
  // j gains, j ∈ [0, budget_k].
  std::vector<double> top_gain_prefix;
  double max_value = 0.0;  // oracle's trivial cap (min'ed into the bound)

  std::uint64_t run_evals = 0;    // oracle evals the producing run charged
  std::uint64_t build_evals = 0;  // replay + certificate evals on top

  // Items to serve for a query asking budget k with `output_items`
  // requested items (0 → k), clamped to what is stored.
  std::size_t items_for(std::size_t k, std::size_t output_items) const noexcept;

  // Certified f(OPT_k') bound for any k' ≤ budget_k (clamped):
  // min(max_value, value + top_gain_prefix[k']).
  double upper_bound(std::size_t k) const noexcept;
};

// Builds the entry from a finished run: ordered replay for prefix values
// and the top-gain certificate scan over `ground`. `proto` must be the
// same fresh (empty-set) prototype the run started from. O(|ground|)
// oracle evaluations on clones — the prototype's accounting is untouched.
std::shared_ptr<const CachedSummary> build_summary(
    QueryKey key, std::size_t budget_k, const RunResult& run,
    const SubmodularOracle& proto, std::span<const ElementId> ground);

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        // no entry, or entry budget too small
  std::uint64_t insertions = 0;
  std::uint64_t replacements = 0;  // same key, larger budget took over
  std::uint64_t evictions = 0;     // LRU capacity pressure
};

// Thread-safe LRU map QueryKey → CachedSummary, one entry per key (an
// insert with a larger budget replaces the smaller one; a smaller budget
// is dropped — the bigger summary already answers those queries).
class SummaryCache {
 public:
  explicit SummaryCache(std::size_t capacity = 64);

  // An entry usable for budget k (entry.budget_k ≥ k) that stores at least
  // `min_items` items (so a request for more output than cached never gets
  // silently truncated), or nullptr.
  std::shared_ptr<const CachedSummary> lookup(const QueryKey& key,
                                              std::size_t k,
                                              std::size_t min_items = 0);
  // The entry for the key regardless of budget (the load-shed path serves
  // whatever prefix is available, marked degraded). Does not count as a
  // hit or miss and does not touch LRU order.
  std::shared_ptr<const CachedSummary> peek(const QueryKey& key) const;

  void insert(std::shared_ptr<const CachedSummary> entry);

  // Removes and returns every entry for `corpus` (any epoch) — the
  // mutation path takes them out, recertifies each against the new epoch,
  // and reinserts the survivors under the bumped key. Not a lookup: LRU
  // order and hit/miss stats are untouched.
  std::vector<std::shared_ptr<const CachedSummary>> take_corpus(
      const std::string& corpus);

  std::size_t size() const;
  CacheStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const CachedSummary> entry;
    std::uint64_t last_used = 0;
  };

  void evict_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<QueryKey, Slot, QueryKeyHash> entries_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace bds::serve
