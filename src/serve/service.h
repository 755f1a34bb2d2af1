// bds::serve::SummaryService — a long-running, multi-tenant front end over
// registry::run_distributed.
//
// The workload it targets: many clients ask for summaries of the same few
// corpora with the same objective/ε/r but different budgets k. Two layers
// turn that from "one full distributed run per request" into mostly O(k)
// work per request:
//
//  1. **Summary cache** (serve/cache.h). A bicriteria answer for budget k
//     certifies every budget k' ≤ k; hits are answered synchronously at
//     submit time by prefix truncation — they never touch the admission
//     queue, which is what makes cached latency a different regime from
//     uncached latency (bench_serve measures the gap).
//
//  2. **Admission queue.** Misses are admitted into a bounded queue drained
//     round-robin across tenants by dist::ThreadPool tasks, so one chatty
//     tenant cannot starve the rest. Strictly identical in-flight queries
//     coalesce onto one computation (N concurrent clients, one run — each
//     gets the bitwise-identical answer). When the queue is full the
//     service reuses the graceful-degradation idea from dist/faults: if a
//     smaller summary for the same configuration exists, serve its prefix
//     marked kDegraded rather than failing; otherwise kRejected.
//
// Determinism contract: a kHit / kCoalesced / kComputed answer at the exact
// cached parameters is bitwise equal to a direct run_distributed call; a
// budget-k' hit is bitwise equal to the length-k' prefix of the direct run
// at the cached configuration, with a certified upper bound for k'
// (serve/cache.h explains why that is the strongest claim possible).
// Queries whose runtime is not cache_safe (fault injection, resume, round
// halt) compute fresh every time and never populate the cache.
//
// query() blocks until the answer is ready; call it from client threads,
// never from the service's own pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/registry.h"
#include "data/dynamic.h"
#include "dist/thread_pool.h"
#include "dist/trace.h"
#include "serve/cache.h"

namespace bds::serve {

struct ServiceOptions {
  std::size_t threads = 0;         // admission pool; 0 = hardware default
  std::size_t cache_capacity = 64; // summaries kept (LRU beyond this)
  std::size_t max_queue = 64;      // admitted-but-unstarted queries, global
  std::size_t max_per_tenant = 16; // per-tenant slice of the queue
  // Full queue: serve a smaller cached summary for the same configuration
  // as a degraded answer instead of rejecting (when one exists).
  bool allow_degraded = true;
  bool record_query_spans = false;  // keep dist::QuerySpan per query
  // Mutation path: a cached summary survives an epoch bump when its
  // recomputed certificate f(S)/UB decayed by less than recertify_epsilon
  // relative to the ratio it certified at build time (invalidate-or-
  // recertify instead of blanket-flushing). Gain-neutral mutations keep
  // every summary.
  double recertify_epsilon = 0.1;
};

// One request. `tenant` is the fairness bucket; `runtime` carries the
// certified execution knob (seed) plus any
// non-certified ones (faults, resume) that force a fresh computation.
struct Query {
  std::string corpus;
  std::string algorithm = "bicriteria";
  std::size_t k = 10;
  std::size_t output_items = 0;  // 0 → k (AlgorithmParams semantics)
  double epsilon = 0.1;
  std::size_t rounds = 1;
  std::size_t machines = 0;
  std::string tenant = "default";
  RuntimeOptions runtime;
};

enum class ServeOutcome {
  kHit = 0,        // served synchronously from the cache
  kCoalesced = 1,  // waited on an identical in-flight computation
  kComputed = 2,   // admitted, computed (and cached when certified)
  kDegraded = 3,   // load shed: smaller cached prefix served
  kRejected = 4,   // load shed: nothing cached to degrade to
};

const char* serve_outcome_name(ServeOutcome outcome) noexcept;

struct ServeResult {
  ServeOutcome outcome = ServeOutcome::kComputed;
  std::vector<ElementId> solution;  // served items, selection order
  double value = 0.0;               // f(solution), bitwise per the contract
  // Certified bound on f(OPT_k) when the answer came from a summary
  // (min(k, summary budget) for kDegraded); the oracle's trivial max_value
  // for fresh non-certified computations.
  double upper_bound = 0.0;
  std::size_t budget_k = 0;      // budget the answer certifies
  double queue_seconds = 0.0;    // admission wait (0 for hits)
  double run_seconds = 0.0;      // computation time (0 for hits)
  double total_seconds = 0.0;    // submit → answer
  // Corpus epoch this answer is certified for (0 for frozen corpora).
  std::uint64_t epoch = 0;
};

struct ServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t computed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rejected = 0;
  // Mutation endpoints (dynamic corpora).
  std::uint64_t mutations = 0;
  std::uint64_t summaries_recertified = 0;  // epoch-bumped, kept
  std::uint64_t summaries_invalidated = 0;  // decayed past ε or unaddressable
  std::uint64_t oracle_rebuilds = 0;  // syncs that took the rebuild fallback
  // Oracle evaluations a direct run would have spent on queries answered
  // without one (hits + coalesced waiters + degraded), vs. evaluations the
  // service actually charged (runs + certificate builds).
  std::uint64_t evals_saved = 0;
  std::uint64_t evals_spent = 0;

  double hit_rate() const noexcept {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits + coalesced) /
                              static_cast<double>(queries);
  }
};

class SummaryService {
 public:
  explicit SummaryService(ServiceOptions options = {});
  ~SummaryService();

  SummaryService(const SummaryService&) = delete;
  SummaryService& operator=(const SummaryService&) = delete;

  // Registers a corpus under `name`. `objective` must be a registered
  // objective (core/registry.h, require_objective); its cache_safe flag
  // gates whether this corpus's results may be cached. `proto` is the
  // fresh (empty-set) oracle prototype every run starts from. `ground`
  // defaults to the identity over proto->ground_size().
  void add_corpus(std::string name, std::string objective,
                  std::shared_ptr<SubmodularOracle> proto,
                  std::vector<ElementId> ground = {});

  // Registers a *mutable* corpus: the prototype is built through
  // data::make_dynamic_oracle at the corpus's current epoch, the ground is
  // its live id set, and the corpus_insert / corpus_erase endpoints become
  // usable. The service owns the mutation lock: mutate only through those
  // endpoints once registered.
  void add_dynamic_corpus(std::string name, std::string objective,
                          std::shared_ptr<data::DynamicCorpus> corpus,
                          data::DynamicOracleOptions oracle_options = {});

  // Outcome of one mutation: the bumped epoch plus what the
  // invalidate-or-recertify pass did to this corpus's cached summaries.
  struct MutationOutcome {
    std::uint64_t epoch = 0;
    ElementId id = 0;  // id assigned (insert) or tombstoned (erase)
    std::size_t summaries_recertified = 0;
    std::size_t summaries_invalidated = 0;
    bool oracle_rebuilt = false;  // rebuild fallback vs in-place O(degree)
  };

  // Mutation endpoints. Both bump the corpus epoch, refresh the prototype
  // (in place when the oracle supports dynamic updates, rebuild otherwise
  // — in-flight runs keep their snapshot either way), then recertify or
  // drop every cached summary of this corpus instead of blanket-flushing.
  // Throw std::invalid_argument for an unknown or non-dynamic corpus and
  // propagate DynamicCorpus validation errors.
  MutationOutcome corpus_insert(const std::string& name,
                                std::vector<std::uint32_t> items);
  MutationOutcome corpus_erase(const std::string& name, ElementId id);

  // Current epoch of a registered corpus (0 for frozen ones).
  std::uint64_t corpus_epoch(const std::string& name) const;

  std::vector<std::string> corpus_names() const;

  // Blocking: returns when the answer is ready. Throws
  // std::invalid_argument for an unknown corpus or algorithm (listing the
  // known names); load shedding is reported via the outcome, not thrown.
  ServeResult query(const Query& q);

  ServiceStats stats() const;
  // The underlying summary cache — e.g. to pre-warm entries at startup
  // before opening the service to traffic.
  SummaryCache& cache() noexcept { return cache_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t queue_depth() const;

  // Collected per-query spans (record_query_spans); clears the buffer.
  std::vector<dist::QuerySpan> drain_query_spans();

 private:
  struct CorpusEntry {
    std::string objective;
    bool cacheable = true;  // objective's cache_safe flag
    std::shared_ptr<SubmodularOracle> proto;
    // Shared so flights snapshot it by handle: a mutation swaps in a fresh
    // vector (copy-on-mutate) and never touches one an in-flight run holds.
    std::shared_ptr<const std::vector<ElementId>> ground;
    // Dynamic corpora only (add_dynamic_corpus).
    std::shared_ptr<data::DynamicCorpus> dynamic;
    data::DynamicOracleOptions oracle_options;
    std::uint64_t epoch = 0;
  };

  // Immutable view of a corpus at submit time. Mutations replace the
  // entry's handles under mu_ (copy-on-mutate), so a snapshot stays
  // self-consistent for the whole life of a flight without holding the
  // lock — the whole reason queries and mutations can overlap safely.
  struct CorpusSnapshot {
    std::string objective;
    bool cacheable = true;
    std::shared_ptr<SubmodularOracle> proto;
    std::shared_ptr<const std::vector<ElementId>> ground;
    std::uint64_t epoch = 0;
  };

  // One admitted computation; identical queries coalesce onto it.
  struct Flight {
    QueryKey key;
    std::size_t k = 0;
    std::size_t output_items = 0;
    std::string tenant;
    bool certified = false;  // cache_safe → publish into the cache
    RuntimeOptions runtime;
    CorpusSnapshot corpus;
    std::chrono::steady_clock::time_point enqueued;
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
    // Result: a summary for certified flights, a raw result otherwise.
    std::shared_ptr<const CachedSummary> summary;
    bool served_from_cache = false;  // double-check hit: no run happened
    ServeResult raw;        // non-certified answer, served verbatim
    std::uint64_t spent = 0;  // oracle evals charged by a raw run
    std::exception_ptr error;
    bool done = false;
  };
  using FlightPtr = std::shared_ptr<Flight>;

  CorpusSnapshot snapshot_corpus(const std::string& name) const;
  void register_corpus(std::string name, std::string objective,
                       std::shared_ptr<SubmodularOracle> proto,
                       std::vector<ElementId> ground,
                       std::shared_ptr<data::DynamicCorpus> dynamic,
                       data::DynamicOracleOptions oracle_options);
  MutationOutcome apply_mutation(const std::string& name, data::Mutation m);
  ServeResult serve_from_summary(const CachedSummary& summary,
                                 const Query& q, ServeOutcome outcome) const;
  // Picks the next flight round-robin across tenants and runs it. Invoked
  // on the pool, one task per admitted flight.
  void drain_one();
  void execute(const FlightPtr& flight);
  void record_span(const Query& q, const ServeResult& result);

  const ServiceOptions options_;
  SummaryCache cache_;

  // Serializes whole mutations (corpus apply + recertify pass) against each
  // other without blocking queries: queries only read snapshots taken under
  // mu_, never the DynamicCorpus itself. Acquired before mu_; never the
  // other way around.
  std::mutex mutate_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, CorpusEntry> corpora_;
  // In-flight computations by (key, k, output_items); coalescing targets.
  std::vector<FlightPtr> in_flight_;
  // Admission queue: per-tenant FIFOs drained round-robin.
  std::unordered_map<std::string, std::deque<FlightPtr>> queued_;
  std::vector<std::string> tenant_order_;  // round-robin ring
  std::size_t rr_cursor_ = 0;
  std::size_t queued_total_ = 0;
  std::uint64_t next_query_id_ = 0;
  ServiceStats stats_;
  std::vector<dist::QuerySpan> spans_;

  // Last member: destroyed first, so in-flight drain tasks finish while
  // every structure they touch is still alive.
  dist::ThreadPool pool_;
};

}  // namespace bds::serve
