#include "serve/service.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace bds::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t wanted_items(const Query& q, std::size_t ground_size) {
  const std::size_t want = q.output_items != 0 ? q.output_items : q.k;
  // A direct run can never output more than the ground set holds, so a
  // summary covering min(want, n) items answers the request in full.
  return std::min(want, ground_size);
}

// Recertifies one cached summary against the mutated corpus: replays its
// solution on the new prototype for a fresh f(S), rebuilds prefix values
// and the top-gain certificate over the new ground, and keeps the entry
// (under the bumped epoch key) iff its certified ratio f(S)/UB decayed by
// less than `tolerance` relative to what the summary certified when it was
// built. A mutation that changes no gains keeps every summary; only decay
// *caused by the mutation* can evict. Returns nullptr on eviction.
std::shared_ptr<const CachedSummary> recertify_summary(
    const CachedSummary& old, std::uint64_t epoch,
    const SubmodularOracle& proto, std::span<const ElementId> ground,
    double tolerance, std::uint64_t* evals_spent) {
  QueryKey key = old.key;
  key.epoch = epoch;
  RunResult run;
  run.algorithm = key.algorithm;
  run.solution = old.solution;
  const auto probe = seeded_clone(proto, old.solution);
  run.value = probe->value();
  *evals_spent += probe->evals();
  const auto fresh =
      build_summary(std::move(key), old.budget_k, run, proto, ground);
  *evals_spent += fresh->build_evals;
  const double old_bound = old.upper_bound(old.budget_k);
  const double old_ratio = old_bound > 0.0 ? old.value / old_bound : 1.0;
  const double bound = fresh->upper_bound(fresh->budget_k);
  const double ratio = bound > 0.0 ? fresh->value / bound : 1.0;
  if (ratio < (1.0 - tolerance) * old_ratio) {
    return nullptr;
  }
  // Keep the producing run's eval provenance: hits on the recertified
  // entry still report what a fresh run would have cost.
  CachedSummary kept = *fresh;
  kept.run_evals = old.run_evals;
  return std::make_shared<const CachedSummary>(std::move(kept));
}

}  // namespace

const char* serve_outcome_name(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kHit:
      return "hit";
    case ServeOutcome::kCoalesced:
      return "coalesced";
    case ServeOutcome::kComputed:
      return "computed";
    case ServeOutcome::kDegraded:
      return "degraded";
    case ServeOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

SummaryService::SummaryService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      pool_(options.threads) {}

SummaryService::~SummaryService() = default;

void SummaryService::add_corpus(std::string name, std::string objective,
                                std::shared_ptr<SubmodularOracle> proto,
                                std::vector<ElementId> ground) {
  register_corpus(std::move(name), std::move(objective), std::move(proto),
                  std::move(ground), nullptr, {});
}

void SummaryService::add_dynamic_corpus(
    std::string name, std::string objective,
    std::shared_ptr<data::DynamicCorpus> corpus,
    data::DynamicOracleOptions oracle_options) {
  if (!corpus) {
    throw std::invalid_argument("add_dynamic_corpus: null corpus");
  }
  std::shared_ptr<SubmodularOracle> proto =
      data::make_dynamic_oracle(*corpus, objective, oracle_options);
  // Sequence the ground computation before std::move(corpus): argument
  // evaluation order is unspecified.
  std::vector<ElementId> ground = corpus->live_ground();
  register_corpus(std::move(name), std::move(objective), std::move(proto),
                  std::move(ground), std::move(corpus), oracle_options);
}

void SummaryService::register_corpus(
    std::string name, std::string objective,
    std::shared_ptr<SubmodularOracle> proto, std::vector<ElementId> ground,
    std::shared_ptr<data::DynamicCorpus> dynamic,
    data::DynamicOracleOptions oracle_options) {
  if (!proto || proto->ground_size() == 0) {
    throw std::invalid_argument("add_corpus: empty oracle prototype");
  }
  if (!proto->current_set().empty()) {
    throw std::invalid_argument(
        "add_corpus: prototype must be a fresh (empty-set) oracle");
  }
  const ObjectiveSpec& spec = require_objective(objective);
  if (ground.empty()) {
    ground.resize(proto->ground_size());
    for (std::size_t i = 0; i < ground.size(); ++i) {
      ground[i] = static_cast<ElementId>(i);
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  CorpusEntry entry;
  entry.objective = std::move(objective);
  entry.cacheable = spec.cache_safe;
  entry.proto = std::move(proto);
  entry.ground =
      std::make_shared<const std::vector<ElementId>>(std::move(ground));
  entry.epoch = dynamic ? dynamic->epoch() : 0;
  entry.dynamic = std::move(dynamic);
  entry.oracle_options = oracle_options;
  if (entry.dynamic) entry.proto->stamp_corpus_epoch(entry.epoch);
  if (!corpora_.emplace(std::move(name), std::move(entry)).second) {
    throw std::invalid_argument("add_corpus: corpus already registered");
  }
}

std::vector<std::string> SummaryService::corpus_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  names.reserve(corpora_.size());
  for (const auto& [name, entry] : corpora_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

SummaryService::CorpusSnapshot SummaryService::snapshot_corpus(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = corpora_.find(name);
  if (it != corpora_.end()) {
    const CorpusEntry& entry = it->second;
    CorpusSnapshot snap;
    snap.objective = entry.objective;
    snap.cacheable = entry.cacheable;
    snap.proto = entry.proto;
    snap.ground = entry.ground;
    snap.epoch = entry.epoch;
    return snap;
  }
  std::ostringstream message;
  message << "unknown corpus '" << name << "'; known:";
  std::vector<std::string> names;
  for (const auto& [known, entry] : corpora_) names.push_back(known);
  std::sort(names.begin(), names.end());
  for (const auto& known : names) message << " " << known;
  throw std::invalid_argument(message.str());
}

std::uint64_t SummaryService::corpus_epoch(const std::string& name) const {
  return snapshot_corpus(name).epoch;
}

SummaryService::MutationOutcome SummaryService::corpus_insert(
    const std::string& name, std::vector<std::uint32_t> items) {
  data::Mutation m;
  m.kind = data::MutationKind::kInsert;
  m.items = std::move(items);
  return apply_mutation(name, std::move(m));
}

SummaryService::MutationOutcome SummaryService::corpus_erase(
    const std::string& name, ElementId id) {
  data::Mutation m;
  m.kind = data::MutationKind::kErase;
  m.id = id;
  return apply_mutation(name, std::move(m));
}

SummaryService::MutationOutcome SummaryService::apply_mutation(
    const std::string& name, data::Mutation m) {
  // One mutation at a time end to end (corpus apply + recertify pass);
  // queries proceed concurrently off their snapshots.
  std::lock_guard<std::mutex> mlk(mutate_mu_);

  MutationOutcome out;
  std::shared_ptr<SubmodularOracle> proto;
  std::shared_ptr<const std::vector<ElementId>> ground;
  std::shared_ptr<data::DynamicCorpus> corpus;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = corpora_.find(name);
    if (it == corpora_.end()) {
      throw std::invalid_argument("unknown corpus '" + name + "'");
    }
    CorpusEntry& entry = it->second;
    if (!entry.dynamic) {
      throw std::invalid_argument(
          "corpus '" + name +
          "' is frozen; register it via add_dynamic_corpus to mutate");
    }
    corpus = entry.dynamic;
    // Inserts get the next ground id; the caller's id field is ignored.
    if (m.kind == data::MutationKind::kInsert) {
      m.id = static_cast<ElementId>(corpus->size());
    }
    corpus->apply(m);
    const data::Mutation& applied = corpus->log().back();
    out.epoch = corpus->epoch();
    out.id = applied.id;

    // Copy-on-mutate: the fresh prototype replaces the entry's handle; any
    // in-flight run keeps the snapshot it took at submit.
    if (entry.proto->supports_dynamic_updates()) {
      std::shared_ptr<SubmodularOracle> next = entry.proto->clone();
      if (applied.kind == data::MutationKind::kInsert) {
        next->apply_insert(applied.id, applied.items, out.epoch);
      } else {
        next->apply_erase(applied.id, out.epoch);
      }
      entry.proto = std::move(next);
    } else {
      entry.proto = data::make_dynamic_oracle(*corpus, entry.objective,
                                              entry.oracle_options);
      out.oracle_rebuilt = true;
      ++stats_.oracle_rebuilds;
    }
    entry.ground =
        std::make_shared<const std::vector<ElementId>>(corpus->live_ground());
    entry.epoch = out.epoch;
    ++stats_.mutations;
    proto = entry.proto;
    ground = entry.ground;
  }

  // Invalidate-or-recertify, outside mu_: pull every cached summary for
  // this corpus, keep the ones whose recomputed certificate decayed less
  // than recertify_epsilon (re-keyed at the new epoch), drop the rest.
  std::uint64_t spent = 0;
  const bool ids_stable = corpus->ids_stable();
  for (auto& old : cache_.take_corpus(name)) {
    std::shared_ptr<const CachedSummary> fresh;
    bool addressable = ids_stable;
    if (addressable && m.kind == data::MutationKind::kErase) {
      for (const ElementId x : old->solution) {
        if (!corpus->is_live(x)) {
          addressable = false;  // a selected set was tombstoned
          break;
        }
      }
    }
    if (addressable) {
      fresh = recertify_summary(*old, out.epoch, *proto, *ground,
                                options_.recertify_epsilon, &spent);
    }
    if (fresh) {
      cache_.insert(std::move(fresh));
      ++out.summaries_recertified;
    } else {
      ++out.summaries_invalidated;
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  stats_.summaries_recertified += out.summaries_recertified;
  stats_.summaries_invalidated += out.summaries_invalidated;
  stats_.evals_spent += spent;
  if (options_.record_query_spans) {
    dist::QuerySpan span;
    span.query_id = next_query_id_++;
    span.tenant = "mutation";
    span.outcome = m.kind == data::MutationKind::kInsert ? "mutate-insert"
                                                         : "mutate-erase";
    span.epoch = out.epoch;
    span.summaries_recertified = out.summaries_recertified;
    span.summaries_invalidated = out.summaries_invalidated;
    spans_.push_back(std::move(span));
  }
  return out;
}

ServeResult SummaryService::serve_from_summary(const CachedSummary& summary,
                                               const Query& q,
                                               ServeOutcome outcome) const {
  const std::size_t items = summary.items_for(q.k, q.output_items);
  ServeResult result;
  result.outcome = outcome;
  result.solution.assign(summary.solution.begin(),
                         summary.solution.begin() +
                             static_cast<std::ptrdiff_t>(items));
  // Full-length answers return the producing run's value verbatim; shorter
  // prefixes the replayed cumulative value at that length (serve/cache.h).
  result.value = items == summary.solution.size() ? summary.value
                                                  : summary.prefix_value[items];
  result.budget_k = std::min(q.k, summary.budget_k);
  result.upper_bound = summary.upper_bound(result.budget_k);
  result.epoch = summary.key.epoch;
  return result;
}

void SummaryService::record_span(const Query& q, const ServeResult& result) {
  // Caller holds mu_.
  dist::QuerySpan span;
  span.query_id = next_query_id_++;
  span.tenant = q.tenant;
  span.outcome = serve_outcome_name(result.outcome);
  span.budget_k = q.k;
  span.items = result.solution.size();
  span.queue_seconds = result.queue_seconds;
  span.run_seconds = result.run_seconds;
  span.total_seconds = result.total_seconds;
  span.epoch = result.epoch;
  spans_.push_back(std::move(span));
}

ServeResult SummaryService::query(const Query& q) {
  const auto t0 = Clock::now();
  require_algorithm(q.algorithm);  // throws listing the known names
  const CorpusSnapshot corpus = snapshot_corpus(q.corpus);

  const QueryKey key =
      make_key(q.corpus, corpus.objective, q.algorithm, q.epsilon, q.rounds,
               q.machines, q.runtime, corpus.epoch);
  const bool certified = corpus.cacheable && cache_safe(q.runtime);
  const std::size_t min_items = wanted_items(q, corpus.ground->size());

  // Fast path: certified hits answer synchronously, bypassing admission.
  if (certified) {
    if (auto summary = cache_.lookup(key, q.k, min_items)) {
      ServeResult result = serve_from_summary(*summary, q, ServeOutcome::kHit);
      result.total_seconds = seconds_since(t0);
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.queries;
      ++stats_.hits;
      stats_.evals_saved += summary->run_evals;
      if (options_.record_query_spans) record_span(q, result);
      return result;
    }
  }

  FlightPtr flight;
  {
    std::unique_lock<std::mutex> lk(mu_);

    // Coalesce onto a strictly identical in-flight computation.
    if (certified) {
      for (const FlightPtr& f : in_flight_) {
        if (f->key == key && f->k == q.k &&
            f->output_items == q.output_items) {
          FlightPtr target = f;
          cv_.wait(lk, [&] { return target->done; });
          if (target->error) std::rethrow_exception(target->error);
          ServeResult result =
              serve_from_summary(*target->summary, q, ServeOutcome::kCoalesced);
          result.queue_seconds = target->queue_seconds;
          result.run_seconds = target->run_seconds;
          result.total_seconds = seconds_since(t0);
          ++stats_.queries;
          ++stats_.coalesced;
          stats_.evals_saved += target->summary->run_evals;
          if (options_.record_query_spans) record_span(q, result);
          return result;
        }
      }
    }

    // Admission control: shed when the backlog is full.
    auto& tenant_queue = queued_[q.tenant];
    if (queued_total_ >= options_.max_queue ||
        tenant_queue.size() >= options_.max_per_tenant) {
      ServeResult result;
      if (options_.allow_degraded && certified) {
        if (auto partial = cache_.peek(key)) {
          // Graceful degradation: the best certified prefix we already
          // have, marked as such (its bound covers min(k, cached budget)).
          result = serve_from_summary(*partial, q, ServeOutcome::kDegraded);
          result.total_seconds = seconds_since(t0);
          ++stats_.queries;
          ++stats_.degraded;
          stats_.evals_saved += partial->run_evals;
          if (options_.record_query_spans) record_span(q, result);
          return result;
        }
      }
      result.outcome = ServeOutcome::kRejected;
      result.budget_k = q.k;
      result.total_seconds = seconds_since(t0);
      ++stats_.queries;
      ++stats_.rejected;
      if (options_.record_query_spans) record_span(q, result);
      return result;
    }

    // Admit: enqueue into the tenant's FIFO, one drain task on the pool.
    flight = std::make_shared<Flight>();
    flight->key = key;
    flight->k = q.k;
    flight->output_items = q.output_items;
    flight->tenant = q.tenant;
    flight->certified = certified;
    flight->runtime = q.runtime;
    flight->corpus = corpus;
    flight->enqueued = Clock::now();
    if (std::find(tenant_order_.begin(), tenant_order_.end(), q.tenant) ==
        tenant_order_.end()) {
      tenant_order_.push_back(q.tenant);
    }
    tenant_queue.push_back(flight);
    ++queued_total_;
    if (certified) in_flight_.push_back(flight);
  }
  pool_.submit([this] { drain_one(); });

  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return flight->done; });
  if (flight->error) std::rethrow_exception(flight->error);

  ServeResult result;
  std::uint64_t saved = 0;
  std::uint64_t spent = 0;
  if (flight->summary) {
    // Certified: serve from the summary (freshly built, or the cache entry
    // the double-check found — then the run was saved, not spent).
    const ServeOutcome outcome = flight->served_from_cache
                                     ? ServeOutcome::kCoalesced
                                     : ServeOutcome::kComputed;
    result = serve_from_summary(*flight->summary, q, outcome);
    if (flight->served_from_cache) {
      saved = flight->summary->run_evals;
    } else {
      spent = flight->summary->run_evals + flight->summary->build_evals;
    }
  } else {
    result = flight->raw;  // non-certified: the run's output, verbatim
    spent = flight->spent;
  }
  result.queue_seconds = flight->queue_seconds;
  result.run_seconds = flight->run_seconds;
  result.total_seconds = seconds_since(t0);
  ++stats_.queries;
  if (result.outcome == ServeOutcome::kCoalesced) {
    ++stats_.coalesced;
  } else {
    ++stats_.computed;
  }
  stats_.evals_saved += saved;
  stats_.evals_spent += spent;
  if (options_.record_query_spans) record_span(q, result);
  return result;
}

void SummaryService::drain_one() {
  FlightPtr flight;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Round-robin over tenants: each drain task takes the next non-empty
    // tenant's oldest flight, so a burst from one tenant interleaves with
    // everyone else's queries.
    for (std::size_t i = 0; i < tenant_order_.size(); ++i) {
      const std::size_t slot = (rr_cursor_ + i) % tenant_order_.size();
      auto& queue = queued_[tenant_order_[slot]];
      if (queue.empty()) continue;
      flight = queue.front();
      queue.pop_front();
      --queued_total_;
      rr_cursor_ = (slot + 1) % tenant_order_.size();
      break;
    }
  }
  if (!flight) return;
  flight->queue_seconds = seconds_since(flight->enqueued);
  execute(flight);
}

void SummaryService::execute(const FlightPtr& flight) {
  std::shared_ptr<const CachedSummary> summary;
  ServeResult raw;
  std::exception_ptr error;
  bool from_cache = false;
  double run_seconds = 0.0;
  std::uint64_t spent = 0;

  try {
    const CorpusSnapshot& corpus = flight->corpus;
    if (flight->certified) {
      // Double-check: an earlier flight may have published while this one
      // queued, turning the miss into a free answer.
      const std::size_t want = flight->output_items != 0 ? flight->output_items
                                                         : flight->k;
      summary = cache_.lookup(flight->key, flight->k,
                              std::min(want, corpus.ground->size()));
      from_cache = summary != nullptr;
    }
    if (!summary) {
      AlgorithmParams params;
      params.k = flight->k;
      params.output_items = flight->output_items;
      params.rounds = flight->key.rounds;
      params.epsilon = flight->key.epsilon;
      params.machines = flight->key.machines;

      const auto run_start = Clock::now();
      const RunResult run = run_distributed(flight->key.algorithm,
                                            *corpus.proto, *corpus.ground,
                                            flight->runtime, params);
      run_seconds = seconds_since(run_start);

      if (flight->certified) {
        summary = build_summary(flight->key, flight->k, run, *corpus.proto,
                                *corpus.ground);
        cache_.insert(summary);
      } else {
        raw.outcome = ServeOutcome::kComputed;
        raw.solution = run.solution;
        raw.value = run.value;
        raw.upper_bound = corpus.proto->max_value();
        raw.budget_k = flight->k;
        raw.epoch = corpus.epoch;
        spent = run.stats.total_evals() + run.stats.total_merge_evals();
      }
    }
  } catch (...) {
    error = std::current_exception();
  }

  std::lock_guard<std::mutex> lk(mu_);
  flight->summary = std::move(summary);
  flight->raw = std::move(raw);
  flight->error = error;
  flight->served_from_cache = from_cache;
  flight->run_seconds = run_seconds;
  flight->spent = spent;
  flight->done = true;
  in_flight_.erase(
      std::remove(in_flight_.begin(), in_flight_.end(), flight),
      in_flight_.end());
  cv_.notify_all();
}

ServiceStats SummaryService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t SummaryService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_total_;
}

std::vector<dist::QuerySpan> SummaryService::drain_query_spans() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<dist::QuerySpan> out;
  out.swap(spans_);
  return out;
}

}  // namespace bds::serve
