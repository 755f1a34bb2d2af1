#include "serve/cache.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

namespace bds::serve {
namespace {

// FNV-1a style mixing; epsilon enters through its bit pattern so distinct
// configurations never collide through rounding in the hash (equality is
// exact anyway).
void mix(std::size_t& h, std::uint64_t v) noexcept {
  h ^= static_cast<std::size_t>(v);
  h *= 1099511628211ull;
}

}  // namespace

std::size_t QueryKeyHash::operator()(const QueryKey& key) const noexcept {
  std::size_t h = 1469598103934665603ull;
  const std::hash<std::string> sh;
  mix(h, sh(key.corpus));
  mix(h, key.epoch);
  mix(h, sh(key.objective));
  mix(h, sh(key.algorithm));
  mix(h, std::bit_cast<std::uint64_t>(key.epsilon));
  mix(h, key.rounds);
  mix(h, key.machines);
  mix(h, key.seed);
  return h;
}

bool cache_safe(const RuntimeOptions& runtime) noexcept {
  return runtime.faults.all_healthy() && !runtime.resume_from &&
         runtime.halt_after_round == 0;
}

QueryKey make_key(std::string corpus, std::string objective,
                  std::string algorithm, double epsilon, std::size_t rounds,
                  std::size_t machines, const RuntimeOptions& runtime,
                  std::uint64_t epoch) {
  QueryKey key;
  key.corpus = std::move(corpus);
  key.epoch = epoch;
  key.objective = std::move(objective);
  key.algorithm = std::move(algorithm);
  key.epsilon = epsilon;
  key.rounds = rounds;
  key.machines = machines;
  key.seed = runtime.seed;
  return key;
}

std::size_t CachedSummary::items_for(std::size_t k,
                                     std::size_t output_items) const noexcept {
  const std::size_t want = output_items != 0 ? output_items : k;
  return std::min(want, solution.size());
}

double CachedSummary::upper_bound(std::size_t k) const noexcept {
  if (top_gain_prefix.empty()) return max_value;
  const std::size_t kk = std::min(k, top_gain_prefix.size() - 1);
  return std::min(max_value, value + top_gain_prefix[kk]);
}

std::shared_ptr<const CachedSummary> build_summary(
    QueryKey key, std::size_t budget_k, const RunResult& run,
    const SubmodularOracle& proto, std::span<const ElementId> ground) {
  auto entry = std::make_shared<CachedSummary>();
  entry->key = std::move(key);
  entry->budget_k = budget_k;
  entry->solution = run.solution;
  entry->value = run.value;
  entry->max_value = proto.max_value();
  entry->run_evals = run.stats.total_evals() + run.stats.total_merge_evals();

  // Ordered replay: the same add() sequence the run committed, on a clone
  // of the same prototype, so every prefix value is the bitwise value a
  // direct run would have reported after that many selections.
  auto replay = proto.clone();
  entry->prefix_value.reserve(run.solution.size() + 1);
  entry->prefix_value.push_back(replay->value());
  for (const ElementId x : run.solution) {
    replay->add(x);
    entry->prefix_value.push_back(replay->value());
  }

  // Certificate scan: marginal gains of every ground element on top of the
  // full solution; the sorted top-budget_k prefix sums bound f(OPT_k') for
  // every k' ≤ budget_k (monotone submodularity, see core/upper_bound.h).
  std::vector<double> gains(ground.size(), 0.0);
  if (!ground.empty()) {
    replay->gain_batch(ground, std::span<double>(gains));
  }
  const std::size_t top = std::min(budget_k, gains.size());
  std::partial_sort(gains.begin(),
                    gains.begin() + static_cast<std::ptrdiff_t>(top),
                    gains.end(), std::greater<double>());
  entry->top_gain_prefix.resize(top + 1, 0.0);
  for (std::size_t j = 0; j < top; ++j) {
    // Sampled oracles can estimate small negative gains; they cannot make
    // the bound tighter than f(S) itself.
    entry->top_gain_prefix[j + 1] =
        entry->top_gain_prefix[j] + std::max(0.0, gains[j]);
  }
  entry->build_evals = replay->evals();
  return entry;
}

SummaryCache::SummaryCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const CachedSummary> SummaryCache::lookup(
    const QueryKey& key, std::size_t k, std::size_t min_items) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.entry->budget_k < k ||
      it->second.entry->solution.size() < min_items) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  it->second.last_used = ++tick_;
  return it->second.entry;
}

std::shared_ptr<const CachedSummary> SummaryCache::peek(
    const QueryKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.entry;
}

void SummaryCache::insert(std::shared_ptr<const CachedSummary> entry) {
  if (!entry) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(entry->key);
  if (it != entries_.end()) {
    // One entry per key: the larger summary answers everything the smaller
    // one could.
    const CachedSummary& old = *it->second.entry;
    if (entry->budget_k > old.budget_k ||
        (entry->budget_k == old.budget_k &&
         entry->solution.size() > old.solution.size())) {
      it->second.entry = std::move(entry);
      it->second.last_used = ++tick_;
      ++stats_.replacements;
    }
    return;
  }
  if (entries_.size() >= capacity_) evict_locked();
  // Copy the key out first: argument evaluation order is unspecified, and
  // the Slot temporary moves `entry` away.
  QueryKey map_key = entry->key;
  entries_.emplace(std::move(map_key), Slot{std::move(entry), ++tick_});
  ++stats_.insertions;
}

std::vector<std::shared_ptr<const CachedSummary>> SummaryCache::take_corpus(
    const std::string& corpus) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::shared_ptr<const CachedSummary>> taken;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.corpus == corpus) {
      taken.push_back(std::move(it->second.entry));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return taken;
}

void SummaryCache::evict_locked() {
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.last_used < victim->second.last_used) victim = it;
  }
  if (victim != entries_.end()) {
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

std::size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace bds::serve
