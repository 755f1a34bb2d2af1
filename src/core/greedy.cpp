#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace bds {

std::vector<ElementId> unique_candidates(
    std::span<const ElementId> candidates) {
  std::vector<ElementId> out(candidates.begin(), candidates.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

GreedyResult greedy(SubmodularOracle& oracle,
                    std::span<const ElementId> candidates, std::size_t budget,
                    const GreedyOptions& options) {
  const std::vector<ElementId> pool = unique_candidates(candidates);
  std::vector<bool> taken(pool.size(), false);

  GreedyResult result;
  const std::size_t rounds = std::min(budget, pool.size());
  result.picks.reserve(rounds);
  result.gains.reserve(rounds);

  // Per-pass scratch: the still-selectable candidates (in pool order) and
  // their batched gains. One gain_batch per pass replaces one virtual call
  // per candidate; eval accounting is unchanged (one per scanned
  // candidate per pass).
  std::vector<ElementId> remaining;
  std::vector<std::size_t> remaining_idx;
  std::vector<double> gains;
  remaining.reserve(pool.size());
  remaining_idx.reserve(pool.size());

  for (std::size_t iter = 0; iter < rounds; ++iter) {
    remaining.clear();
    remaining_idx.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      remaining.push_back(pool[i]);
      remaining_idx.push_back(i);
    }
    gains.resize(remaining.size());
    oracle.gain_batch(remaining, gains);

    // Argmax in pool order — ties break toward the earlier candidate,
    // exactly as the scalar scan did.
    double best_gain = 0.0;
    std::size_t best = remaining.size();
    for (std::size_t r = 0; r < remaining.size(); ++r) {
      if (best == remaining.size() || gains[r] > best_gain) {
        best_gain = gains[r];
        best = r;
      }
    }
    if (best == remaining.size()) break;  // nothing selectable
    if (options.stop_when_no_gain && best_gain <= 0.0) break;

    const std::size_t best_idx = remaining_idx[best];
    taken[best_idx] = true;
    const double realized = oracle.add(pool[best_idx]);
    result.picks.push_back(pool[best_idx]);
    result.gains.push_back(realized);
    result.gained += realized;
  }
  return result;
}

GreedyResult lazy_greedy(SubmodularOracle& oracle,
                         std::span<const ElementId> candidates,
                         std::size_t budget, const GreedyOptions& options) {
  return lazy_greedy_bounded(oracle, candidates, budget, options,
                             /*bounds=*/nullptr, /*stats=*/nullptr);
}

GreedyResult lazy_greedy_bounded(SubmodularOracle& oracle,
                                 std::span<const ElementId> candidates,
                                 std::size_t budget,
                                 const GreedyOptions& options,
                                 const detail::BoundStore* /*bounds*/,
                                 LazyGreedyStats* stats) {
  const std::vector<ElementId> pool = unique_candidates(candidates);
  // Staleness clock: an entry is current iff its prefix equals the
  // committed-prefix length base_prefix + |picks so far|.
  const std::size_t base_prefix = oracle.current_set().size();

  std::uint64_t performed = 0;       // gain evaluations (not add() commits)
  std::uint64_t counterfactual = 0;  // what eager greedy() would scan

  const auto record_eval = [&](ElementId x, double gain, std::size_t prefix) {
    if (stats == nullptr) return;
    stats->eval_ids.push_back(x);
    stats->eval_gains.push_back(gain);
    stats->eval_prefixes.push_back(prefix);
  };

  detail::BoundHeap heap;
  {
    // The initial scan: every candidate at base_prefix, in one batch in
    // pool order.
    std::vector<double> init_gains(pool.size());
    oracle.gain_batch(pool, init_gains);
    performed += pool.size();
    std::vector<detail::BoundHeap::Item> items;
    items.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      items.push_back(detail::BoundHeap::Item{init_gains[i], i, base_prefix});
      record_eval(pool[i], init_gains[i], base_prefix);
    }
    heap.bulk_load(std::move(items));
  }

  GreedyResult result;
  const std::size_t rounds = std::min(budget, pool.size());
  result.picks.reserve(rounds);
  result.gains.reserve(rounds);

  for (std::size_t iter = 0; iter < rounds && !heap.empty(); ++iter) {
    // Eager greedy() entering this iteration would re-scan every
    // still-selectable candidate.
    counterfactual += pool.size() - iter;
    const std::size_t cur_prefix = base_prefix + iter;
    // Refresh until the top entry's bound is current for this prefix.
    // Submodularity guarantees a stale bound only over-estimates, so a
    // current top entry is the true argmax; on equal keys the smaller pool
    // index pops first, reproducing greedy()'s earlier-candidate tie rule.
    while (heap.top().prefix != cur_prefix) {
      detail::BoundHeap::Item e = heap.pop();
      e.bound = oracle.gain(pool[e.idx]);
      e.prefix = cur_prefix;
      ++performed;
      record_eval(pool[e.idx], e.bound, cur_prefix);
      heap.push(e);
    }
    const detail::BoundHeap::Item best = heap.pop();
    if (options.stop_when_no_gain && best.bound <= 0.0) break;

    const double realized = oracle.add(pool[best.idx]);
    result.picks.push_back(pool[best.idx]);
    result.gains.push_back(realized);
    result.gained += realized;
  }

  if (stats != nullptr) {
    stats->evals = performed;
    stats->evals_avoided =
        counterfactual > performed ? counterfactual - performed : 0;
  }
  return result;
}

GreedyResult stochastic_greedy(SubmodularOracle& oracle,
                               std::span<const ElementId> candidates,
                               std::size_t budget, util::Rng& rng,
                               const StochasticGreedyOptions& options) {
  std::vector<ElementId> pool = unique_candidates(candidates);

  GreedyResult result;
  const std::size_t rounds = std::min(budget, pool.size());
  if (rounds == 0) return result;
  result.picks.reserve(rounds);
  result.gains.reserve(rounds);

  // remaining pool occupies pool[0 .. live).
  std::size_t live = pool.size();
  const auto sample_size = static_cast<std::size_t>(std::max<double>(
      1.0,
      std::ceil(options.c * static_cast<double>(pool.size()) /
                static_cast<double>(rounds))));

  std::vector<double> gains;
  for (std::size_t iter = 0; iter < rounds && live > 0; ++iter) {
    const std::size_t s = std::min(sample_size, live);
    // Partial Fisher-Yates brings a uniform sample into pool[0 .. s).
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t j = i + rng.next_below(live - i);
      std::swap(pool[i], pool[j]);
    }
    gains.resize(s);
    oracle.gain_batch(std::span<const ElementId>(pool.data(), s), gains);
    double best_gain = 0.0;
    std::size_t best_idx = live;
    for (std::size_t i = 0; i < s; ++i) {
      const double g = gains[i];
      if (best_idx == live || g > best_gain) {
        best_gain = g;
        best_idx = i;
      }
    }
    if (best_idx == live) break;
    if (options.stop_when_no_gain && best_gain <= 0.0) break;

    const double realized = oracle.add(pool[best_idx]);
    result.picks.push_back(pool[best_idx]);
    result.gains.push_back(realized);
    result.gained += realized;
    // Remove the pick from the live range.
    std::swap(pool[best_idx], pool[live - 1]);
    --live;
  }
  return result;
}

GreedyResult random_subset(SubmodularOracle& oracle,
                           std::span<const ElementId> candidates,
                           std::size_t budget, util::Rng& rng) {
  const std::vector<ElementId> pool = unique_candidates(candidates);
  const std::size_t take = std::min(budget, pool.size());

  GreedyResult result;
  result.picks.reserve(take);
  result.gains.reserve(take);
  for (const std::uint64_t i :
       rng.sample_without_replacement(pool.size(), take)) {
    const ElementId x = pool[i];
    const double realized = oracle.add(x);
    result.picks.push_back(x);
    result.gains.push_back(realized);
    result.gained += realized;
  }
  return result;
}

}  // namespace bds
