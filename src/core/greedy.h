// The greedy family every algorithm in the paper is assembled from:
//
//  * greedy            — Algorithm 2 verbatim: k' passes, each picking the
//                        candidate with maximum marginal gain.
//  * lazy_greedy       — Minoux's accelerated variant; identical output
//                        (same tie-breaking), far fewer oracle evaluations.
//  * stochastic_greedy — "lazier than lazy" (§4.2 / ref [22]): each pick
//                        evaluates only a uniform sample of c·N'/k'
//                        candidates.
//  * random_subset     — the random baseline of the figures.
//
// All selectors extend the oracle's *current* set: pass a seeded oracle to
// compute Greedy(k', S, T_i) from Algorithm 2.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include <cstdint>

#include "core/bound_heap.h"
#include "objectives/submodular.h"
#include "util/element.h"
#include "util/rng.h"

namespace bds {

struct GreedyOptions {
  GreedyOptions() = default;
  GreedyOptions(bool stop) : stop_when_no_gain(stop) {}  // NOLINT: legacy {flag} call sites

  // Stop before exhausting the budget once the best marginal gain is <= 0.
  // Algorithm 2 as written always runs k' iterations; the experiments (and
  // any sane deployment) stop early, so callers choose.
  bool stop_when_no_gain = false;
};

struct GreedyResult {
  std::vector<ElementId> picks;  // in selection order; committed to oracle
  std::vector<double> gains;     // realized marginal gain of each pick
  double gained = 0.0;           // sum of gains

  std::size_t size() const noexcept { return picks.size(); }
};

// Naive greedy: budget passes over `candidates`, each pass O(|candidates|)
// oracle evaluations. Duplicate candidate ids are evaluated once per pass
// but can be selected at most once. Ties break toward the earlier
// candidate. Elements already in the oracle's set simply have zero gain.
GreedyResult greedy(SubmodularOracle& oracle,
                    std::span<const ElementId> candidates, std::size_t budget,
                    const GreedyOptions& options = {});

// Lazy greedy: exploits submodularity — a candidate's cached gain is an
// upper bound on its current gain, so the max-heap only re-evaluates
// candidates that could still win. Produces exactly the same selection as
// greedy() (same tie-breaking on equal gains: earlier candidate wins).
GreedyResult lazy_greedy(SubmodularOracle& oracle,
                         std::span<const ElementId> candidates,
                         std::size_t budget,
                         const GreedyOptions& options = {});

// Metering for lazy_greedy_bounded. `eval_*` records every exact gain the
// run computed (the initial scan and heap refreshes, not add() commits),
// tagged with the committed-prefix length it was computed at.
struct LazyGreedyStats {
  std::uint64_t evals = 0;          // gain evaluations actually performed
  // Evaluations a full eager re-scan (greedy()) of the same selection
  // trajectory would have performed, minus `evals`. add() commits cancel
  // out of the comparison (both sides pay them identically).
  std::uint64_t evals_avoided = 0;
  std::vector<ElementId> eval_ids;
  std::vector<double> eval_gains;
  std::vector<std::size_t> eval_prefixes;
};

// lazy_greedy with metering: same evaluations, same order, same bits.
// `bounds` must be null (detail::BoundStore is declared, never defined);
// every selection starts from a fresh scan of its candidates.
GreedyResult lazy_greedy_bounded(SubmodularOracle& oracle,
                                 std::span<const ElementId> candidates,
                                 std::size_t budget,
                                 const GreedyOptions& options,
                                 const detail::BoundStore* bounds,
                                 LazyGreedyStats* stats);

struct StochasticGreedyOptions {
  // Sample size multiplier: each pick evaluates ceil(c * N' / budget)
  // still-unselected candidates (§4.2 fixes c = 3).
  double c = 3.0;
  bool stop_when_no_gain = false;
};

// Stochastic ("lazier than lazy") greedy.
GreedyResult stochastic_greedy(SubmodularOracle& oracle,
                               std::span<const ElementId> candidates,
                               std::size_t budget, util::Rng& rng,
                               const StochasticGreedyOptions& options = {});

// Uniformly random selection of min(budget, #distinct candidates) distinct
// candidates, committed to the oracle (so the result carries their value).
GreedyResult random_subset(SubmodularOracle& oracle,
                           std::span<const ElementId> candidates,
                           std::size_t budget, util::Rng& rng);

// Shared helper: sorted-unique copy of `candidates` (deterministic
// canonical candidate order used by all selectors).
std::vector<ElementId> unique_candidates(std::span<const ElementId> candidates);

}  // namespace bds
