// Shared result/trace types for all distributed algorithms (BicriteriaGreedy
// variants and the Table-1 baselines), plus the knobs that control how a
// logical machine runs its local greedy pass.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/cluster.h"
#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// How each worker machine selects its summary.
enum class MachineSelector {
  kGreedy,            // Algorithm 2 verbatim
  kLazyGreedy,        // same output, fewer evaluations (default)
  kStochasticGreedy,  // §4.2 sampled variant for expensive oracles
};

// Optional hook: build machine i's *fresh* (empty-set) oracle. When unset,
// machines clone the coordinator's oracle — for sampled oracles, supply a
// factory so each machine estimates on its own independent sample (§4.2).
using MachineOracleFactory =
    std::function<std::unique_ptr<SubmodularOracle>(std::size_t machine)>;

// Per-round trace of a distributed execution.
struct RoundTrace {
  std::size_t round = 0;           // 0-based
  double alpha = 0.0;              // α used this round (theory modes)
  std::size_t machines = 0;        // m
  std::size_t machine_budget = 0;  // items each machine may return
  std::size_t central_budget = 0;  // items the coordinator may keep
  std::size_t items_added = 0;     // items actually added to S this round
  double value_after = 0.0;        // coordinator oracle value after round
};

struct DistributedResult {
  std::vector<ElementId> solution;  // selection order, across rounds
  double value = 0.0;               // coordinator oracle's final value
  dist::ExecutionStats stats;       // rounds / communication / critical path
  std::vector<RoundTrace> rounds;
  // Evaluations charged to the coordinator oracle over this run (engine
  // runs only; centralized references leave it 0). For a fresh run this
  // equals Σ stats.rounds[i].central_evals — the per-round deltas account
  // for every coordinator evaluation exactly once; a resumed run reports
  // only the resumed tail (earlier rounds' evals live in the checkpoint).
  std::uint64_t coordinator_evals = 0;

  std::size_t size() const noexcept { return solution.size(); }
};

}  // namespace bds
