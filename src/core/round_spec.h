// Declarative round programs — the one place a distributed round is defined.
//
// Every distributed algorithm in this repository (the BicriteriaGreedy
// variants and all Table-1 baselines, plus the matroid extension) is an
// instance of the same MapReduce skeleton:
//
//   scatter -> local greedy -> gather -> coordinator filter [-> merge]
//
// Instead of hand-copying that loop per algorithm, each algorithm *declares*
// its rounds as `RoundSpec`s inside a `RoundProgram`, and the shared
// `RoundEngine` (dist/engine.h) executes them: it owns the coordinator
// oracle, the cluster simulator, the partitioning RNG, the stats/trace
// emission and — because there is now exactly one loop — checkpoint/resume
// of long multi-round runs.
//
// The vocabulary below covers the whole zoo:
//   * partition   — round-robin / uniform / multiplicity-C placement;
//   * worker      — a greedy selector (Algorithm 2 and friends) or a
//                   threshold-τ accept pass (GreedyScaling), or a fully
//                   custom WorkerFn (matroid machines);
//   * filter      — lazy-greedy-k over the gathered union, adopt-S1-then-
//                   greedy (HybridAlg), threshold-accept (GreedyScaling),
//                   pool-accumulate (ParallelAlg), or a custom callable
//                   (matroid coordinator);
//   * merge       — plain (coordinator solution wins) or best-of-machines
//                   (GreeDi-family output rule), optionally with a final
//                   lazy-greedy filter over the accumulated pool.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/distributed.h"
#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// How the ground set is scattered across the program's machines.
enum class PartitionStrategy : std::uint8_t {
  kRoundRobin,    // deterministic, order-based (GreeDi)
  kUniform,       // each item to one uniformly random machine
  kMultiplicity,  // each item to C distinct random machines (§2.2)
};

// Worker spec: each machine greedily extends the coordinator's S over its
// shard with the configured selector, returning its first `budget` picks.
struct SelectorWorkerSpec {
  MachineSelector selector = MachineSelector::kLazyGreedy;
  double stochastic_c = 3.0;
  bool stop_when_no_gain = true;
  std::size_t budget = 0;
};

// Worker spec: each machine keeps shard items whose marginal gain on top of
// S ∪ (local picks) clears `threshold`, up to `budget` of them
// (GreedyScaling's per-round pass).
struct ThresholdWorkerSpec {
  double threshold = 0.0;
  std::size_t budget = 0;
};

// Escape hatch for workers outside the two canonical shapes (the matroid
// machines run constrained greedy on a fresh oracle). The callable must
// satisfy dist::Cluster::WorkerFn's contract: deterministic in
// (machine, shard), safe to invoke concurrently and more than once.
using CustomWorkerFn = dist::Cluster::WorkerFn;

using WorkerSpec =
    std::variant<SelectorWorkerSpec, ThresholdWorkerSpec, CustomWorkerFn>;

// Coordinator filter spec: lazy greedy `budget` over the union of delivered
// summaries, appended to the running solution.
struct GreedyFilterSpec {
  std::size_t budget = 0;
};

// HybridAlg (Thm 2.4): adopt machine 1's summary wholesale (zero-gain
// members may be dropped: for monotone f they can never gain later), then
// lazy greedy `budget` over the union of the remaining machines' summaries.
struct AdoptThenGreedyFilterSpec {
  std::size_t budget = 0;
};

// GreedyScaling: re-check each gathered item against `threshold` on the
// coordinator oracle, keeping accepted items until the total solution
// reaches `solution_cap`.
struct ThresholdFilterSpec {
  double threshold = 0.0;
  std::size_t solution_cap = 0;
};

// ParallelAlg: no per-round selection — gathered summaries join the
// engine's accumulated candidate pool (deduplicated, canonical order),
// which later rounds may broadcast and the merge stage may filter.
struct PoolFilterSpec {};

// Escape hatch for coordinator filters outside the canonical shapes (the
// matroid coordinator runs constrained lazy greedy). Receives the
// coordinator oracle and the concatenated delivered summaries; returns the
// picks, which the engine appends to the running solution.
struct CustomFilterSpec {
  std::function<std::vector<ElementId>(SubmodularOracle& central,
                                       std::span<const ElementId> pool)>
      filter;
};

using FilterSpec =
    std::variant<GreedyFilterSpec, AdoptThenGreedyFilterSpec,
                 ThresholdFilterSpec, PoolFilterSpec, CustomFilterSpec>;

// One declared round. `alpha`, `machine_budget` and `central_budget` are
// recorded verbatim into the round's RoundTrace.
struct RoundSpec {
  PartitionStrategy partition = PartitionStrategy::kUniform;
  std::size_t multiplicity = 1;  // kMultiplicity placements per item
  // Append the engine's accumulated candidate pool to every shard before
  // the workers run (ParallelAlg's broadcast; metered as scatter traffic).
  bool broadcast_pool = false;

  WorkerSpec worker;
  FilterSpec filter;

  double alpha = 0.0;
  std::size_t machine_budget = 0;
  std::size_t central_budget = 0;
};

// How the engine produces the final solution once the rounds end.
enum class MergeRule : std::uint8_t {
  kPlain,           // the coordinator's accumulated solution is the output
  kBestOfMachines,  // GreeDi-family: best single machine summary may win
};

struct MergeSpec {
  MergeRule rule = MergeRule::kPlain;
  // Under kBestOfMachines each delivered summary's first `probe_prefix`
  // items are evaluated from scratch against the *fresh* prototype oracle
  // (these probes are metered into RoundStats::merge_evals).
  std::size_t probe_prefix = std::numeric_limits<std::size_t>::max();
  // When > 0, a final lazy greedy of this budget runs over the accumulated
  // candidate pool after the last round (ParallelAlg's deferred filter);
  // its evaluations fold into the last round's central stage.
  std::size_t final_filter_budget = 0;
};

// Snapshot of coordinator progress the engine exposes to the program's
// round generator (and records into checkpoints).
struct EngineProgress {
  std::size_t round = 0;          // rounds completed so far
  std::size_t solution_size = 0;  // |S| accumulated across rounds
  double value = 0.0;             // coordinator oracle's f(S)
  std::size_t pool_size = 0;      // accumulated candidate pool (deduped)
};

// A whole algorithm, declaratively: fixed execution parameters plus a
// generator that declares round r given the progress so far (returning
// std::nullopt ends the run). Generators must be *pure* in the progress
// snapshot — deriving per-round state (budgets, thresholds) from it rather
// than from captured mutable state — so a resumed run re-derives the exact
// same round sequence from a checkpoint.
struct RoundProgram {
  std::string id;          // stable name, stamped into checkpoints
  std::size_t machines = 1;
  bool stop_when_no_gain = true;  // coordinator greedy-filter option

  MergeSpec merge;

  // Independent machine oracles (see MachineOracleFactory); consulted by
  // selector workers only. Must outlive the engine run.
  const MachineOracleFactory* oracle_factory = nullptr;

  std::function<std::optional<RoundSpec>(const EngineProgress&)> next_round;
};

// ---------------------------------------------------------------------------
// Checkpoint/resume

// Versioned snapshot of the engine's coordinator state after a completed
// round: enough to continue a killed multi-round run to the exact same
// output (solution ids, candidate pool, best-of-machines tracking, RNG
// stream position, accumulated stats/trace). The worker side needs nothing:
// shards are re-derived from the restored RNG and faults are a pure hash of
// (round, machine, attempt).
struct Checkpoint {
  // Format version; bumped on any serialized-field change. Loaders reject
  // versions they do not understand (no silent forward compatibility).
  // v3: RoundSpan/AttemptSpan transport + wire-byte fields.
  // v4: RoundStats and RoundSpan lost their evals_avoided fields.
  static constexpr std::uint32_t kVersion = 4;

  std::string program_id;   // RoundProgram::id of the producing run
  std::uint64_t seed = 0;   // RuntimeOptions::seed of the producing run
  std::size_t rounds_completed = 0;
  std::array<std::uint64_t, 4> rng_state{};  // partition RNG position

  std::vector<ElementId> solution;  // coordinator S, selection order
  // The coordinator oracle's exact committed set — a superset of `solution`
  // when a filter adopts zero-gain members — replayed on resume so the
  // restored oracle state matches the killed run's bit-for-bit.
  std::vector<ElementId> coordinator_set;
  std::vector<ElementId> pool;      // accumulated candidate pool
  std::vector<ElementId> best_machine;  // best-of-machines tracking
  double best_machine_value = -1.0;

  dist::ExecutionStats stats;       // completed rounds' stats + trace spans
  std::vector<RoundTrace> rounds;   // completed rounds' RoundTraces

  // Text serialization with bit-exact doubles (hex-encoded IEEE-754 bits).
  // deserialize throws std::invalid_argument on malformed input or a
  // version mismatch.
  std::string serialize() const;
  static Checkpoint deserialize(std::string_view text);
};

// Invoked after every completed round with the fresh snapshot.
using CheckpointSink = std::function<void(const Checkpoint&)>;

// The paper's default machine count (footnote 3), shared by every
// spec-builder: balance the per-machine shard (n/m items) against the
// coordinator's gather (m·k' items), m = ⌈√(n / k')⌉ for per-machine
// budget k'. Returns 1 for an empty ground set.
std::size_t default_machine_count(std::size_t ground_size,
                                  std::size_t machine_budget);

}  // namespace bds
