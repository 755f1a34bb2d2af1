// Internal glue shared by the distributed algorithms: builds the worker
// functor a dist::Cluster round executes on every logical machine, and
// dispatches on the configured local selector. Not part of the public API
// surface (subject to change), but exposed for white-box tests.
#pragma once

#include <cstdint>
#include <span>

#include "core/distributed.h"
#include "core/greedy.h"
#include "dist/cluster.h"
#include "objectives/submodular.h"
#include "util/rng.h"

namespace bds::detail {

// Runs the selector named by `selector` on `oracle` over `candidates`.
GreedyResult run_selector(SubmodularOracle& oracle,
                          std::span<const ElementId> candidates,
                          std::size_t budget, MachineSelector selector,
                          double stochastic_c, bool stop_when_no_gain,
                          util::Rng& rng);

struct MachineWorkerConfig {
  MachineSelector selector = MachineSelector::kLazyGreedy;
  double stochastic_c = 3.0;
  bool stop_when_no_gain = true;
  std::size_t budget = 0;
  std::uint64_t seed = 1;   // base seed; per-machine streams are derived
  std::size_t round = 0;    // round index, mixed into per-machine seeds
  // Coordinator oracle whose state (the accumulated S) machines start from.
  const SubmodularOracle* central = nullptr;
  // Optional factory for independent machine oracles; when set, the fresh
  // oracle is seeded with central->current_set() before selection.
  // Otherwise the machine runs central->shard_view(shard), a clone.
  const MachineOracleFactory* factory = nullptr;
};

// Builds the worker functor for one cluster round. The returned callable is
// invoked concurrently — possibly more than once per machine when the
// cluster retries a faulted attempt, which is safe because it is a pure
// function of (machine, shard) — and it only reads the coordinator oracle
// (each machine works on its own clone) and the config, both of which must
// outlive the round.
dist::Cluster::WorkerFn make_machine_worker(const MachineWorkerConfig& config);

// GreedyScaling's per-round worker: keep shard items whose marginal gain on
// top of S ∪ (local picks) clears `threshold`, up to `budget` of them.
struct ThresholdWorkerConfig {
  double threshold = 0.0;
  std::size_t budget = 0;
  const SubmodularOracle* central = nullptr;
};

// Same contract as make_machine_worker: pure in (machine, shard), safe to
// invoke concurrently and repeatedly. Shared by the in-process engine and
// bds_worker so both transports execute the identical accept loop.
dist::Cluster::WorkerFn make_threshold_worker(
    const ThresholdWorkerConfig& config);

// Deterministic per-(seed, round, machine) RNG stream.
util::Rng machine_rng(std::uint64_t seed, std::size_t round,
                      std::size_t machine) noexcept;

}  // namespace bds::detail
