#include "core/machine_runner.h"

#include <cassert>

namespace bds::detail {

GreedyResult run_selector(SubmodularOracle& oracle,
                          std::span<const ElementId> candidates,
                          std::size_t budget, MachineSelector selector,
                          double stochastic_c, bool stop_when_no_gain,
                          util::Rng& rng) {
  switch (selector) {
    case MachineSelector::kGreedy:
      return greedy(oracle, candidates, budget, {stop_when_no_gain});
    case MachineSelector::kLazyGreedy:
      return lazy_greedy(oracle, candidates, budget, {stop_when_no_gain});
    case MachineSelector::kStochasticGreedy: {
      StochasticGreedyOptions options;
      options.c = stochastic_c;
      options.stop_when_no_gain = stop_when_no_gain;
      return stochastic_greedy(oracle, candidates, budget, rng, options);
    }
  }
  assert(false && "unknown MachineSelector");
  return {};
}

util::Rng machine_rng(std::uint64_t seed, std::size_t round,
                      std::size_t machine) noexcept {
  // Two mixing stages decorrelate (seed, round, machine) triples.
  const std::uint64_t a = util::mix64(seed + 0x9e3779b97f4a7c15ULL * (round + 1));
  return util::Rng(util::mix64(a + machine + 1));
}

dist::Cluster::WorkerFn make_machine_worker(
    const MachineWorkerConfig& config) {
  assert(config.central != nullptr);
  return [config](std::size_t machine,
                  std::span<const ElementId> shard) -> dist::WorkerOutput {
    std::unique_ptr<SubmodularOracle> oracle;
    if (config.factory != nullptr && *config.factory) {
      // Independent machine oracle; replay the coordinator's accumulated S
      // so local gains are marginals on top of it (Algorithm 2's inputs).
      oracle = (*config.factory)(machine);
      for (const ElementId x : config.central->current_set()) oracle->add(x);
    } else {
      oracle = config.central->shard_view(shard);
    }
    util::Rng rng = machine_rng(config.seed, config.round, machine);
    const GreedyResult selection =
        run_selector(*oracle, shard, config.budget, config.selector,
                     config.stochastic_c, config.stop_when_no_gain, rng);
    dist::WorkerOutput output;
    output.summary = selection.picks;
    output.oracle_evals = oracle->evals();
    output.state_bytes = oracle->state_bytes();
    return output;
  };
}

dist::Cluster::WorkerFn make_threshold_worker(
    const ThresholdWorkerConfig& config) {
  assert(config.central != nullptr);
  return [config](std::size_t,
                  std::span<const ElementId> shard) -> dist::WorkerOutput {
    auto oracle = config.central->shard_view(shard);
    dist::WorkerOutput output;
    for (const ElementId x : shard) {
      if (output.summary.size() >= config.budget) break;
      if (oracle->gain(x) >= config.threshold) {
        oracle->add(x);
        output.summary.push_back(x);
      }
    }
    output.oracle_evals = oracle->evals();
    output.state_bytes = oracle->state_bytes();
    return output;
  };
}

}  // namespace bds::detail
