#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/greedy.h"
#include "core/round_spec.h"
#include "dist/engine.h"
#include "dist/cluster.h"

namespace bds {

namespace {

// Shared spec-builder for the one-round greedy-of-greedies algorithms. The
// "best-of" merge (coordinator solution vs best single machine summary) is
// the GreeDi-family output rule.
DistributedResult one_round_merge(const SubmodularOracle& proto,
                                  std::span<const ElementId> ground,
                                  const OneRoundConfig& config,
                                  bool random_partition, const char* id) {
  if (config.k == 0) {
    throw std::invalid_argument("one-round baseline: k must be positive");
  }
  const std::size_t machines =
      config.machines != 0 ? config.machines
                           : default_machine_count(ground.size(), config.k);
  const auto machine_budget = static_cast<std::size_t>(std::ceil(
      std::max(1.0, config.budget_factor) * static_cast<double>(config.k)));

  RoundProgram program;
  program.id = id;
  program.machines = machines;
  program.stop_when_no_gain = config.stop_when_no_gain;
  // Each machine's own k-prefix may beat the filtered coordinator set
  // (GreeDi outputs the max of the two).
  program.merge.rule = MergeRule::kBestOfMachines;
  program.merge.probe_prefix = config.k;
  program.oracle_factory = config.machine_oracle_factory
                               ? &config.machine_oracle_factory
                               : nullptr;
  program.next_round =
      [&config, random_partition, machine_budget](
          const EngineProgress& progress) -> std::optional<RoundSpec> {
    if (progress.round >= 1) return std::nullopt;
    RoundSpec spec;
    spec.partition = random_partition ? PartitionStrategy::kUniform
                                      : PartitionStrategy::kRoundRobin;
    spec.worker =
        SelectorWorkerSpec{config.selector, config.stochastic_c,
                           config.stop_when_no_gain, machine_budget};
    spec.filter = GreedyFilterSpec{config.k};
    spec.machine_budget = machine_budget;
    spec.central_budget = config.k;
    return spec;
  };
  return run_round_program(proto, ground, program,
                           config.runtime);
}

}  // namespace

DistributedResult greedi(const SubmodularOracle& proto,
                         std::span<const ElementId> ground,
                         const OneRoundConfig& config) {
  return one_round_merge(proto, ground, config, /*random_partition=*/false,
                         "greedi");
}

DistributedResult rand_greedi(const SubmodularOracle& proto,
                              std::span<const ElementId> ground,
                              const OneRoundConfig& config) {
  return one_round_merge(proto, ground, config, /*random_partition=*/true,
                         "rand-greedi");
}

DistributedResult pseudo_greedy(const SubmodularOracle& proto,
                                std::span<const ElementId> ground,
                                OneRoundConfig config) {
  if (config.budget_factor <= 1.0) config.budget_factor = 4.0;
  return one_round_merge(proto, ground, config, /*random_partition=*/true,
                         "pseudo-greedy");
}

DistributedResult naive_distributed_greedy(
    const SubmodularOracle& proto, std::span<const ElementId> ground,
    const NaiveDistributedConfig& config) {
  if (config.k == 0) {
    throw std::invalid_argument("naive distributed: k must be positive");
  }
  if (!(config.epsilon > 0.0 && config.epsilon < 1.0)) {
    throw std::invalid_argument("naive distributed: epsilon in (0,1)");
  }
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(std::log(1.0 / config.epsilon))));
  const std::size_t machines =
      config.machines != 0 ? config.machines
                           : default_machine_count(ground.size(), config.k);

  RoundProgram program;
  program.id = "naive-distributed";
  program.machines = machines;
  program.stop_when_no_gain = config.stop_when_no_gain;
  program.oracle_factory = config.machine_oracle_factory
                               ? &config.machine_oracle_factory
                               : nullptr;
  program.next_round =
      [&config, rounds](const EngineProgress& progress)
      -> std::optional<RoundSpec> {
    if (progress.round >= rounds) return std::nullopt;
    RoundSpec spec;
    spec.partition = PartitionStrategy::kUniform;
    spec.worker = SelectorWorkerSpec{config.selector, config.stochastic_c,
                                     config.stop_when_no_gain, config.k};
    spec.filter = GreedyFilterSpec{config.k};
    spec.machine_budget = config.k;
    spec.central_budget = config.k;
    return spec;
  };
  return run_round_program(proto, ground, program,
                           config.runtime);
}

DistributedResult parallel_alg(const SubmodularOracle& proto,
                               std::span<const ElementId> ground,
                               const ParallelAlgConfig& config) {
  if (config.k == 0) {
    throw std::invalid_argument("parallel alg: k must be positive");
  }
  if (!(config.epsilon > 0.0 && config.epsilon < 1.0)) {
    throw std::invalid_argument("parallel alg: epsilon in (0,1)");
  }
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(1.0 / config.epsilon)));
  const std::size_t machines =
      config.machines != 0 ? config.machines
                           : default_machine_count(ground.size(), config.k);

  RoundProgram program;
  program.id = "parallel-alg";
  program.machines = machines;
  program.stop_when_no_gain = config.stop_when_no_gain;
  // No per-round selection: summaries accumulate into the candidate pool;
  // after round r a single lazy greedy k filters the pool (this union is
  // the largest candidate set any coordinator stage sees — O(m·k/ε) ids),
  // competing against the best single machine summary.
  program.merge.rule = MergeRule::kBestOfMachines;
  program.merge.probe_prefix = std::numeric_limits<std::size_t>::max();
  program.merge.final_filter_budget = config.k;
  program.oracle_factory = config.machine_oracle_factory
                               ? &config.machine_oracle_factory
                               : nullptr;
  program.next_round =
      [&config, rounds](const EngineProgress& progress)
      -> std::optional<RoundSpec> {
    if (progress.round >= rounds) return std::nullopt;
    RoundSpec spec;
    spec.partition = PartitionStrategy::kUniform;
    // Broadcasting the accumulated pool to every machine makes the cluster
    // meter the broadcast as scattered elements, matching [6]'s
    // communication model.
    spec.broadcast_pool = true;
    spec.worker = SelectorWorkerSpec{config.selector, config.stochastic_c,
                                     config.stop_when_no_gain, config.k};
    spec.filter = PoolFilterSpec{};
    spec.machine_budget = config.k;
    spec.central_budget = 0;  // filtering happens once, after round r
    return spec;
  };
  return run_round_program(proto, ground, program,
                           config.runtime);
}

DistributedResult greedy_scaling(const SubmodularOracle& proto,
                                 std::span<const ElementId> ground,
                                 const GreedyScalingConfig& config) {
  if (config.k == 0) {
    throw std::invalid_argument("greedy scaling: k must be positive");
  }
  if (!(config.epsilon > 0.0 && config.epsilon < 1.0)) {
    throw std::invalid_argument("greedy scaling: epsilon in (0,1)");
  }
  const std::size_t machines =
      config.machines != 0 ? config.machines
                           : default_machine_count(ground.size(), config.k);

  // Δ = max singleton value (one oracle pass; in MapReduce this is a cheap
  // max-reduce, so we do not charge it as a round).
  double delta = 0.0;
  if (!ground.empty()) {
    auto probe = proto.clone();
    for (const ElementId x : ground) delta = std::max(delta, probe->gain(x));
  }
  const double floor_tau =
      config.epsilon * delta / static_cast<double>(config.k);

  RoundProgram program;
  program.id = "greedy-scaling";
  program.machines = machines;
  program.stop_when_no_gain = config.stop_when_no_gain;
  program.next_round =
      [&config, delta, floor_tau](const EngineProgress& progress)
      -> std::optional<RoundSpec> {
    if (delta <= 0.0) return std::nullopt;  // empty ground / zero objective
    if (progress.solution_size >= config.k) return std::nullopt;
    // τ_r = Δ·(1-ε)^r, recomputed by repeated multiplication so round r's
    // threshold is bit-identical whether reached live or after a resume.
    double tau = delta;
    for (std::size_t i = 0; i < progress.round; ++i) {
      tau *= (1.0 - config.epsilon);
    }
    if (tau < floor_tau) return std::nullopt;

    const std::size_t remaining = config.k - progress.solution_size;
    RoundSpec spec;
    spec.partition = PartitionStrategy::kUniform;
    spec.worker = ThresholdWorkerSpec{tau, remaining};
    spec.filter = ThresholdFilterSpec{tau, config.k};
    spec.machine_budget = remaining;
    spec.central_budget = remaining;
    return spec;
  };
  return run_round_program(proto, ground, program,
                           config.runtime);
}

DistributedResult centralized_greedy(const SubmodularOracle& proto,
                                     std::span<const ElementId> ground,
                                     std::size_t k, bool lazy) {
  auto oracle = proto.clone();
  const GreedyResult selection =
      lazy ? lazy_greedy(*oracle, ground, k, {true})
           : greedy(*oracle, ground, k, {true});
  DistributedResult result;
  result.solution = selection.picks;
  result.value = oracle->value();

  RoundTrace trace;
  trace.machines = 1;
  trace.machine_budget = k;
  trace.central_budget = k;
  trace.items_added = selection.picks.size();
  trace.value_after = result.value;
  result.rounds.push_back(trace);

  dist::RoundStats stats;
  stats.machines_used = 1;
  stats.elements_scattered = ground.size();
  stats.worker_evals = oracle->evals();
  stats.max_machine_evals = oracle->evals();
  result.stats.rounds.push_back(stats);
  return result;
}

DistributedResult centralized_bicriteria(const SubmodularOracle& proto,
                                         std::span<const ElementId> ground,
                                         std::size_t k, double epsilon,
                                         bool lazy) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("centralized bicriteria: epsilon in (0,1)");
  }
  const auto budget = static_cast<std::size_t>(std::ceil(
      static_cast<double>(k) * std::log(1.0 / epsilon)));
  return centralized_greedy(proto, ground, std::max(k, budget), lazy);
}

}  // namespace bds
