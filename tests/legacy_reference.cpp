// Frozen pre-engine implementations — see legacy_reference.h. Copied from
// src/core/{bicriteria,baselines,matroid}.cpp as of the commit that
// introduced dist/engine.h, with only namespace/visibility edits.
#include "legacy_reference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/greedy.h"
#include "core/machine_runner.h"
#include "dist/cluster.h"
#include "dist/partitioner.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bds::legacy {

namespace {

std::size_t default_machines(std::size_t ground_size, std::size_t k) {
  if (ground_size == 0) return 1;
  const double ratio = static_cast<double>(ground_size) /
                       static_cast<double>(std::max<std::size_t>(1, k));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::sqrt(ratio))));
}

// Shared skeleton for the one-round greedy-of-greedies algorithms.
DistributedResult one_round_merge(const SubmodularOracle& proto,
                                  std::span<const ElementId> ground,
                                  const OneRoundConfig& config,
                                  bool random_partition) {
  if (config.k == 0) {
    throw std::invalid_argument("one-round baseline: k must be positive");
  }
  const std::size_t machines = config.machines != 0
                                   ? config.machines
                                   : default_machines(ground.size(), config.k);
  const auto machine_budget = static_cast<std::size_t>(std::ceil(
      std::max(1.0, config.budget_factor) * static_cast<double>(config.k)));
  const RuntimeOptions runtime = config.runtime;

  auto central = proto.clone();
  dist::Cluster cluster(machines, runtime.cluster_options());
  util::Rng rng(util::mix64(runtime.seed));

  const dist::Partition partition =
      random_partition ? dist::partition_uniform(ground, machines, rng)
                       : dist::partition_round_robin(ground, machines);

  detail::MachineWorkerConfig worker_config;
  worker_config.selector = config.selector;
  worker_config.stochastic_c = config.stochastic_c;
  worker_config.stop_when_no_gain = config.stop_when_no_gain;
  worker_config.budget = machine_budget;
  worker_config.seed = runtime.seed;
  worker_config.round = 0;
  worker_config.central = central.get();
  worker_config.factory = config.machine_oracle_factory
                              ? &config.machine_oracle_factory
                              : nullptr;

  const auto reports =
      cluster.run_round(partition, detail::make_machine_worker(worker_config));

  util::Timer timer;
  std::vector<ElementId> pool;
  for (const auto& report : reports) {
    pool.insert(pool.end(), report.summary().begin(), report.summary().end());
  }
  const GreedyOptions central_options{config.stop_when_no_gain};
  const GreedyResult filtered =
      lazy_greedy(*central, pool, config.k, central_options);
  cluster.record_central_stage(central->evals(), timer.elapsed_seconds(),
                               filtered.picks.size());

  double best_machine_value = -1.0;
  std::span<const ElementId> best_machine;
  for (const auto& report : reports) {
    const std::span<const ElementId> prefix(
        report.summary().data(),
        std::min(report.summary().size(), config.k));
    const double v = evaluate_set(proto, prefix);
    if (v > best_machine_value) {
      best_machine_value = v;
      best_machine = prefix;
    }
  }

  DistributedResult result;
  if (best_machine_value > central->value()) {
    result.solution.assign(best_machine.begin(), best_machine.end());
    result.value = best_machine_value;
  } else {
    result.solution = filtered.picks;
    result.value = central->value();
  }

  RoundTrace trace;
  trace.round = 0;
  trace.machines = machines;
  trace.machine_budget = machine_budget;
  trace.central_budget = config.k;
  trace.items_added = result.solution.size();
  trace.value_after = result.value;
  result.rounds.push_back(trace);
  result.stats = cluster.stats();
  return result;
}

}  // namespace

DistributedResult bicriteria_greedy(const SubmodularOracle& proto,
                                    std::span<const ElementId> ground,
                                    const BicriteriaConfig& config) {
  const BicriteriaPlan plan = plan_bicriteria(config, ground.size());
  const RuntimeOptions runtime = config.runtime;

  auto central = proto.clone();
  dist::Cluster cluster(plan.machines, runtime.cluster_options());
  util::Rng scatter_rng(util::mix64(runtime.seed));

  DistributedResult result;
  const GreedyOptions central_options{config.stop_when_no_gain};

  for (std::size_t round = 0; round < plan.rounds; ++round) {
    std::size_t machine_budget = plan.machine_budget;
    std::size_t central_budget = plan.central_budget;
    if (config.mode == BicriteriaMode::kPractical &&
        round + 1 == plan.rounds) {
      const std::size_t out =
          config.output_items == 0 ? config.k : config.output_items;
      const std::size_t rem = out % plan.rounds;
      machine_budget += rem;
      central_budget += rem;
    }

    const dist::Partition partition = dist::partition_multiplicity(
        ground, plan.machines, plan.multiplicity, scatter_rng);

    detail::MachineWorkerConfig worker_config;
    worker_config.selector = config.selector;
    worker_config.stochastic_c = config.stochastic_c;
    worker_config.stop_when_no_gain = config.stop_when_no_gain;
    worker_config.budget = machine_budget;
    worker_config.seed = runtime.seed;
    worker_config.round = round;
    worker_config.central = central.get();
    worker_config.factory = config.machine_oracle_factory
                                ? &config.machine_oracle_factory
                                : nullptr;

    const std::vector<dist::MachineReport> reports =
        cluster.run_round(partition,
                          detail::make_machine_worker(worker_config));

    util::Timer central_timer;
    const std::uint64_t evals_before = central->evals();
    std::size_t added = 0;

    if (config.mode == BicriteriaMode::kHybrid) {
      for (const ElementId x : reports.front().summary()) {
        const double g = central->add(x);
        if (g > 0.0 || !config.stop_when_no_gain) {
          result.solution.push_back(x);
          ++added;
        }
      }
      std::vector<ElementId> pool;
      for (std::size_t i = 1; i < reports.size(); ++i) {
        pool.insert(pool.end(), reports[i].summary().begin(),
                    reports[i].summary().end());
      }
      const GreedyResult filtered =
          lazy_greedy(*central, pool, central_budget, central_options);
      result.solution.insert(result.solution.end(), filtered.picks.begin(),
                             filtered.picks.end());
      added += filtered.picks.size();
    } else {
      std::vector<ElementId> pool;
      for (const auto& report : reports) {
        pool.insert(pool.end(), report.summary().begin(),
                    report.summary().end());
      }
      const GreedyResult filtered =
          lazy_greedy(*central, pool, central_budget, central_options);
      result.solution.insert(result.solution.end(), filtered.picks.begin(),
                             filtered.picks.end());
      added += filtered.picks.size();
    }

    cluster.record_central_stage(central->evals() - evals_before,
                                 central_timer.elapsed_seconds(), added);

    RoundTrace trace;
    trace.round = round;
    trace.alpha = plan.alpha;
    trace.machines = plan.machines;
    trace.machine_budget = machine_budget;
    trace.central_budget = central_budget;
    trace.items_added = added;
    trace.value_after = central->value();
    result.rounds.push_back(trace);
  }

  result.value = central->value();
  result.stats = cluster.stats();
  return result;
}

DistributedResult greedi(const SubmodularOracle& proto,
                         std::span<const ElementId> ground,
                         const OneRoundConfig& config) {
  return one_round_merge(proto, ground, config, /*random_partition=*/false);
}

DistributedResult rand_greedi(const SubmodularOracle& proto,
                              std::span<const ElementId> ground,
                              const OneRoundConfig& config) {
  return one_round_merge(proto, ground, config, /*random_partition=*/true);
}

DistributedResult pseudo_greedy(const SubmodularOracle& proto,
                                std::span<const ElementId> ground,
                                OneRoundConfig config) {
  if (config.budget_factor <= 1.0) config.budget_factor = 4.0;
  return one_round_merge(proto, ground, config, /*random_partition=*/true);
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
  const std::size_t machines = config.machines != 0
                                   ? config.machines
                                   : default_machines(ground.size(), config.k);

  const RuntimeOptions runtime = config.runtime;
  auto central = proto.clone();
  dist::Cluster cluster(machines, runtime.cluster_options());
  util::Rng rng(util::mix64(runtime.seed));

  const GreedyOptions central_options{config.stop_when_no_gain};

  DistributedResult result;
  for (std::size_t round = 0; round < rounds; ++round) {
    const dist::Partition partition =
        dist::partition_uniform(ground, machines, rng);

    detail::MachineWorkerConfig worker_config;
    worker_config.selector = config.selector;
    worker_config.stochastic_c = config.stochastic_c;
    worker_config.stop_when_no_gain = config.stop_when_no_gain;
    worker_config.budget = config.k;
    worker_config.seed = runtime.seed;
    worker_config.round = round;
    worker_config.central = central.get();
    worker_config.factory = config.machine_oracle_factory
                                ? &config.machine_oracle_factory
                                : nullptr;

    const auto reports = cluster.run_round(
        partition, detail::make_machine_worker(worker_config));

    util::Timer timer;
    const std::uint64_t evals_before = central->evals();
    std::vector<ElementId> pool;
    for (const auto& report : reports) {
      pool.insert(pool.end(), report.summary().begin(),
                  report.summary().end());
    }
    const GreedyResult filtered =
        lazy_greedy(*central, pool, config.k, central_options);
    cluster.record_central_stage(central->evals() - evals_before,
                                 timer.elapsed_seconds(),
                                 filtered.picks.size());
    result.solution.insert(result.solution.end(), filtered.picks.begin(),
                           filtered.picks.end());

    RoundTrace trace;
    trace.round = round;
    trace.machines = machines;
    trace.machine_budget = config.k;
    trace.central_budget = config.k;
    trace.items_added = filtered.picks.size();
    trace.value_after = central->value();
    result.rounds.push_back(trace);
  }

  result.value = central->value();
  result.stats = cluster.stats();
  return result;
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
  const std::size_t machines = config.machines != 0
                                   ? config.machines
                                   : default_machines(ground.size(), config.k);

  const RuntimeOptions runtime = config.runtime;
  auto central = proto.clone();
  dist::Cluster cluster(machines, runtime.cluster_options());
  util::Rng rng(util::mix64(runtime.seed));

  DistributedResult result;
  std::vector<ElementId> pool;
  std::vector<ElementId> best_machine;
  double best_machine_value = -1.0;

  for (std::size_t round = 0; round < rounds; ++round) {
    dist::Partition partition =
        dist::partition_uniform(ground, machines, rng);
    for (auto& shard : partition) {
      shard.insert(shard.end(), pool.begin(), pool.end());
    }

    detail::MachineWorkerConfig worker_config;
    worker_config.selector = config.selector;
    worker_config.stochastic_c = config.stochastic_c;
    worker_config.stop_when_no_gain = config.stop_when_no_gain;
    worker_config.budget = config.k;
    worker_config.seed = runtime.seed;
    worker_config.round = round;
    worker_config.central = central.get();
    worker_config.factory = config.machine_oracle_factory
                                ? &config.machine_oracle_factory
                                : nullptr;

    const auto reports = cluster.run_round(
        partition, detail::make_machine_worker(worker_config));

    util::Timer timer;
    std::size_t gathered = 0;
    for (const auto& report : reports) {
      pool.insert(pool.end(), report.summary().begin(),
                  report.summary().end());
      gathered += report.summary().size();
      const double v = evaluate_set(proto, report.summary());
      if (v > best_machine_value) {
        best_machine_value = v;
        best_machine = report.summary();
      }
    }
    pool = unique_candidates(pool);
    cluster.record_central_stage(0, timer.elapsed_seconds(), 0);

    RoundTrace trace;
    trace.round = round;
    trace.machines = machines;
    trace.machine_budget = config.k;
    trace.central_budget = 0;
    trace.items_added = gathered;
    trace.value_after = best_machine_value;
    result.rounds.push_back(trace);
  }

  util::Timer final_timer;
  const GreedyOptions final_options{config.stop_when_no_gain};
  const GreedyResult filtered =
      lazy_greedy(*central, pool, config.k, final_options);
  cluster.mutable_stats().rounds.back().central_evals = central->evals();
  cluster.mutable_stats().rounds.back().central_seconds +=
      final_timer.elapsed_seconds();
  cluster.mutable_stats().rounds.back().central_selected =
      filtered.picks.size();

  if (best_machine_value > central->value()) {
    result.solution = best_machine;
    result.value = best_machine_value;
  } else {
    result.solution = filtered.picks;
    result.value = central->value();
  }
  result.rounds.back().central_budget = config.k;
  result.rounds.back().value_after = result.value;
  result.stats = cluster.stats();
  return result;
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
  const std::size_t machines = config.machines != 0
                                   ? config.machines
                                   : default_machines(ground.size(), config.k);

  const RuntimeOptions runtime = config.runtime;
  auto central = proto.clone();
  dist::Cluster cluster(machines, runtime.cluster_options());
  util::Rng rng(util::mix64(runtime.seed));

  DistributedResult result;
  if (ground.empty()) {
    result.stats = cluster.stats();
    return result;
  }

  double delta = 0.0;
  {
    auto probe = proto.clone();
    for (const ElementId x : ground) delta = std::max(delta, probe->gain(x));
  }
  if (delta <= 0.0) {
    result.stats = cluster.stats();
    return result;
  }

  const double floor_tau =
      config.epsilon * delta / static_cast<double>(config.k);
  double tau = delta;
  std::size_t round = 0;

  while (result.solution.size() < config.k && tau >= floor_tau) {
    const std::size_t remaining = config.k - result.solution.size();
    const dist::Partition partition =
        dist::partition_uniform(ground, machines, rng);

    const double threshold = tau;
    const SubmodularOracle* central_ptr = central.get();
    const auto worker = [threshold, remaining, central_ptr](
                            std::size_t,
                            std::span<const ElementId> shard)
        -> dist::WorkerOutput {
      auto oracle = central_ptr->shard_view(shard);
      dist::WorkerOutput output;
      for (const ElementId x : shard) {
        if (output.summary.size() >= remaining) break;
        if (oracle->gain(x) >= threshold) {
          oracle->add(x);
          output.summary.push_back(x);
        }
      }
      output.oracle_evals = oracle->evals();
      output.state_bytes = oracle->state_bytes();
      return output;
    };
    const auto reports = cluster.run_round(partition, worker);

    util::Timer timer;
    const std::uint64_t evals_before = central->evals();
    std::size_t added = 0;
    for (const auto& report : reports) {
      for (const ElementId x : report.summary()) {
        if (result.solution.size() >= config.k) break;
        if (central->gain(x) >= threshold) {
          central->add(x);
          result.solution.push_back(x);
          ++added;
        }
      }
    }
    cluster.record_central_stage(central->evals() - evals_before,
                                 timer.elapsed_seconds(), added);

    RoundTrace trace;
    trace.round = round++;
    trace.machines = machines;
    trace.machine_budget = remaining;
    trace.central_budget = remaining;
    trace.items_added = added;
    trace.value_after = central->value();
    result.rounds.push_back(trace);

    tau *= (1.0 - config.epsilon);
  }

  result.value = central->value();
  result.stats = cluster.stats();
  return result;
}

DistributedResult rand_greedi_matroid(const SubmodularOracle& proto,
                                      std::span<const ElementId> ground,
                                      const MatroidConstraint& constraint,
                                      const MatroidDistributedConfig& config) {
  const std::size_t rank = std::max<std::size_t>(1, constraint.rank());
  std::size_t machines = config.machines;
  if (machines == 0) {
    machines = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(std::sqrt(
               double(std::max<std::size_t>(1, ground.size())) /
               double(rank)))));
  }

  const RuntimeOptions runtime = config.runtime;
  auto central = proto.clone();
  dist::Cluster cluster(machines, runtime.cluster_options());
  util::Rng rng(util::mix64(runtime.seed));
  const dist::Partition partition =
      dist::partition_uniform(ground, machines, rng);

  const auto worker = [&proto, &constraint](
                          std::size_t, std::span<const ElementId> shard)
      -> dist::WorkerOutput {
    auto oracle = proto.clone();
    auto local = constraint.clone();
    const auto selection = lazy_greedy_matroid(*oracle, shard, *local);
    dist::WorkerOutput output;
    output.summary = selection.picks;
    output.oracle_evals = oracle->evals();
    return output;
  };
  const auto reports = cluster.run_round(partition, worker);

  util::Timer timer;
  std::vector<ElementId> pool;
  for (const auto& report : reports) {
    pool.insert(pool.end(), report.summary().begin(), report.summary().end());
  }
  auto central_constraint = constraint.clone();
  const auto filtered =
      lazy_greedy_matroid(*central, pool, *central_constraint);
  cluster.record_central_stage(central->evals(), timer.elapsed_seconds(),
                               filtered.picks.size());

  double best_machine_value = -1.0;
  std::span<const ElementId> best_machine;
  for (const auto& report : reports) {
    const double v = evaluate_set(proto, report.summary());
    if (v > best_machine_value) {
      best_machine_value = v;
      best_machine = report.summary();
    }
  }

  DistributedResult result;
  if (best_machine_value > central->value()) {
    result.solution.assign(best_machine.begin(), best_machine.end());
    result.value = best_machine_value;
  } else {
    result.solution = filtered.picks;
    result.value = central->value();
  }

  RoundTrace trace;
  trace.round = 0;
  trace.machines = machines;
  trace.machine_budget = rank;
  trace.central_budget = rank;
  trace.items_added = result.solution.size();
  trace.value_after = result.value;
  result.rounds.push_back(trace);
  result.stats = cluster.stats();
  return result;
}

}  // namespace bds::legacy
