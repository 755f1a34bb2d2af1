#include "core/matroid.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <stdexcept>

#include "core/greedy.h"
#include "core/round_spec.h"
#include "dist/cluster.h"
#include "dist/engine.h"

namespace bds {

// ------------------------------------------------------------ constraints

CardinalityConstraint::CardinalityConstraint(std::size_t k) : k_(k) {}

bool CardinalityConstraint::feasible(ElementId x) const {
  if (chosen_.size() >= k_) return false;
  return std::find(chosen_.begin(), chosen_.end(), x) == chosen_.end();
}

void CardinalityConstraint::add(ElementId x) {
  if (!feasible(x)) {
    throw std::logic_error("CardinalityConstraint: infeasible add");
  }
  chosen_.push_back(x);
}

std::unique_ptr<MatroidConstraint> CardinalityConstraint::clone() const {
  return std::make_unique<CardinalityConstraint>(*this);
}

PartitionMatroid::PartitionMatroid(std::vector<std::uint32_t> group,
                                   std::vector<std::size_t> capacities)
    : taken_(group.size(), 0) {
  for (const std::uint32_t g : group) {
    if (g >= capacities.size()) {
      throw std::invalid_argument(
          "PartitionMatroid: group id beyond capacities");
    }
  }
  used_.assign(capacities.size(), 0);
  for (const std::size_t cap : capacities) rank_ += cap;
  group_ = std::make_shared<const std::vector<std::uint32_t>>(
      std::move(group));
  capacities_ = std::make_shared<const std::vector<std::size_t>>(
      std::move(capacities));
}

bool PartitionMatroid::feasible(ElementId x) const {
  if (x >= taken_.size() || taken_[x]) return false;
  const std::uint32_t g = (*group_)[x];
  return used_[g] < (*capacities_)[g];
}

void PartitionMatroid::add(ElementId x) {
  if (!feasible(x)) {
    throw std::logic_error("PartitionMatroid: infeasible add");
  }
  taken_[x] = 1;
  ++used_[(*group_)[x]];
  ++total_;
}

std::unique_ptr<MatroidConstraint> PartitionMatroid::clone() const {
  return std::make_unique<PartitionMatroid>(*this);
}

LaminarBound::LaminarBound(PartitionMatroid partition, std::size_t global_cap)
    : inner_(std::move(partition)), global_cap_(global_cap) {}

bool LaminarBound::feasible(ElementId x) const {
  return inner_.size() < global_cap_ && inner_.feasible(x);
}

void LaminarBound::add(ElementId x) {
  if (inner_.size() >= global_cap_) {
    throw std::logic_error("LaminarBound: global cap reached");
  }
  inner_.add(x);
}

std::size_t LaminarBound::rank() const noexcept {
  return std::min(inner_.rank(), global_cap_);
}

std::unique_ptr<MatroidConstraint> LaminarBound::clone() const {
  return std::make_unique<LaminarBound>(*this);
}

// ------------------------------------------------------------- algorithms

ConstrainedGreedyResult greedy_matroid(SubmodularOracle& oracle,
                                       std::span<const ElementId> candidates,
                                       MatroidConstraint& constraint,
                                       bool stop_when_no_gain) {
  const std::vector<ElementId> pool = unique_candidates(candidates);
  std::vector<bool> taken(pool.size(), false);

  ConstrainedGreedyResult result;
  for (;;) {
    double best_gain = 0.0;
    std::size_t best_idx = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i] || !constraint.feasible(pool[i])) continue;
      const double g = oracle.gain(pool[i]);
      if (best_idx == pool.size() || g > best_gain) {
        best_gain = g;
        best_idx = i;
      }
    }
    if (best_idx == pool.size()) break;  // nothing feasible left
    if (stop_when_no_gain && best_gain <= 0.0) break;

    taken[best_idx] = true;
    constraint.add(pool[best_idx]);
    const double realized = oracle.add(pool[best_idx]);
    result.picks.push_back(pool[best_idx]);
    result.gains.push_back(realized);
    result.gained += realized;
  }
  return result;
}

ConstrainedGreedyResult lazy_greedy_matroid(
    SubmodularOracle& oracle, std::span<const ElementId> candidates,
    MatroidConstraint& constraint, bool stop_when_no_gain) {
  const std::vector<ElementId> pool = unique_candidates(candidates);

  struct Entry {
    double gain;
    std::size_t idx;
    std::size_t stamp;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.gain != b.gain) return a.gain < b.gain;
      return a.idx > b.idx;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Less> heap;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    heap.push(Entry{oracle.gain(pool[i]), i, 0});
  }

  ConstrainedGreedyResult result;
  std::size_t iter = 0;
  while (!heap.empty()) {
    // Discard infeasible tops (their group/cap filled up); refresh stale
    // gains; select when the top is both feasible and current.
    Entry top = heap.top();
    heap.pop();
    if (!constraint.feasible(pool[top.idx])) continue;
    if (top.stamp != iter) {
      top.gain = oracle.gain(pool[top.idx]);
      top.stamp = iter;
      heap.push(top);
      continue;
    }
    if (stop_when_no_gain && top.gain <= 0.0) break;

    constraint.add(pool[top.idx]);
    const double realized = oracle.add(pool[top.idx]);
    result.picks.push_back(pool[top.idx]);
    result.gains.push_back(realized);
    result.gained += realized;
    ++iter;
  }
  return result;
}

DistributedResult rand_greedi_matroid(
    const SubmodularOracle& proto, std::span<const ElementId> ground,
    const MatroidConstraint& constraint,
    const MatroidDistributedConfig& config) {
  const std::size_t rank = std::max<std::size_t>(1, constraint.rank());
  const std::size_t machines = config.machines != 0
                                   ? config.machines
                                   : default_machine_count(ground.size(), rank);

  // The matroid variant sits outside the two canonical worker/filter shapes
  // (machines run constrained greedy on a *fresh* oracle, the coordinator
  // runs constrained lazy greedy), so it uses the engine's custom hooks.
  RoundProgram program;
  program.id = "rand-greedi-matroid";
  program.machines = machines;
  program.merge.rule = MergeRule::kBestOfMachines;
  program.next_round =
      [&proto, &constraint, rank](const EngineProgress& progress)
      -> std::optional<RoundSpec> {
    if (progress.round >= 1) return std::nullopt;
    RoundSpec spec;
    spec.partition = PartitionStrategy::kUniform;
    spec.worker = CustomWorkerFn(
        [&proto, &constraint](std::size_t, std::span<const ElementId> shard)
            -> dist::WorkerOutput {
          auto oracle = proto.clone();
          auto local = constraint.clone();
          const auto selection = lazy_greedy_matroid(*oracle, shard, *local);
          dist::WorkerOutput output;
          output.summary = selection.picks;
          output.oracle_evals = oracle->evals();
          return output;
        });
    spec.filter = CustomFilterSpec{
        [&constraint](SubmodularOracle& central,
                      std::span<const ElementId> pool) {
          auto central_constraint = constraint.clone();
          return lazy_greedy_matroid(central, pool, *central_constraint)
              .picks;
        }};
    spec.machine_budget = rank;
    spec.central_budget = rank;
    return spec;
  };
  return run_round_program(proto, ground, program,
                           config.runtime);
}

}  // namespace bds
