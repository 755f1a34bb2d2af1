// BicriteriaGreedy (Algorithm 1) and its two refinements — the paper's
// contribution.
//
// Common round structure, repeated r times with coordinator set S carried
// across rounds:
//   1. scatter the ground set over m machines (multiplicity 1 or C);
//   2. each machine i greedily extends a copy of S over its shard T_i,
//      returning its first `machine_budget` picks S_i (Algorithm 2);
//   3. the coordinator greedily filters ∪S_i into S under `central_budget`.
//
// Modes (Theorems 2.2-2.4; α = 3/ε^(1/r)):
//   kTheory        — Alg. 1 verbatim: multiplicity 1, machine budget αk,
//                    central budget (α²ln²α + lnα)k per round.
//   kMultiplicity  — §2.2: each item lands on C = ⌈α·lnα⌉ machines; central
//                    budget shrinks to (α·ln²α + lnα)k.
//   kHybrid        — Thm 2.4: multiplicity C; coordinator adopts S₁ whole
//                    and then greedily adds k·lnα from ∪_{i≥2} S_i, for
//                    (α + lnα)k items per round.
//   kPractical     — the experiments' configuration (§4.1): output exactly
//                    `output_items` total, ⌊out/r⌋ per round (remainder in
//                    the last), machine budget = central budget = k',
//                    m = ⌈√(n/k')⌉, multiplicity 1.
#pragma once

#include <cstdint>
#include <span>

#include "core/distributed.h"
#include "core/runtime_options.h"
#include "objectives/submodular.h"

namespace bds {

enum class BicriteriaMode { kTheory, kMultiplicity, kHybrid, kPractical };

struct BicriteriaConfig {
  BicriteriaMode mode = BicriteriaMode::kPractical;

  std::size_t k = 10;      // target cardinality (the K the guarantee is for)
  std::size_t rounds = 1;  // r >= 1
  double epsilon = 0.1;    // theory modes: drives α = 3/ε^(1/r)

  // kPractical: total output size (>= k); 0 means "k".
  std::size_t output_items = 0;

  // Machine count m; 0 selects the paper's default ⌈√(n/k')⌉ where k' is
  // the machine budget (footnote 3), raised to ⌈α·lnα⌉ in theory modes so
  // the analysis' requirement m >= α·lnα holds.
  std::size_t machines = 0;

  MachineSelector selector = MachineSelector::kLazyGreedy;
  double stochastic_c = 3.0;  // sample multiplier for kStochasticGreedy

  // Stop adding once marginal gains hit zero (recommended; Algorithm 1 as
  // written always exhausts its budgets).
  bool stop_when_no_gain = true;

  // Machines estimating on independent samples (see MachineOracleFactory).
  MachineOracleFactory machine_oracle_factory;

  // Execution-environment knobs: threads, seed, transport, fault
  // injection, tracing.
  RuntimeOptions runtime;
};

// Parameters Algorithm 1 derives from a config and ground-set size; exposed
// for tests and for printing experiment headers.
struct BicriteriaPlan {
  double alpha = 0.0;
  std::size_t machines = 0;
  std::size_t multiplicity = 1;
  std::size_t machine_budget = 0;
  std::size_t central_budget = 0;   // per round
  std::size_t rounds = 1;
  // Worst-case total output size bound from the relevant theorem.
  std::size_t output_bound = 0;
};

// Resolves the plan for a given ground-set size. Throws
// std::invalid_argument on k == 0, rounds == 0, or epsilon outside (0, 1).
BicriteriaPlan plan_bicriteria(const BicriteriaConfig& config,
                               std::size_t ground_size);

// The declarative round program behind bicriteria_greedy (dist/engine.h):
// one RoundSpec per round — multiplicity partition, selector worker with the
// plan's machine budget, greedy (or hybrid adopt-then-greedy) filter with
// the plan's central budget, practical-mode remainder folded into the last
// round. `config` must outlive the returned program (the generator captures
// it by reference).
RoundProgram make_bicriteria_program(const BicriteriaConfig& config,
                                     const BicriteriaPlan& plan);

// Runs the configured variant. `proto` must be a fresh (empty-set) oracle;
// `ground` lists the selectable element ids (normally the whole ground set).
DistributedResult bicriteria_greedy(const SubmodularOracle& proto,
                                    std::span<const ElementId> ground,
                                    const BicriteriaConfig& config);

}  // namespace bds
