// The paper's optimum upper bound (§4.1, "Upperbound"): for any solution S,
//
//   f(OPT_k) <= f(S) + Σ (top-k marginal gains Δ(x, S) over x ∈ N),
//
// by monotone submodularity (each of OPT's k elements adds at most its
// marginal on top of S). Combined with the objective's trivial cap
// (max_value(): |U| for coverage, n·d0 for exemplar clustering), the
// reported bound is the minimum of the two — exactly how the paper computes
// the denominators of Figures 1 and 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "objectives/submodular.h"
#include "util/element.h"

namespace bds {

// One evaluated certificate: f(S), the bound it certifies and its cost.
struct SolutionCertificate {
  double value = 0.0;        // f(solution)
  double upper_bound = 0.0;  // the bound on f(OPT_k), capped by max_value()
  std::uint64_t evals = 0;   // |solution| adds plus one gain per ground item
};

// The certificate of `solution`. `proto` must be a fresh (empty-set)
// oracle prototype; `ground` is the candidate universe scanned for the
// top-k marginals. O(|ground|) oracle evaluations.
SolutionCertificate certify_solution(const SubmodularOracle& proto,
                                     std::span<const ElementId> solution,
                                     std::span<const ElementId> ground,
                                     std::size_t k);

// Upper bound on f(OPT_k) derived from `solution`: certify_solution's
// bound.
double solution_upper_bound(const SubmodularOracle& proto,
                            std::span<const ElementId> solution,
                            std::span<const ElementId> ground, std::size_t k);

// Tightest bound over several solutions (the paper reports "the best
// upperbound achieved" per dataset/k pair).
double best_upper_bound(const SubmodularOracle& proto,
                        std::span<const std::vector<ElementId>> solutions,
                        std::span<const ElementId> ground, std::size_t k);

}  // namespace bds
