#include "core/upper_bound.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace bds {

SolutionCertificate certify_solution(const SubmodularOracle& proto,
                                     std::span<const ElementId> solution,
                                     std::span<const ElementId> ground,
                                     std::size_t k) {
  const auto oracle = seeded_clone(proto, solution);
  SolutionCertificate cert;
  cert.value = oracle->value();

  // Top-k marginals via a size-k min-heap over the ground set.
  std::vector<double> top;
  top.reserve(k + 1);
  for (const ElementId x : ground) {
    const double g = oracle->gain(x);
    if (g <= 0.0) continue;
    if (top.size() < k) {
      top.push_back(g);
      std::push_heap(top.begin(), top.end(), std::greater<>());
    } else if (!top.empty() && g > top.front()) {
      std::pop_heap(top.begin(), top.end(), std::greater<>());
      top.back() = g;
      std::push_heap(top.begin(), top.end(), std::greater<>());
    }
  }
  double bound = cert.value;
  for (const double g : top) bound += g;
  cert.upper_bound = std::min(bound, proto.max_value());
  cert.evals = oracle->evals();
  return cert;
}

double solution_upper_bound(const SubmodularOracle& proto,
                            std::span<const ElementId> solution,
                            std::span<const ElementId> ground,
                            std::size_t k) {
  return certify_solution(proto, solution, ground, k).upper_bound;
}

double best_upper_bound(const SubmodularOracle& proto,
                        std::span<const std::vector<ElementId>> solutions,
                        std::span<const ElementId> ground, std::size_t k) {
  double best = proto.max_value();
  for (const auto& s : solutions) {
    best = std::min(best, solution_upper_bound(proto, s, ground, k));
  }
  return best;
}

}  // namespace bds
