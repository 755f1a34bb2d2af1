#include "core/window.h"

#include <algorithm>
#include <stdexcept>

#include "core/streaming.h"
#include "core/upper_bound.h"

namespace bds {

SlidingWindowSieve::SlidingWindowSieve(const SubmodularOracle& proto,
                                       WindowConfig config)
    : config_(config) {
  if (config_.window == 0) {
    throw std::invalid_argument("SlidingWindowSieve: window must be > 0");
  }
  if (config_.k == 0) {
    throw std::invalid_argument("SlidingWindowSieve: k must be > 0");
  }
  if (config_.sieve_epsilon <= 0.0 || config_.sieve_epsilon >= 1.0 ||
      config_.decay_epsilon <= 0.0 || config_.decay_epsilon >= 1.0) {
    throw std::invalid_argument(
        "SlidingWindowSieve: epsilons must be in (0, 1)");
  }
  proto_ = proto.clone();
  probe_ = proto.clone();
  window_vec_.reserve(config_.window);
}

SlidingWindowSieve::~SlidingWindowSieve() = default;

bool SlidingWindowSieve::push(ElementId x) {
  ++stats_.arrivals;
  bool solution_member_expired = false;
  if (window_vec_.size() == config_.window) {
    const ElementId oldest = window_vec_.front();
    window_vec_.erase(window_vec_.begin());
    ++stats_.expirations;
    solution_member_expired =
        std::find(solution_.begin(), solution_.end(), oldest) !=
        solution_.end();
  }
  window_vec_.push_back(x);

  // One singleton evaluation keeps the bound valid: the new window's
  // optimum can exceed the old one's by at most f({x}).
  const double singleton = probe_->gain(x);
  ++stats_.oracle_evals;
  if (singleton > 0.0) upper_bound_ += singleton;
  upper_bound_ = std::min(upper_bound_, proto_->max_value());

  if (solution_member_expired ||
      value_ < (1.0 - config_.decay_epsilon) * upper_bound_) {
    resolve();
    return true;
  }
  ++stats_.kept;
  return false;
}

void SlidingWindowSieve::resolve() {
  SieveStreamingConfig cfg;
  cfg.k = config_.k;
  cfg.epsilon = config_.sieve_epsilon;
  const SieveStreamingResult sieved =
      sieve_streaming(*proto_, window_vec_, cfg);
  solution_ = sieved.solution;
  stats_.oracle_evals += sieved.oracle_evals;
  ++stats_.resolves;

  // Exact certificate over the current window, so the per-tick singleton
  // slack resets instead of compounding.
  const SolutionCertificate cert =
      certify_solution(*proto_, solution_, window_vec_, config_.k);
  value_ = cert.value;
  upper_bound_ = cert.upper_bound;
  stats_.oracle_evals += cert.evals;
}

}  // namespace bds
