// The traced pass's layer probes. Each one calls a layer's public function
// on the workload's own oracle, ground and shards and times it from the
// outside; spans inside the program are a later change.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.h"
#include "core/greedy.h"
#include "core/upper_bound.h"
#include "dist/partitioner.h"
#include "dist/wire.h"
#include "serve/cache.h"

namespace bench {
namespace {

using namespace bds;

// Seconds per call, calling repeatedly for at least `min_s` (≥ 1 call).
template <class F>
double time_per_call(double min_s, F&& fn) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    fn();
    ++calls;
  } while (since(t0) < min_s);
  return since(t0) / static_cast<double>(calls);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

void RunSpans::add(const dist::RoundSpan& span) {
  scatter_s += span.scatter_seconds;
  map_s += span.map_seconds;
  gather_s += span.gather_seconds;
  filter_s += span.filter_seconds;
  double slowest = 0.0, total = 0.0;
  for (const dist::MachineSpan& machine : span.machines) {
    double seconds = 0.0;
    for (const dist::AttemptSpan& attempt : machine.attempts) {
      seconds += attempt.seconds;
    }
    slowest = std::max(slowest, seconds);
    total += seconds;
  }
  machine_s_max += slowest;
  if (!span.machines.empty()) {
    machine_s_mean += total / static_cast<double>(span.machines.size());
  }
  wire_bytes += span.wire_bytes_sent + span.wire_bytes_received;
  ++rounds;
}

void report_spans(const std::vector<RunSpans>& runs,
                  const std::vector<double>& wall_s, Report& report) {
  std::vector<double> scatter, map, gather, filter, outside, slowest,
      imbalance, bytes;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSpans& r = runs[i];
    scatter.push_back(r.scatter_s);
    map.push_back(r.map_s);
    gather.push_back(r.gather_s);
    filter.push_back(r.filter_s);
    outside.push_back(wall_s[i] - r.phases_s());
    slowest.push_back(r.machine_s_max);
    imbalance.push_back(r.machine_s_mean > 0 ? r.machine_s_max / r.machine_s_mean
                                             : 1.0);
    bytes.push_back(static_cast<double>(r.wire_bytes));
  }
  const std::string n = "median of " + std::to_string(runs.size()) +
                        " traced runs, summed over rounds";
  report.metric("dist.scatter_s", median(scatter), "s", n);
  report.metric("dist.map_s", median(map), "s", n);
  report.metric("dist.gather_s", median(gather), "s", n);
  report.metric("dist.filter_s", median(filter), "s", n);
  report.metric("dist.outside_rounds_s", median(outside), "s",
                "run wall minus the four phases; " + n);
  report.metric("dist.machine_s_max", median(slowest), "s", n);
  report.metric("dist.machine_imbalance", median(imbalance), "ratio",
                "slowest over mean machine; " + n);
  report.metric("dist.wire_bytes_per_run", median(bytes), "bytes", n);
}

void probe_layers(const ProbeInput& in, Report& report) {
  const SubmodularOracle& oracle = *in.oracle;
  const RunResult& ref = *in.reference;
  const std::size_t rounds = std::max<std::size_t>(1, ref.rounds.size());
  const std::size_t machines =
      ref.rounds.empty() ? std::max<std::size_t>(1, in.params.machines)
                         : ref.rounds.front().machines;
  const std::size_t budget =
      ref.rounds.empty() ? in.params.k : ref.rounds.front().machine_budget;
  const std::string round_note = "one round: " + std::to_string(machines) +
                                 " shards of the full ground";

  // --- dist: partition ---
  dist::Partition shards;
  report.metric("dist.partition_s", time_median(5, [&] {
                  util::Rng rng(in.seed);
                  shards = dist::partition_uniform(in.ground, machines, rng);
                }),
                "s", round_note);
  const auto largest = std::max_element(
      shards.begin(), shards.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const std::vector<ElementId>& shard = *largest;

  // --- objectives: shard views and the gain kernel ---
  std::vector<std::unique_ptr<SubmodularOracle>> views(shards.size());
  report.metric("objectives.shard_view_build_s", time_median(5, [&] {
                  for (std::size_t i = 0; i < shards.size(); ++i) {
                    views[i] = oracle.shard_view(shards[i]);
                  }
                }),
                "s", round_note);
  std::uint64_t state_bytes = 0;
  for (const auto& view : views) state_bytes += view->state_bytes();
  report.metric("objectives.shard_state_bytes",
                static_cast<double>(state_bytes), "bytes", round_note);

  const auto& view = views[static_cast<std::size_t>(largest - shards.begin())];
  std::vector<double> gains(shard.size());
  const double batch_s = time_per_call(0.05, [&] {
    view->gain_batch(shard, std::span<double>(gains));
  });
  report.metric("objectives.gain_ns",
                batch_s / static_cast<double>(std::max<std::size_t>(1, shard.size())) * 1e9,
                "ns", "gain_batch over the largest shard's view, per eval");

  // --- core: lazy vs eager greedy on one shard at the round budget ---
  GreedyResult eager, lazy;
  LazyGreedyStats lazy_stats;
  const GreedyOptions stop_early{true};
  std::vector<double> eager_s, lazy_s;
  for (int rep = 0; rep < 3; ++rep) {
    auto v = oracle.shard_view(shard);
    auto t0 = Clock::now();
    eager = greedy(*v, shard, budget, stop_early);
    eager_s.push_back(since(t0));
    v = oracle.shard_view(shard);
    lazy_stats = LazyGreedyStats{};
    t0 = Clock::now();
    lazy = lazy_greedy_bounded(*v, shard, budget, stop_early, nullptr,
                               &lazy_stats);
    lazy_s.push_back(since(t0));
  }
  if (eager.picks != lazy.picks || !same_bits(eager.gains, lazy.gains)) {
    report.fail("lazy greedy differs from eager greedy on the largest shard");
  }
  const std::string budget_note =
      "largest shard, budget " + std::to_string(budget);
  report.metric("core.lazy_select_s", median(lazy_s), "s", budget_note);
  report.metric("core.eager_select_s", median(eager_s), "s", budget_note);
  report.count("core.lazy_evals_avoided", lazy_stats.evals_avoided,
               budget_note);

  // --- dist.wire: codecs on the round's real requests and responses ---
  std::vector<dist::wire::AttemptRequest> requests(shards.size());
  std::vector<dist::wire::AttemptResponse> responses(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    auto& req = requests[i];
    req.machine = i;
    req.attempt = 1;
    req.plan.kind = dist::WorkerPlanKind::kSelector;
    req.plan.budget = budget;
    req.plan.seed = in.seed;
    req.plan.lazy_bounds = true;
    req.shard = shards[i];

    auto v = oracle.shard_view(shards[i]);
    LazyGreedyStats st;
    const GreedyResult picks = lazy_greedy_bounded(
        *v, shards[i], budget, stop_early, nullptr, &st);
    auto& out = responses[i].output;
    out.summary = picks.picks;
    out.oracle_evals = v->evals();
    out.state_bytes = v->state_bytes();
    out.evals_avoided = st.evals_avoided;
    for (std::size_t e = 0; e < st.eval_ids.size(); ++e) {
      if (st.eval_prefixes[e] != 0) continue;
      out.bound_ids.push_back(st.eval_ids[e]);
      out.bound_gains.push_back(st.eval_gains[e]);
    }
  }
  std::vector<std::string> req_bytes(shards.size()), resp_bytes(shards.size());
  const auto per_run = [rounds](double per_round) {
    return per_round * static_cast<double>(rounds);
  };
  const std::string wire_note = "serial, " + std::to_string(shards.size()) +
                                " machines x " + std::to_string(rounds) +
                                " rounds of round-0-sized frames";
  report.metric("dist.wire.encode_request_s", per_run(time_per_call(0.02, [&] {
                  for (std::size_t i = 0; i < requests.size(); ++i) {
                    req_bytes[i] = dist::wire::encode_request(requests[i]);
                  }
                })),
                "s", wire_note);
  report.metric("dist.wire.encode_response_s", per_run(time_per_call(0.02, [&] {
                  for (std::size_t i = 0; i < responses.size(); ++i) {
                    resp_bytes[i] = dist::wire::encode_response(responses[i]);
                  }
                })),
                "s", wire_note);
  bool round_trip = true;
  report.metric("dist.wire.decode_request_s", per_run(time_per_call(0.02, [&] {
                  for (std::size_t i = 0; i < requests.size(); ++i) {
                    const auto back =
                        dist::wire::decode_request(req_bytes[i], "probe");
                    round_trip &= back.shard == requests[i].shard;
                  }
                })),
                "s", wire_note);
  report.metric("dist.wire.decode_response_s", per_run(time_per_call(0.02, [&] {
                  for (std::size_t i = 0; i < responses.size(); ++i) {
                    const auto back =
                        dist::wire::decode_response(resp_bytes[i], "probe");
                    round_trip &=
                        back.output.summary == responses[i].output.summary &&
                        same_bits(back.output.bound_gains,
                                  responses[i].output.bound_gains);
                  }
                })),
                "s", wire_note);
  if (!round_trip) report.fail("wire frames do not round-trip bit-exactly");

  // --- certificates: the paper's upper bound and the serve summary build ---
  report.metric("core.certificate_s", time_median(3, [&] {
                  (void)solution_upper_bound(oracle, ref.solution, in.ground,
                                             in.params.k);
                }),
                "s", "solution_upper_bound over the ground");
  std::shared_ptr<const serve::CachedSummary> summary;
  report.metric("serve.build_summary_s", time_median(3, [&] {
                  summary = serve::build_summary(serve::QueryKey{}, in.params.k,
                                                 ref, oracle, in.ground);
                }),
                "s", "build_summary at budget " + std::to_string(in.params.k));
  report.count("serve.build_summary_evals", summary->build_evals);
}

}  // namespace bench
