// The serve workloads: an open-loop generator drives a SummaryService over
// a mutable DBLP-like coverage corpus with queries from three client
// threads and mutations from one mutation thread. Every operation is timed
// from its *scheduled* send time, so a stall that delays later sends is
// charged to them. A warm-up of the same traffic fills the cache first.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.h"
#include "data/dynamic.h"
#include "data/graph_gen.h"
#include "data/io.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace bench {
namespace {

using namespace bds;

struct ServeSpec {
  const char* name;
  bool mutation_primary;  // the op whose latency is the workload's latency
  double tail_q;          // the percentile reported as latency_ms_tail
};

// The two serve workloads send the same traffic and differ only in whose
// latency they report: serve-churn a query's, serve-mutate a mutation's
// until its recertify pass returns. A change that speeds one side at the
// other's expense shows on one of the two. Queries take p99, the usual
// serving tail, which sits among the misses; mutations, 5x fewer, take p95
// so that at least 10 samples lie beyond it.
const ServeSpec kSpecs[] = {
    {"serve-churn", false, 0.99},
    {"serve-mutate", true, 0.95},
};

constexpr double kQueryRate = 100.0;    // queries per second
constexpr double kMutationRate = 20.0;  // mutations per second
constexpr std::uint32_t kSets = 50'000;
constexpr std::uint32_t kSmokeSets = 3'000;
// Each mutation takes every cached summary out of the cache and runs one
// certificate scan per summary before putting it back; queries that arrive
// in that window miss. With 16 seeds a pass recertified ~16 summaries in
// ~20 ms of every 50, 25-30% of queries missed, and the slower the host ran
// the longer the window and the more misses loaded it further (misses 271
// to 469 of 1500 on one seed). 4 seeds give ~5 summaries, a ~6 ms window
// and 10-13% misses (seed 1: 319 of 2400), enough to put the p99 among them.
constexpr std::size_t kSeedPool = 4;
constexpr std::size_t kBudgets[] = {8, 16, 32, 64};
constexpr double kBudgetZipf = 1.1;
constexpr std::size_t kRounds = 2;
constexpr std::size_t kTenants = 3;
constexpr std::size_t kClients = 3;
// Above every served budget, so the verification query is a fresh run.
constexpr std::size_t kVerifyK = 128;
constexpr double kWarmupS = 2.0;
constexpr double kSmokeWarmupS = 0.3;
constexpr double kSloS = 0.05;
constexpr double kLateS = 1e-3;
constexpr std::size_t kSetupRepeats = 25;
const std::string kCorpus = "churn";

struct QuerySlot {
  serve::Query query;
  serve::ServeResult result;
  double lag = 0.0;
  double latency = 0.0;
  bool error = false;
  RunSpans spans;  // filled by the trace sink of a traced, computed query
};

struct MutationSlot {
  bool insert = true;
  std::vector<std::uint32_t> items;  // insert payload
  ElementId id = 0;                  // id the insert must get / id to erase
  serve::SummaryService::MutationOutcome outcome;
  double lag = 0.0;
  double latency = 0.0;
  bool error = false;
};

bool shed(const serve::ServeResult& r) {
  return r.outcome == serve::ServeOutcome::kRejected ||
         r.outcome == serve::ServeOutcome::kDegraded;
}

// Sleeps to just before `due`, then spins, so a send is not late by the
// scheduler's wake-up slack.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

Clock::duration at(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::size_t op_count(double rate, double seconds) {
  return static_cast<std::size_t>(std::llround(rate * seconds));
}

serve::Query base_query(std::uint64_t seed, std::size_t k) {
  serve::Query q;
  q.corpus = kCorpus;
  q.algorithm = "bicriteria";
  q.k = k;
  q.rounds = kRounds;
  q.runtime.threads = 1;
  q.runtime.seed = seed;
  return q;
}

// Final-epoch checks, traffic stopped: each pool seed's largest-budget
// answer (often a summary recertified across many epochs) must carry the
// value its items have on a from-scratch rebuild, within its bound; and a
// budget above every cached one must compute fresh, bitwise equal to a
// direct run over the rebuild (dynamic = rebuild through the service).
// Returns each fresh answer's certified ratio value / upper_bound.
std::vector<double> verify(serve::SummaryService& service,
                           const data::DynamicCorpus& corpus,
                           const std::vector<std::uint64_t>& pool,
                           Report& report) {
  data::DynamicOracleOptions frozen;
  frozen.prefer_incremental = false;
  const auto rebuilt = data::make_dynamic_oracle(corpus, "coverage", frozen);
  const std::vector<ElementId> ground = corpus.live_ground();
  std::vector<double> ratios;
  for (const std::uint64_t seed : pool) {
    serve::Query q = base_query(seed, kBudgets[std::size(kBudgets) - 1]);
    report.attempted(2);
    const serve::ServeResult held = service.query(q);
    const bool live = std::all_of(held.solution.begin(), held.solution.end(),
                                  [&](ElementId x) { return corpus.is_live(x); });
    if (shed(held) || !live ||
        !same_bits(held.value, evaluate_set(*rebuilt, held.solution)) ||
        held.value > held.upper_bound) {
      report.fail("seed " + std::to_string(seed) +
                  ": served summary is not sound at the final epoch");
    }

    q.k = kVerifyK;
    const serve::ServeResult fresh = service.query(q);
    AlgorithmParams params;
    params.k = kVerifyK;
    params.rounds = kRounds;
    const RunResult direct =
        run_distributed("bicriteria", *rebuilt, ground, q.runtime, params);
    if (fresh.outcome != serve::ServeOutcome::kComputed ||
        fresh.solution != direct.solution ||
        !same_bits(fresh.value, direct.value)) {
      report.fail("seed " + std::to_string(seed) +
                  ": fresh answer differs from a direct run over the rebuild");
    }
    ratios.push_back(fresh.value / fresh.upper_bound);
  }
  return ratios;
}

void run_serve(const ServeSpec& spec, const Options& opt, Report& report) {
  const std::uint32_t sets = opt.smoke ? kSmokeSets : kSets;
  const TempFile file(opt.data_dir + "/" + spec.name + "-" +
                      std::to_string(opt.seed) + ".bds");
  run_in_child(
      [&] {
        data::save_set_system(*data::make_dblp_like(sets, opt.seed), file.path());
      },
      "generate corpus");

  // Program-side set-up: map the base, wrap it mutable, register it. The
  // pool leaves two of the load's threads to the mutation thread and a
  // query client answering a hit, so no more threads compute at once than
  // there are cores; with a pool of 4 on 4 cores, hits waited for a core
  // behind the misses and their p50 spread 0.48 over ten seeds.
  serve::ServiceOptions service_options;
  service_options.threads = opt.threads > 2 ? opt.threads - 2 : 1;
  std::unique_ptr<serve::SummaryService> service;
  std::shared_ptr<data::DynamicCorpus> corpus;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    corpus.reset();
    const auto t0 = Clock::now();
    corpus = std::make_shared<data::DynamicCorpus>(
        data::map_set_system(file.path()), kCorpus);
    service = std::make_unique<serve::SummaryService>(service_options);
    service->add_dynamic_corpus(kCorpus, "coverage", corpus);
    setup_s.push_back(since(t0));
  }

  // The schedule: warm-up then timed ops at fixed rates; the primary
  // stream extends to enough samples for its tail percentile.
  const double warm = opt.smoke ? kSmokeWarmupS : kWarmupS;
  const double need =
      opt.smoke ? 0.0 : static_cast<double>(min_samples(spec.tail_q));
  const double timed = std::max(
      opt.seconds, need / (spec.mutation_primary ? kMutationRate : kQueryRate));
  const std::size_t q_warm = op_count(kQueryRate, warm);
  const std::size_t m_warm = op_count(kMutationRate, warm);
  const std::size_t q_timed = op_count(kQueryRate, timed);
  const std::size_t m_timed = op_count(kMutationRate, timed);

  util::Rng rng(util::mix64(opt.seed));
  std::vector<std::uint64_t> pool(kSeedPool);
  std::iota(pool.begin(), pool.end(), opt.seed * 1000 + 1);
  const util::ZipfSampler zipf(std::size(kBudgets), kBudgetZipf);
  std::vector<QuerySlot> queries(q_warm + q_timed);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    QuerySlot& slot = queries[i];
    slot.query = base_query(pool[rng.next_below(pool.size())],
                            kBudgets[zipf.sample(rng)]);
    slot.query.tenant = "tenant-" + std::to_string(i % kTenants);
    if (opt.trace && i % 2 == 1) {
      slot.query.runtime.trace_sink = [spans = &slot.spans](
                                          const dist::RoundSpan& span) {
        spans->add(span);
      };
    }
  }
  // Mutations alternate inserting a random set and erasing a random live
  // id; the ids are simulated here so the whole stream is fixed by the seed.
  std::vector<MutationSlot> mutations(m_warm + m_timed);
  std::vector<ElementId> live(corpus->size());
  std::iota(live.begin(), live.end(), ElementId{0});
  auto next_id = static_cast<ElementId>(corpus->size());
  for (std::size_t j = 0; j < mutations.size(); ++j) {
    MutationSlot& m = mutations[j];
    m.insert = j % 2 == 0;
    if (m.insert) {
      m.items.resize(5 + rng.next_below(16));
      for (auto& item : m.items) {
        item = static_cast<std::uint32_t>(rng.next_below(corpus->universe_size()));
      }
      m.id = next_id++;
      live.push_back(m.id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      m.id = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
  }

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::atomic<std::size_t> next_query{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next_query.fetch_add(1);
      if (i >= queries.size()) return;
      QuerySlot& slot = queries[i];
      const auto due = start + at(static_cast<double>(i) / kQueryRate);
      wait_until(due);
      slot.lag = since(due);
      try {
        slot.result = service->query(slot.query);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu: %s\n", i, e.what());
        slot.error = true;
      }
      slot.latency = since(due);
    }
  };
  const auto mutator = [&] {
    for (std::size_t j = 0; j < mutations.size(); ++j) {
      MutationSlot& m = mutations[j];
      const auto due = start + at(static_cast<double>(j) / kMutationRate);
      wait_until(due);
      m.lag = since(due);
      try {
        m.outcome = m.insert ? service->corpus_insert(kCorpus, m.items)
                             : service->corpus_erase(kCorpus, m.id);
        m.error = m.insert && m.outcome.id != m.id;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mutation %zu: %s\n", j, e.what());
        m.error = true;
      }
      m.latency = since(due);
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit, throw or not
    for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client);
    threads.emplace_back(mutator);
  }

  // Failures count over every op, warm-up included; metrics over timed ops.
  std::uint64_t q_errors = 0, q_shed = 0, over_bound = 0, m_errors = 0;
  ServeLayer layer;
  std::vector<RunSpans> spans;
  std::vector<double> span_wall, traced_run_s, plain_run_s;
  report.attempted(queries.size() + mutations.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QuerySlot& s = queries[i];
    const bool failed = s.error || shed(s.result);
    q_errors += s.error;
    q_shed += !s.error && shed(s.result);
    over_bound += !failed && s.result.value > s.result.upper_bound;
    if (i < q_warm) continue;
    ++layer.queries;
    layer.lag_s.push_back(s.lag);
    layer.late += s.lag > kLateS;
    if (failed || s.latency > kSloS) ++layer.slo_misses;
    if (failed) continue;
    layer.query_s.push_back(s.latency);
    switch (s.result.outcome) {
      case serve::ServeOutcome::kHit:
        layer.hit_s.push_back(s.latency);
        break;
      case serve::ServeOutcome::kCoalesced:
        ++layer.coalesced;
        break;
      default:
        layer.miss_s.push_back(s.latency);
        if (s.result.run_seconds <= 0.0) break;  // double-checked hit
        layer.queue_s.push_back(s.result.queue_seconds);
        layer.run_s.push_back(s.result.run_seconds);
        if (s.spans.rounds > 0) {
          spans.push_back(s.spans);
          span_wall.push_back(s.result.run_seconds);
          traced_run_s.push_back(s.result.run_seconds);
        } else {
          plain_run_s.push_back(s.result.run_seconds);
        }
    }
  }
  for (std::size_t j = 0; j < mutations.size(); ++j) {
    const MutationSlot& m = mutations[j];
    m_errors += m.error;
    if (j < m_warm) continue;
    layer.lag_s.push_back(m.lag);
    layer.late += m.lag > kLateS;
    if (m.error) continue;
    layer.mutation_s.push_back(m.latency);
    layer.recertified += m.outcome.summaries_recertified;
    layer.invalidated += m.outcome.summaries_invalidated;
  }
  report.fail("queries threw", q_errors);
  report.fail("queries shed (rejected or degraded)", q_shed);
  report.fail("answers above their certified upper bound", over_bound);
  report.fail("mutations threw or got an unexpected id", m_errors);
  if (corpus->epoch() != mutations.size()) {
    report.fail("corpus epoch does not match the mutations applied");
  }

  const std::vector<double> ratios = verify(*service, *corpus, pool, report);
  report.note("misses " + std::to_string(layer.miss_s.size()) + " of " +
              std::to_string(layer.queries) + " timed queries, " +
              std::to_string(layer.mutation_s.size()) + " timed mutations");

  const std::vector<double>& primary =
      spec.mutation_primary ? layer.mutation_s : layer.query_s;
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetupRepeats) +
                      ": map + dynamic corpus + service + add_dynamic_corpus");
    report.p50_ms("latency_ms_p50", primary);
    report.metric("certified_ratio", median(ratios), "ratio",
                  "value / certified upper bound of the final fresh k=" +
                      std::to_string(kVerifyK) + " answers, median of " +
                      std::to_string(ratios.size()));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "coordinator VmHWM");
    return;
  }

  report.tail_ms("latency_ms_tail", primary, spec.tail_q);
  const std::string n = "median of " + std::to_string(kSetupRepeats);
  report.metric("data.map_s", time_median(kSetupRepeats, [&] {
                  (void)data::map_set_system(file.path());
                }),
                "s", n);
  const data::DynamicCorpus fresh(data::map_set_system(file.path()), kCorpus);
  report.metric("data.oracle_build_s", time_median(kSetupRepeats, [&] {
                  (void)data::make_dynamic_oracle(fresh, "coverage");
                }),
                "s", "incremental coverage oracle at epoch 0, " + n);
  report_spans(spans, span_wall, report);
  report.metric("trace.overhead_frac",
                plain_run_s.empty() || traced_run_s.empty()
                    ? 0.0
                    : median(traced_run_s) / median(plain_run_s) - 1.0,
                "ratio",
                "traced over untraced p50 run time of computed queries; n=" +
                    std::to_string(traced_run_s.size()) + "/" +
                    std::to_string(plain_run_s.size()));

  // Layer probes on the final epoch, with a direct run as the reference.
  const std::shared_ptr<const SubmodularOracle> proto =
      data::make_dynamic_oracle(*corpus, "coverage");
  const std::vector<ElementId> ground = corpus->live_ground();
  AlgorithmParams params;
  params.k = kBudgets[std::size(kBudgets) - 1];
  params.rounds = kRounds;
  const serve::Query probe_query = base_query(pool.front(), params.k);
  const RunResult ref =
      run_distributed("bicriteria", *proto, ground, probe_query.runtime, params);
  report.count("dist.critical_path_evals", ref.stats.critical_path_evals());
  report.count("objectives.evals_per_run", ref.stats.total_evals());
  probe_layers({proto.get(), ground, params, pool.front(), &ref}, report);
  report_serve_layer(layer, report);
}

}  // namespace

void report_serve_layer(const ServeLayer& l, Report& report) {
  const auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  const double queries = static_cast<double>(l.queries);
  const double mutations = static_cast<double>(l.mutation_s.size());
  report.metric("serve.hit_rate",
                per(static_cast<double>(l.hit_s.size() + l.coalesced), queries),
                "ratio", "hits and coalesced over timed queries");
  report.p50_ms("serve.hit_ms_p50", l.hit_s);
  report.p50_ms("serve.miss_ms_p50", l.miss_s);
  report.p50_ms("serve.queue_ms_p50", l.queue_s);
  report.p50_ms("serve.run_ms_p50", l.run_s);
  report.p50_ms("serve.query_ms_p50", l.query_s);
  report.p50_ms("serve.mutation_ms_p50", l.mutation_s);
  report.count("serve.misses", l.miss_s.size());
  report.count("serve.coalesced", l.coalesced);
  report.metric("serve.recertified_per_mutation",
                per(static_cast<double>(l.recertified), mutations), "ratio");
  report.metric("serve.invalidated_per_mutation",
                per(static_cast<double>(l.invalidated), mutations), "ratio");
  const auto lag = tail_percentile(l.lag_s, 0.9);
  report.metric("gen.lag_ms_p90", lag ? *lag * 1e3 : 0.0, "ms",
                "n=" + std::to_string(l.lag_s.size()) +
                    (lag ? "" : ", closed loop or too few sends"));
  report.metric("gen.late_frac",
                per(static_cast<double>(l.late),
                    static_cast<double>(l.lag_s.size())),
                "ratio", "sends more than 1 ms late");
  report.metric("gen.slo_miss_frac",
                per(static_cast<double>(l.slo_misses), queries), "ratio",
                "queries over 50 ms, failed or shed");
}

bool run_serve_workload(const Options& opt, Report& report) {
  for (const ServeSpec& spec : kSpecs) {
    if (opt.workload == spec.name) {
      run_serve(spec, opt, report);
      return true;
    }
  }
  return false;
}

}  // namespace bench
