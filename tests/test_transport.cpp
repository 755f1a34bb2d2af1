// Cross-backend golden suite for the ClusterTransport seam plus the wire
// protocol's failure grid.
//
// The load-bearing contract: for every registered distributed algorithm,
// a run on the multi-process backend (forked bds_worker per machine, wire
// protocol over a socketpair) must be *bitwise* equal to the in-process
// run — same selection, same value bits, same oracle-evaluation ledger —
// because the worker executes the identical selector code on an oracle
// rebuilt from the same CorpusSpec.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/corpus.h"
#include "data/io.h"
#include "data/vectors_gen.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "test_support.h"
#include "util/serialize.h"

namespace bds {
namespace {

using dist::WorkerOutput;
using testing::iota_ids;
using testing::random_set_system;
namespace wire = dist::wire;

#ifndef BDS_WORKER_BIN
#error "BDS_WORKER_BIN must point at the bds_worker executable"
#endif

// ---------------------------------------------------------------------------
// Shared corpus: a coverage dataset written once, reloaded through the same
// CorpusSpec on the coordinator and in every worker.

class TransportGoldenEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Pid-unique paths: under parallel ctest every test case is its own
    // process running this same environment, so a shared fixed path would
    // race one process's rewrite against another's read.
    const std::string tag = std::to_string(::getpid());
    coverage_path_ =
        ::testing::TempDir() + "transport_golden_coverage." + tag + ".bds";
    const auto sys = random_set_system(120, 150, 0.05, 31);
    data::save_set_system(*sys, coverage_path_);

    points_path_ =
        ::testing::TempDir() + "transport_golden_points." + tag + ".bds";
    data::LdaVectorsConfig cfg;
    cfg.documents = 80;
    cfg.seed = 7;
    data::save_point_set(*data::make_lda_like_vectors(cfg), points_path_);
  }

  void TearDown() override {
    std::remove(coverage_path_.c_str());
    std::remove(points_path_.c_str());
  }

  static std::string coverage_path_;
  static std::string points_path_;
};

std::string TransportGoldenEnv::coverage_path_;
std::string TransportGoldenEnv::points_path_;

const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new TransportGoldenEnv);

data::CorpusSpec coverage_corpus() {
  data::CorpusSpec spec;
  spec.objective = "coverage";
  spec.path = TransportGoldenEnv::coverage_path_;
  return spec;
}

RuntimeOptions process_runtime(const data::CorpusSpec& corpus,
                               std::uint64_t seed = 3) {
  RuntimeOptions runtime;
  runtime.seed = seed;
  runtime.transport = TransportKind::kProcess;
  runtime.process.worker_binary = BDS_WORKER_BIN;
  runtime.process.corpus_spec = corpus.serialize();
  return runtime;
}

RuntimeOptions inproc_runtime(std::uint64_t seed = 3) {
  RuntimeOptions runtime;
  runtime.seed = seed;
  return runtime;
}

// Bitwise comparison of everything the runs are required to agree on.
// Wall-clock fields are the only tolerated difference between backends.
void expect_bit_identical(const RunResult& inproc, const RunResult& process) {
  EXPECT_EQ(inproc.solution, process.solution);
  EXPECT_EQ(util::double_bits(inproc.value),
            util::double_bits(process.value));
  EXPECT_EQ(inproc.stats.total_evals(), process.stats.total_evals());
  EXPECT_EQ(inproc.stats.bytes_communicated(),
            process.stats.bytes_communicated());
  EXPECT_EQ(inproc.stats.critical_path_evals(),
            process.stats.critical_path_evals());
  ASSERT_EQ(inproc.stats.rounds.size(), process.stats.rounds.size());
  for (std::size_t r = 0; r < inproc.stats.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const auto& a = inproc.stats.rounds[r];
    const auto& b = process.stats.rounds[r];
    EXPECT_EQ(a.worker_evals, b.worker_evals);
    EXPECT_EQ(a.central_evals, b.central_evals);
    EXPECT_EQ(a.elements_gathered, b.elements_gathered);
    EXPECT_EQ(a.wasted_evals, b.wasted_evals);
  }
}

// ---------------------------------------------------------------------------
// Golden equality for every registered distributed algorithm.

class TransportGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransportGolden, ProcessBackendMatchesInprocBitwise) {
  const AlgorithmSpec& spec = algorithm_registry()[GetParam()];
  if (!spec.distributed) GTEST_SKIP() << spec.name << " is centralized";
  SCOPED_TRACE(spec.name);

  const data::CorpusSpec corpus = coverage_corpus();
  const auto oracle = corpus.make_oracle();
  const auto ground = iota_ids(oracle->ground_size());

  AlgorithmParams params;
  params.k = 4;
  params.rounds = 2;
  params.epsilon = 0.25;
  params.machines = 5;

  const RunResult inproc =
      run_distributed(spec.name, *oracle, ground, inproc_runtime(), params);
  const RunResult process = run_distributed(spec.name, *oracle, ground,
                                            process_runtime(corpus), params);
  expect_bit_identical(inproc, process);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TransportGolden,
                         ::testing::Range<std::size_t>(
                             0, algorithm_registry().size()),
                         [](const auto& info) {
                           std::string name =
                               algorithm_registry()[info.param].name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The exemplar family ships a PointSet and scalar parameters instead of a
// set system; sampled-exemplar additionally freezes its estimate sample
// from the spec's seed, which both sides must derive identically.
TEST(TransportGoldenObjectives, ExemplarAndSampledExemplarAcrossTheWire) {
  for (const bool sampled : {false, true}) {
    SCOPED_TRACE(sampled ? "sampled-exemplar" : "exemplar");
    data::CorpusSpec corpus;
    corpus.objective = sampled ? "sampled-exemplar" : "exemplar";
    corpus.path = TransportGoldenEnv::points_path_;
    corpus.p0_dist = 2.0;
    corpus.sample_size = 24;
    corpus.sample_seed = 11;
    const auto oracle = corpus.make_oracle();
    const auto ground = iota_ids(oracle->ground_size());

    AlgorithmParams params;
    params.k = 3;
    params.machines = 4;
    const RunResult inproc = run_distributed("randgreedi", *oracle, ground,
                                             inproc_runtime(), params);
    const RunResult process = run_distributed(
        "randgreedi", *oracle, ground, process_runtime(corpus), params);
    expect_bit_identical(inproc, process);
  }
}

// Injected faults (crash / drop / straggle) under the process backend are
// *real*: a kCrash worker replies, then _exit(9)s, and the retry respawns
// it. With unlimited retries the run must still land on the fault-free
// golden answer, with identical wasted-eval accounting to the simulator.
TEST(TransportGoldenFaults, InjectedCrashesRecoverToTheGoldenAnswer) {
  const data::CorpusSpec corpus = coverage_corpus();
  const auto oracle = corpus.make_oracle();
  const auto ground = iota_ids(oracle->ground_size());

  AlgorithmParams params;
  params.k = 4;
  params.rounds = 2;
  params.machines = 5;

  const RunResult golden = run_distributed("bicriteria", *oracle, ground,
                                           inproc_runtime(), params);

  // Not every seed fires a fault on a 5-machine instance; probe (cheaply,
  // in-process) until two seeds that do are found, then hold the process
  // backend to the simulator's exact ledger under those.
  std::size_t seeds_exercised = 0;
  for (std::uint64_t fault_seed = 1; fault_seed <= 64 && seeds_exercised < 2;
       ++fault_seed) {
    RuntimeOptions faulty_inproc = inproc_runtime();
    faulty_inproc.faults = dist::FaultPlan::recoverable(fault_seed);
    faulty_inproc.retry.max_attempts = 0;
    const RunResult inproc =
        run_distributed("bicriteria", *oracle, ground, faulty_inproc, params);
    if (inproc.stats.total_faults_injected() == 0) continue;
    ++seeds_exercised;
    SCOPED_TRACE("fault seed " + std::to_string(fault_seed));

    RuntimeOptions faulty_process = process_runtime(corpus);
    faulty_process.faults = dist::FaultPlan::recoverable(fault_seed);
    faulty_process.retry.max_attempts = 0;
    const RunResult process = run_distributed("bicriteria", *oracle, ground,
                                              faulty_process, params);
    EXPECT_EQ(inproc.solution, golden.solution);
    expect_bit_identical(inproc, process);
    EXPECT_GT(process.stats.total_faults_injected(), 0u);
  }
  EXPECT_EQ(seeds_exercised, 2u) << "no fault-injecting seeds in [1, 64]";
}

// Trace spans attribute rounds to the backend that executed them and meter
// wire traffic — nonzero on the process backend, zero in-process.
TEST(TransportTrace, SpansRecordBackendAndWireBytes) {
  const data::CorpusSpec corpus = coverage_corpus();
  const auto oracle = corpus.make_oracle();
  const auto ground = iota_ids(oracle->ground_size());

  AlgorithmParams params;
  params.k = 4;
  params.machines = 4;

  const RunResult inproc = run_distributed("randgreedi", *oracle, ground,
                                           inproc_runtime(), params);
  ASSERT_FALSE(inproc.stats.trace.rounds.empty());
  for (const auto& span : inproc.stats.trace.rounds) {
    EXPECT_EQ(span.transport, "inproc");
    EXPECT_EQ(span.wire_bytes_sent, 0u);
    EXPECT_EQ(span.wire_bytes_received, 0u);
  }

  const RunResult process = run_distributed("randgreedi", *oracle, ground,
                                            process_runtime(corpus), params);
  ASSERT_FALSE(process.stats.trace.rounds.empty());
  for (const auto& span : process.stats.trace.rounds) {
    EXPECT_EQ(span.transport, "process");
    EXPECT_GT(span.wire_bytes_sent, 0u);
    EXPECT_GT(span.wire_bytes_received, 0u);
  }
}

// The v3 checkpoint format carries the new span fields; a process-backend
// run's checkpoint must round-trip them bit-exactly.
TEST(TransportTrace, CheckpointRoundTripsTransportFields) {
  const data::CorpusSpec corpus = coverage_corpus();
  const auto oracle = corpus.make_oracle();
  const auto ground = iota_ids(oracle->ground_size());

  AlgorithmParams params;
  params.k = 4;
  params.rounds = 2;
  params.machines = 4;

  RuntimeOptions runtime = process_runtime(corpus);
  std::vector<Checkpoint> checkpoints;
  runtime.checkpoint_sink = [&checkpoints](const Checkpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
  };
  run_distributed("bicriteria", *oracle, ground, runtime, params);
  ASSERT_FALSE(checkpoints.empty());

  const std::string text = checkpoints.back().serialize();
  const Checkpoint restored = Checkpoint::deserialize(text);
  EXPECT_EQ(restored.serialize(), text);
  ASSERT_FALSE(restored.stats.trace.rounds.empty());
  for (const auto& span : restored.stats.trace.rounds) {
    EXPECT_EQ(span.transport, "process");
    EXPECT_GT(span.wire_bytes_sent, 0u);
  }
}

// ---------------------------------------------------------------------------
// Process-backend failure modes that must name the offending worker.

TEST(TransportProcess, RefusesClosureOnlyWorkWithWorkerName) {
  dist::ProcessTransportConfig config;
  config.machines = 4;
  config.ground_size = 10;
  config.worker_binary = BDS_WORKER_BIN;
  const auto transport = dist::make_process_transport(config);

  dist::RoundWork work;
  work.plan.kind = dist::WorkerPlanKind::kCustom;
  const std::vector<ElementId> shard = {1, 2, 3};
  try {
    transport->run_attempt(0, 3, 1, dist::FaultKind::kNone, shard, work);
    FAIL() << "custom work must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("transport worker 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(TransportProcess, HandshakeDeathNamesWorkerAndBinary) {
  dist::ProcessTransportConfig config;
  config.machines = 1;
  config.ground_size = 10;
  config.worker_binary = "/bin/false";  // execs, then exits without a frame
  config.corpus_spec = coverage_corpus().serialize();
  const auto transport = dist::make_process_transport(config);

  dist::RoundWork work;
  work.plan.kind = dist::WorkerPlanKind::kSelector;
  const std::vector<ElementId> shard = {1, 2, 3};
  try {
    transport->run_attempt(0, 0, 1, dist::FaultKind::kNone, shard, work);
    FAIL() << "handshake with a silent binary must fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport worker 0"), std::string::npos) << what;
    EXPECT_NE(what.find("handshake"), std::string::npos) << what;
  }
}

// A worker killed by a *signal* before completing its handshake is a
// transient crash, not a configuration error: run_attempt reports crashed
// so the cluster's retry respawns it. (scripts/check_kill9.sh lands real
// SIGKILLs at exactly this instant.) Contrast with /bin/false above, which
// exits on its own and stays fatal.
TEST(TransportProcess, SignalDeathDuringHandshakeIsRetryableNotFatal) {
  const std::string script = ::testing::TempDir() + "transport_kill9.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nkill -KILL $$\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  dist::ProcessTransportConfig config;
  config.machines = 1;
  config.ground_size = 10;
  config.worker_binary = script;
  config.corpus_spec = coverage_corpus().serialize();
  const auto transport = dist::make_process_transport(config);

  dist::RoundWork work;
  work.plan.kind = dist::WorkerPlanKind::kSelector;
  const std::vector<ElementId> shard = {1, 2, 3};
  const auto result =
      transport->run_attempt(0, 0, 1, dist::FaultKind::kNone, shard, work);
  EXPECT_TRUE(result.crashed);
  EXPECT_TRUE(result.output.summary.empty());
  std::remove(script.c_str());
}

// A worker that reports a failure (kError frame) surfaces it by name
// instead of entering the crash/retry path: a bad corpus never improves.
TEST(TransportProcess, WorkerSideErrorsSurfaceByName) {
  data::CorpusSpec corpus;
  corpus.objective = "coverage";
  corpus.path = "/nonexistent/corpus.bds";
  dist::ProcessTransportConfig config;
  config.machines = 1;
  config.ground_size = 10;
  config.worker_binary = BDS_WORKER_BIN;
  config.corpus_spec = corpus.serialize();
  const auto transport = dist::make_process_transport(config);

  dist::RoundWork work;
  work.plan.kind = dist::WorkerPlanKind::kSelector;
  const std::vector<ElementId> shard = {1, 2, 3};
  try {
    transport->run_attempt(0, 0, 1, dist::FaultKind::kNone, shard, work);
    FAIL() << "an unloadable corpus must be reported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("transport worker 0"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Wire protocol: framing, the corruption grid, and codec round trips.

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void write_all(const std::string& bytes) {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(WireProtocol, FrameRoundTripsOverAPipe) {
  Pipe pipe;
  const std::string payload = "hello across the frame boundary\n";
  std::uint64_t sent = 0;
  ASSERT_EQ(wire::write_frame(pipe.fds[1], wire::FrameType::kRequest, payload,
                              &sent, "peer"),
            wire::IoStatus::kOk);
  EXPECT_EQ(sent, wire::kHeaderBytes + payload.size());

  wire::Frame frame;
  std::uint64_t received = 0;
  ASSERT_EQ(wire::read_frame(pipe.fds[0], &frame, &received, "peer"),
            wire::IoStatus::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kRequest);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(received, sent);
}

TEST(WireProtocol, EofAtFrameBoundaryIsACleanClose) {
  Pipe pipe;
  pipe.close_writer();
  wire::Frame frame;
  EXPECT_EQ(wire::read_frame(pipe.fds[0], &frame, nullptr, "peer"),
            wire::IoStatus::kClosed);
}

// Each corruption must throw WireError naming the worker, with a message
// that identifies the specific violation.
struct CorruptionCase {
  const char* name;
  std::string bytes;        // what the "worker" sends
  const char* expect_text;  // substring the error must contain
};

// gtest prints the parameter into each ctest name. Its default printout is
// the raw bytes, which hold pointers that change from run to run, so print
// the case name instead.
void PrintTo(const CorruptionCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

std::string valid_frame() {
  return wire::encode_frame(wire::FrameType::kResponse, "payload");
}

class WireCorruption : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(WireCorruption, FailsNamingTheWorker) {
  const CorruptionCase& test_case = GetParam();
  Pipe pipe;
  pipe.write_all(test_case.bytes);
  pipe.close_writer();

  wire::Frame frame;
  try {
    wire::read_frame(pipe.fds[0], &frame, nullptr,
                     "transport worker 3 (pid 12345)");
    FAIL() << test_case.name << ": corruption must not parse";
  } catch (const wire::WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport worker 3"), std::string::npos) << what;
    EXPECT_NE(what.find(test_case.expect_text), std::string::npos) << what;
  }
}

std::vector<CorruptionCase> corruption_grid() {
  std::vector<CorruptionCase> grid;
  grid.push_back({"TruncatedHeader", valid_frame().substr(0, 7),
                  "truncated frame header"});
  grid.push_back({"TruncatedPayload",
                  valid_frame().substr(0, wire::kHeaderBytes + 3),
                  "truncated frame payload"});
  {
    std::string bad = valid_frame();
    bad[0] = '\x00';
    grid.push_back({"BadMagic", bad, "bad frame magic"});
  }
  {
    std::string skew = valid_frame();
    skew[4] = static_cast<char>(wire::kVersion + 1);
    grid.push_back({"VersionSkew", skew, "wire version skew"});
  }
  {
    std::string unknown = valid_frame();
    unknown[8] = 99;
    grid.push_back({"UnknownType", unknown, "unknown frame type 99"});
  }
  {
    std::string oversized = valid_frame();
    // payload_len at offset 12, little-endian: kMaxPayload + 1.
    const std::uint64_t huge = wire::kMaxPayload + 1;
    for (int i = 0; i < 8; ++i) {
      oversized[12 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
    }
    grid.push_back({"OversizedLength", oversized, "oversized frame"});
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, WireCorruption,
                         ::testing::ValuesIn(corruption_grid()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Codec round trips: doubles travel as IEEE-754 bit patterns, so awkward
// values (third-roots, negative zero, denormals) must survive bit-exactly.

TEST(WireCodec, WorkerOutputRoundTripsBitExactly) {
  wire::AttemptResponse response;
  response.seconds = 0.1 + 0.2;  // famously not 0.3
  WorkerOutput& output = response.output;
  output.summary = {4, 1, 99};
  output.oracle_evals = 12345;
  output.state_bytes = 67890;
  output.bound_ids = {7, 8};
  output.bound_gains = {1.0 / 3.0, -0.0, 5e-324};
  output.evals_avoided = 42;

  const wire::AttemptResponse decoded =
      wire::decode_response(wire::encode_response(response), "test");
  EXPECT_EQ(util::double_bits(decoded.seconds),
            util::double_bits(response.seconds));
  const WorkerOutput& round = decoded.output;
  EXPECT_EQ(round.summary, output.summary);
  EXPECT_EQ(round.oracle_evals, output.oracle_evals);
  EXPECT_EQ(round.state_bytes, output.state_bytes);
  EXPECT_EQ(round.bound_ids, output.bound_ids);
  ASSERT_EQ(round.bound_gains.size(), output.bound_gains.size());
  for (std::size_t i = 0; i < output.bound_gains.size(); ++i) {
    EXPECT_EQ(util::double_bits(round.bound_gains[i]),
              util::double_bits(output.bound_gains[i]));
  }
  EXPECT_EQ(round.evals_avoided, output.evals_avoided);
}

TEST(WireCodec, AttemptRequestRoundTripsPlanShardAndBounds) {
  wire::AttemptRequest request;
  request.round = 2;
  request.machine = 5;
  request.attempt = 3;
  request.fault = dist::FaultKind::kCrash;
  request.plan.kind = dist::WorkerPlanKind::kThreshold;
  request.plan.selector = MachineSelector::kStochasticGreedy;
  request.plan.stochastic_c = 2.5;
  request.plan.stop_when_no_gain = false;
  request.plan.budget = 9;
  request.plan.threshold = 1.0 / 7.0;
  request.plan.seed = 99;
  request.plan.round = 2;
  request.plan.lazy_bounds = true;
  request.plan.committed = {10, 20, 30};
  request.shard = {1, 2, 3, 4};
  request.bound_ids = {1, 3};
  request.bound_gains = {0.25, 1e-17};
  request.bound_prefixes = {0, 2};

  const wire::AttemptRequest round =
      wire::decode_request(wire::encode_request(request), "test");
  EXPECT_EQ(round.round, request.round);
  EXPECT_EQ(round.machine, request.machine);
  EXPECT_EQ(round.attempt, request.attempt);
  EXPECT_EQ(round.fault, request.fault);
  EXPECT_EQ(round.plan.kind, request.plan.kind);
  EXPECT_EQ(round.plan.selector, request.plan.selector);
  EXPECT_EQ(util::double_bits(round.plan.stochastic_c),
            util::double_bits(request.plan.stochastic_c));
  EXPECT_EQ(round.plan.stop_when_no_gain, request.plan.stop_when_no_gain);
  EXPECT_EQ(round.plan.budget, request.plan.budget);
  EXPECT_EQ(util::double_bits(round.plan.threshold),
            util::double_bits(request.plan.threshold));
  EXPECT_EQ(round.plan.seed, request.plan.seed);
  EXPECT_EQ(round.plan.round, request.plan.round);
  EXPECT_EQ(round.plan.lazy_bounds, request.plan.lazy_bounds);
  EXPECT_EQ(round.plan.committed, request.plan.committed);
  EXPECT_EQ(round.shard, request.shard);
  EXPECT_EQ(round.bound_ids, request.bound_ids);
  ASSERT_EQ(round.bound_gains.size(), request.bound_gains.size());
  for (std::size_t i = 0; i < request.bound_gains.size(); ++i) {
    EXPECT_EQ(util::double_bits(round.bound_gains[i]),
              util::double_bits(request.bound_gains[i]));
  }
  EXPECT_EQ(round.bound_prefixes, request.bound_prefixes);
}

// Enum tokens are range-checked on decode: a corrupt or version-skewed
// request fails naming its field and peer instead of carrying an
// enumerator that does not exist into the worker.
std::string encoded_request() {
  wire::AttemptRequest request;
  request.round = 2;
  request.machine = 5;
  request.attempt = 3;
  request.fault = dist::FaultKind::kCrash;  // token 1
  request.plan.kind = dist::WorkerPlanKind::kThreshold;  // token 1
  request.plan.selector = MachineSelector::kStochasticGreedy;  // token 2
  return wire::encode_request(request);
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

void expect_rejected(const std::string& payload, const std::string& field) {
  try {
    wire::decode_request(payload, "coordinator");
    FAIL() << field << " out of range must not decode";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coordinator"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(WireCodec, RequestRejectsOutOfRangeFault) {
  const std::string good = encoded_request();
  ASSERT_EQ(wire::decode_request(good, "coordinator").fault,
            dist::FaultKind::kCrash);
  expect_rejected(
      replace_once(good, "attempt 2 5 3 1\n", "attempt 2 5 3 5\n"),
      "fault 5");
}

TEST(WireCodec, RequestRejectsOutOfRangePlanKind) {
  expect_rejected(replace_once(encoded_request(), "plan 1 2 ", "plan 3 2 "),
                  "plan kind 3");
}

TEST(WireCodec, RequestRejectsOutOfRangeSelector) {
  expect_rejected(replace_once(encoded_request(), "plan 1 2 ", "plan 1 3 "),
                  "plan selector 3");
}

TEST(WireCodec, HelloCarriesPathsWithWhitespace) {
  wire::Hello hello;
  hello.machine = 3;
  hello.ground_size = 1000;
  data::CorpusSpec spec;
  spec.objective = "coverage";
  spec.path = "/tmp/dir with spaces/and\nnewline.bds";
  hello.corpus_spec = spec.serialize();

  const wire::Hello round =
      wire::decode_hello(wire::encode_hello(hello), "test");
  EXPECT_EQ(round.machine, hello.machine);
  EXPECT_EQ(round.ground_size, hello.ground_size);
  EXPECT_EQ(round.corpus_spec, hello.corpus_spec);
  EXPECT_EQ(data::CorpusSpec::deserialize(round.corpus_spec).path, spec.path);
}

TEST(WireCodec, MalformedPayloadNamesTheContext) {
  try {
    wire::decode_response("seconds not-a-number\n", "transport worker 7");
    FAIL() << "malformed payload must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("transport worker 7"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bds
