// bds_worker — the process-transport worker executable.
//
// Spawned by dist::make_process_transport, one per logical machine, with
// the coordinator's socket as stdin/stdout. The loop is entirely reactive:
// a kHello provisions the oracle from the shipped data::CorpusSpec, then
// each kRequest executes one worker attempt through the *same*
// detail::make_machine_worker / make_threshold_worker code paths the
// in-process transport runs, which is what makes the two backends
// bit-identical. An injected crash fault makes this process genuinely
// _exit(9) — after replying, so the coordinator's wasted-eval accounting
// matches the in-process fault simulator.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "core/machine_runner.h"
#include "data/corpus.h"
#include "dist/cluster.h"
#include "dist/faults.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "util/timer.h"

namespace {

using bds::dist::FaultKind;
using bds::dist::WorkerPlanKind;
namespace wire = bds::dist::wire;

constexpr int kInFd = 0;
constexpr int kOutFd = 1;

// The coordinator is the only peer this process ever speaks to.
const std::string kPeer = "coordinator";

struct WorkerState {
  std::size_t machine = 0;
  std::unique_ptr<bds::SubmodularOracle> proto;
};

void send_error(const std::string& message) {
  // Best-effort: if the coordinator is gone there is nobody to tell.
  try {
    wire::write_frame(kOutFd, wire::FrameType::kError, message, nullptr,
                      kPeer);
  } catch (...) {
  }
}

void handle_hello(const wire::Frame& frame, WorkerState& state) {
  const wire::Hello hello = wire::decode_hello(frame.payload, kPeer);
  const bds::data::CorpusSpec spec =
      bds::data::CorpusSpec::deserialize(hello.corpus_spec);
  state.proto = spec.make_oracle();
  state.machine = hello.machine;
  wire::write_frame(kOutFd, wire::FrameType::kHelloAck,
                    wire::encode_hello_ack(static_cast<std::int64_t>(getpid())),
                    nullptr, kPeer);
}

void handle_request(const wire::Frame& frame, const WorkerState& state) {
  if (state.proto == nullptr) {
    send_error("bds_worker: request before hello");
    return;
  }
  const wire::AttemptRequest request =
      wire::decode_request(frame.payload, kPeer);
  const bds::dist::WorkerPlan& plan = request.plan;
  if (plan.kind == WorkerPlanKind::kCustom) {
    send_error("bds_worker: cannot execute custom (closure-only) work");
    return;
  }

  // Rebuild the coordinator's oracle state: a clone of the prototype with
  // the same committed prefix replayed in order.
  const std::unique_ptr<bds::SubmodularOracle> central = state.proto->clone();
  for (const bds::ElementId x : plan.committed) central->add(x);

  bds::dist::Cluster::WorkerFn fn;
  if (plan.kind == WorkerPlanKind::kThreshold) {
    bds::detail::ThresholdWorkerConfig config;
    config.threshold = plan.threshold;
    config.budget = plan.budget;
    config.central = central.get();
    fn = bds::detail::make_threshold_worker(config);
  } else {
    bds::detail::MachineWorkerConfig config;
    config.selector = plan.selector;
    config.stochastic_c = plan.stochastic_c;
    config.stop_when_no_gain = plan.stop_when_no_gain;
    config.budget = plan.budget;
    config.seed = plan.seed;
    config.round = plan.round;
    config.central = central.get();
    fn = bds::detail::make_machine_worker(config);
  }

  wire::AttemptResponse response;
  bds::util::Timer timer;
  response.output = fn(request.machine, request.shard);
  response.seconds = timer.elapsed_seconds();

  wire::write_frame(kOutFd, wire::FrameType::kResponse,
                    wire::encode_response(response), nullptr, kPeer);

  if (request.fault == FaultKind::kCrash) {
    // Injected crash: die for real, post-reply, so the coordinator keeps
    // the attempt's telemetry but must respawn us for the retry.
    ::_exit(9);
  }
}

}  // namespace

int main() {
  WorkerState state;
  for (;;) {
    wire::Frame frame;
    try {
      if (wire::read_frame(kInFd, &frame, nullptr, kPeer) ==
          wire::IoStatus::kClosed) {
        return 0;  // coordinator hung up — orderly exit
      }
    } catch (const std::exception& e) {
      send_error(std::string("bds_worker: ") + e.what());
      return 1;
    }
    try {
      switch (frame.type) {
        case wire::FrameType::kHello:
          handle_hello(frame, state);
          break;
        case wire::FrameType::kRequest:
          handle_request(frame, state);
          break;
        case wire::FrameType::kShutdown:
          return 0;
        default:
          send_error("bds_worker: unexpected frame type " +
                     std::to_string(static_cast<unsigned>(frame.type)));
          break;
      }
    } catch (const std::exception& e) {
      // Report and keep serving: a failed attempt poisons neither the
      // oracle (rebuilt per request) nor the connection.
      send_error(std::string("bds_worker: ") + e.what());
    }
  }
}
