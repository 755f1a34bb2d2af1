// The multi-process backend: one forked bds_worker per logical machine.
//
// Spawning is lazy (machine i's process starts on its first attempt) and
// crash-tolerant: a worker that dies — by an injected kCrash (it exits for
// real after reporting its telemetry) or an external SIGKILL — is detected
// as a closed socket, surfaced to the cluster as a crash fault, and
// respawned on the retry. Workers are pure in (machine, shard), so the
// respawned attempt reproduces the exact summary the dead one would have
// delivered, which is what keeps fault recovery golden.
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dist/transport.h"
#include "dist/wire.h"

namespace bds::dist {

namespace {

std::string resolve_worker_binary(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("BDS_WORKER");
      env != nullptr && *env != '\0') {
    return env;
  }
  // Default: bds_worker installed next to the running executable.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string self(buf);
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos) {
      return self.substr(0, slash + 1) + "bds_worker";
    }
  }
  return "bds_worker";  // last resort: $PATH lookup via execvp
}

// One spawned worker. The mutex serializes the (rare) case of different
// pool threads touching the same machine across rounds — within a round
// each machine is driven by exactly one thread.
struct WorkerProc {
  std::mutex mu;
  pid_t pid = -1;
  int fd = -1;
};

class ProcessTransport final : public ClusterTransport {
 public:
  explicit ProcessTransport(ProcessTransportConfig config)
      : config_(std::move(config)),
        binary_(resolve_worker_binary(config_.worker_binary)),
        workers_(config_.machines) {
    for (auto& w : workers_) w = std::make_unique<WorkerProc>();
  }

  ~ProcessTransport() override {
    for (auto& w : workers_) {
      std::scoped_lock lock(w->mu);
      if (w->fd < 0) continue;
      try {
        wire::write_frame(w->fd, wire::FrameType::kShutdown, {}, nullptr,
                          "worker");
      } catch (...) {
        // Best-effort goodbye; reaping below is what matters.
      }
      reap(*w);
    }
  }

  std::string_view name() const noexcept override { return "process"; }

  AttemptResult run_attempt(std::size_t round, std::size_t machine,
                            std::size_t attempt, FaultKind injected,
                            std::span<const ElementId> shard,
                            const RoundWork& work) override {
    if (work.plan.kind == WorkerPlanKind::kCustom) {
      throw std::runtime_error(
          "transport worker " + std::to_string(machine) +
          ": process transport cannot execute custom (closure-only) work; "
          "run this program on the in-process transport");
    }
    WorkerProc& w = *workers_[machine];
    std::scoped_lock lock(w.mu);
    if (!ensure_alive(machine, w)) {
      // The fresh worker was killed before completing its handshake (a
      // SIGKILL can land at any instant, including this one). Same story
      // as a mid-attempt death: crash fault, respawn on the retry.
      AttemptResult result;
      result.crashed = true;
      return result;
    }
    const std::string peer = worker_name(machine, w);

    wire::AttemptRequest request;
    request.round = round;
    request.machine = machine;
    request.attempt = attempt;
    request.fault = injected;
    request.plan = work.plan;
    request.shard.assign(shard.begin(), shard.end());

    AttemptResult result;
    if (wire::write_frame(w.fd, wire::FrameType::kRequest,
                          wire::encode_request(request),
                          &result.wire_bytes_sent, peer) ==
        wire::IoStatus::kClosed) {
      reap(w);
      result.crashed = true;
      return result;
    }

    wire::Frame frame;
    if (wire::read_frame(w.fd, &frame, &result.wire_bytes_received, peer) ==
        wire::IoStatus::kClosed) {
      // Real worker death (SIGKILL, OOM, ...): nothing reached us. The
      // cluster maps this to a crash fault and retries on a respawn.
      reap(w);
      result.crashed = true;
      return result;
    }
    if (frame.type == wire::FrameType::kError) {
      throw std::runtime_error(peer + ": " + frame.payload);
    }
    if (frame.type != wire::FrameType::kResponse) {
      throw wire::WireError(peer + ": unexpected frame type " +
                            std::to_string(static_cast<unsigned>(frame.type)));
    }
    wire::AttemptResponse response =
        wire::decode_response(frame.payload, peer);
    result.output = std::move(response.output);
    result.seconds = response.seconds;

    if (injected == FaultKind::kCrash) {
      // Death rattle: the worker reported its telemetry (keeping
      // wasted-eval accounting identical to the simulator) and then
      // genuinely exited. Reap it now; the retry respawns.
      reap(w);
    }
    return result;
  }

 private:
  static std::string worker_name(std::size_t machine, const WorkerProc& w) {
    return "transport worker " + std::to_string(machine) + " (pid " +
           std::to_string(w.pid) + ")";
  }

  // Returns the child's waitpid status (-1 when there was no child to
  // reap) so callers can distinguish a killed worker from one that exited.
  int reap(WorkerProc& w) const {
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    int status = -1;
    if (w.pid > 0) {
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
    return status;
  }

  // Spawns + handshakes machine's worker if it isn't already up. Returns
  // false when the fresh child died of a *signal* mid-handshake — a
  // transient kill the caller turns into a crash/retry. Deterministic
  // failures (exec failure, the binary exiting on its own, a rejected
  // corpus spec) throw instead: a bad configuration never gets better and
  // must not burn the retry budget producing unheard machines.
  bool ensure_alive(std::size_t machine, WorkerProc& w) const {
    if (w.fd >= 0) return true;

    // SOCK_CLOEXEC: pool threads spawn workers concurrently, so a sibling's
    // fork can inherit this pair; without the flag its exec'd worker keeps
    // our worker's end open, and a SIGKILL'd worker never reads as EOF.
    // dup2 below clears the flag on the child's stdin/stdout copies.
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      throw std::runtime_error(
          "transport worker " + std::to_string(machine) +
          ": socketpair failed: " + std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("transport worker " + std::to_string(machine) +
                               ": fork failed: " + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: the socket becomes stdin/stdout, stderr stays inherited for
      // diagnostics. fork-then-immediately-exec is safe from pool threads.
      ::dup2(sv[1], 0);
      ::dup2(sv[1], 1);
      ::close(sv[0]);
      if (sv[1] > 1) ::close(sv[1]);
      char* const argv[] = {const_cast<char*>("bds_worker"), nullptr};
      ::execvp(binary_.c_str(), argv);
      const char* msg = "bds_worker: exec failed\n";
      ssize_t ignored = ::write(2, msg, std::strlen(msg));
      (void)ignored;
      ::_exit(127);
    }
    ::close(sv[1]);
    w.fd = sv[0];
    w.pid = pid;

    // Handshake: ship the corpus spec; the worker loads its oracle and
    // acks.
    const std::string peer = worker_name(machine, w);
    wire::Hello hello;
    hello.machine = machine;
    hello.ground_size = config_.ground_size;
    hello.corpus_spec = config_.corpus_spec;
    try {
      wire::Frame frame;
      const bool closed =
          wire::write_frame(w.fd, wire::FrameType::kHello,
                            wire::encode_hello(hello), nullptr,
                            peer) == wire::IoStatus::kClosed ||
          wire::read_frame(w.fd, &frame, nullptr, peer) ==
              wire::IoStatus::kClosed;
      if (closed) {
        const int status = reap(w);
        if (status >= 0 && WIFSIGNALED(status)) return false;
        throw std::runtime_error(peer + ": died during handshake (exec '" +
                                 binary_ + "' failed?)");
      }
      if (frame.type == wire::FrameType::kError) {
        throw std::runtime_error(peer + ": handshake rejected: " +
                                 frame.payload);
      }
      if (frame.type != wire::FrameType::kHelloAck) {
        throw wire::WireError(peer + ": unexpected handshake frame type " +
                              std::to_string(
                                  static_cast<unsigned>(frame.type)));
      }
      wire::decode_hello_ack(frame.payload, peer);
    } catch (...) {
      reap(w);
      throw;
    }
    return true;
  }

  ProcessTransportConfig config_;
  std::string binary_;
  std::vector<std::unique_ptr<WorkerProc>> workers_;
};

}  // namespace

std::shared_ptr<ClusterTransport> make_process_transport(
    const ProcessTransportConfig& config) {
  return std::make_shared<ProcessTransport>(config);
}

}  // namespace bds::dist
