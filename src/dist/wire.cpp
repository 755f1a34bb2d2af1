#include "dist/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/serialize.h"

namespace bds::dist::wire {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

bool valid_type(std::uint32_t type) {
  return type >= static_cast<std::uint32_t>(FrameType::kHello) &&
         type <= static_cast<std::uint32_t>(FrameType::kShutdown);
}

// A peer that vanished mid-conversation is a crash, not a protocol bug.
bool is_disconnect(int err) {
  return err == EPIPE || err == ECONNRESET || err == ESHUTDOWN;
}

// send() when fd is a socket (MSG_NOSIGNAL: a dead peer yields EPIPE, not
// a process-killing SIGPIPE); write() fallback for pipes in tests.
ssize_t write_some(int fd, const char* data, std::size_t len) {
  const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, len);
  return n;
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u64(out, payload.size());
  out.append(payload);
  return out;
}

IoStatus write_frame(int fd, FrameType type, std::string_view payload,
                     std::uint64_t* bytes, const std::string& peer) {
  const std::string frame = encode_frame(type, payload);
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        write_some(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_disconnect(errno)) return IoStatus::kClosed;
      throw WireError(peer + ": write failed: " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (bytes != nullptr) *bytes += frame.size();
  return IoStatus::kOk;
}

IoStatus read_frame(int fd, Frame* frame, std::uint64_t* bytes,
                    const std::string& peer) {
  unsigned char header[kHeaderBytes];
  std::size_t have = 0;
  while (have < kHeaderBytes) {
    const ssize_t n = ::read(fd, header + have, kHeaderBytes - have);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_disconnect(errno)) return IoStatus::kClosed;
      throw WireError(peer + ": read failed: " + std::strerror(errno));
    }
    if (n == 0) {
      // Clean close between frames is the peer hanging up; a close with a
      // partial header on the wire is corruption.
      if (have == 0) return IoStatus::kClosed;
      throw WireError(peer + ": truncated frame header (" +
                      std::to_string(have) + " of " +
                      std::to_string(kHeaderBytes) + " bytes)");
    }
    have += static_cast<std::size_t>(n);
  }

  const std::uint32_t magic = get_u32(header);
  if (magic != kMagic) {
    throw WireError(peer + ": bad frame magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }());
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kVersion) {
    throw WireError(peer + ": wire version skew: peer speaks " +
                    std::to_string(version) + ", this build speaks " +
                    std::to_string(kVersion));
  }
  const std::uint32_t type = get_u32(header + 8);
  if (!valid_type(type)) {
    throw WireError(peer + ": unknown frame type " + std::to_string(type));
  }
  const std::uint64_t length = get_u64(header + 12);
  if (length > kMaxPayload) {
    throw WireError(peer + ": oversized frame: " + std::to_string(length) +
                    " bytes exceeds the " + std::to_string(kMaxPayload) +
                    "-byte cap");
  }

  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(length, '\0');
  std::size_t got = 0;
  while (got < length) {
    const ssize_t n =
        ::read(fd, frame->payload.data() + got, length - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_disconnect(errno)) return IoStatus::kClosed;
      throw WireError(peer + ": read failed: " + std::strerror(errno));
    }
    if (n == 0) {
      throw WireError(peer + ": truncated frame payload (" +
                      std::to_string(got) + " of " + std::to_string(length) +
                      " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  if (bytes != nullptr) *bytes += kHeaderBytes + length;
  return IoStatus::kOk;
}

// ---------------------------------------------------------------------------
// Payload codecs

std::string encode_hello(const Hello& hello) {
  std::ostringstream out;
  out << "hello " << hello.machine << ' ' << hello.ground_size << '\n';
  out << "corpus ";
  util::write_blob(out, hello.corpus_spec);
  out << '\n';
  out << "end\n";
  return std::move(out).str();
}

Hello decode_hello(std::string_view payload, const std::string& context) {
  util::TokenReader in(payload, context);
  in.expect("hello");
  Hello hello;
  hello.machine = in.size();
  hello.ground_size = in.size();
  in.expect("corpus");
  hello.corpus_spec = in.blob();
  in.expect("end");
  return hello;
}

std::string encode_hello_ack(std::int64_t pid) {
  return "pid " + std::to_string(pid) + "\n";
}

std::int64_t decode_hello_ack(std::string_view payload,
                              const std::string& context) {
  util::TokenReader in(payload, context);
  in.expect("pid");
  return static_cast<std::int64_t>(in.u64());
}

std::string encode_request(const AttemptRequest& request) {
  std::ostringstream out;
  out << "attempt " << request.round << ' ' << request.machine << ' '
      << request.attempt << ' ' << static_cast<unsigned>(request.fault)
      << '\n';
  const WorkerPlan& plan = request.plan;
  out << "plan " << static_cast<unsigned>(plan.kind) << ' '
      << static_cast<unsigned>(plan.selector) << ' '
      << util::double_bits(plan.stochastic_c) << ' '
      << (plan.stop_when_no_gain ? 1 : 0) << ' ' << plan.budget << ' '
      << util::double_bits(plan.threshold) << ' ' << plan.seed << ' '
      << plan.round << ' ' << (plan.lazy_bounds ? 1 : 0) << '\n';
  util::write_ids(out, "committed", plan.committed);
  util::write_ids(out, "shard", request.shard);
  util::write_ids(out, "bound_ids", request.bound_ids);
  out << "bound_gains ";
  util::write_reals(out, request.bound_gains);
  out << '\n';
  out << "bound_prefixes ";
  util::write_indices(out, request.bound_prefixes);
  out << '\n';
  out << "end\n";
  return std::move(out).str();
}

AttemptRequest decode_request(std::string_view payload,
                              const std::string& context) {
  util::TokenReader in(payload, context);
  AttemptRequest request;
  in.expect("attempt");
  request.round = in.size();
  request.machine = in.size();
  request.attempt = in.size();
  request.fault = util::read_enum(in, FaultKind::kStraggler, "fault");
  in.expect("plan");
  WorkerPlan& plan = request.plan;
  plan.kind = util::read_enum(in, WorkerPlanKind::kCustom, "plan kind");
  plan.selector = util::read_enum(in, MachineSelector::kStochasticGreedy,
                                  "plan selector");
  plan.stochastic_c = in.real();
  plan.stop_when_no_gain = in.flag();
  plan.budget = in.size();
  plan.threshold = in.real();
  plan.seed = in.u64();
  plan.round = in.size();
  plan.lazy_bounds = in.flag();
  plan.committed = in.ids("committed");
  request.shard = in.ids("shard");
  request.bound_ids = in.ids("bound_ids");
  in.expect("bound_gains");
  request.bound_gains = in.reals();
  in.expect("bound_prefixes");
  request.bound_prefixes = in.indices();
  in.expect("end");
  return request;
}

std::string encode_response(const AttemptResponse& response) {
  const WorkerOutput& output = response.output;
  std::ostringstream out;
  out << "seconds " << util::double_bits(response.seconds) << '\n';
  util::write_ids(out, "summary", output.summary);
  out << "evals " << output.oracle_evals << '\n';
  out << "state_bytes " << output.state_bytes << '\n';
  util::write_ids(out, "bound_ids", output.bound_ids);
  out << "bound_gains ";
  util::write_reals(out, output.bound_gains);
  out << '\n';
  out << "evals_avoided " << output.evals_avoided << '\n';
  out << "end\n";
  return std::move(out).str();
}

AttemptResponse decode_response(std::string_view payload,
                                const std::string& context) {
  util::TokenReader in(payload, context);
  AttemptResponse response;
  WorkerOutput& output = response.output;
  in.expect("seconds");
  response.seconds = in.real();
  output.summary = in.ids("summary");
  in.expect("evals");
  output.oracle_evals = in.u64();
  in.expect("state_bytes");
  output.state_bytes = in.u64();
  output.bound_ids = in.ids("bound_ids");
  in.expect("bound_gains");
  output.bound_gains = in.reals();
  in.expect("evals_avoided");
  output.evals_avoided = in.u64();
  in.expect("end");
  return response;
}

}  // namespace bds::dist::wire
