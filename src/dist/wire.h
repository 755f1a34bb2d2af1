// The coordinator <-> bds_worker wire protocol.
//
// Length-framed, versioned messages over a byte stream (a socketpair in
// practice; anything read()/send()-able works):
//
//   frame  := header payload
//   header := magic:u32 version:u32 type:u32 payload_len:u64   (LE, 20 B)
//
// Payloads reuse the checkpoint serialization discipline (util/serialize.h):
// whitespace-separated tokens, doubles as IEEE-754 bit patterns — so a
// WorkerOutput decoded on the far side is bit-identical to the one encoded.
// v2 also carries bound sections (the plan's lazy_bounds flag, the
// request's bound_* arrays, the response's bound_* arrays and
// evals_avoided). They still round-trip, but the library never fills them:
// each worker's lazy greedy keeps its bounds to itself.
//
// Session shape (coordinator drives; the worker only ever replies):
//
//   kHello      -> kHelloAck      handshake: machine index, ground size,
//                                 corpus spec (the worker loads its oracle)
//   kRequest    -> kResponse      one worker attempt (or kError)
//   kShutdown   -> (EOF)          orderly exit; EOF alone also suffices
//
// Failure taxonomy: *structural* violations (bad magic, version skew,
// oversized length, unknown type, truncated frame) throw WireError naming
// the peer — they mean a bug or corruption, and retrying cannot help.
// *Connection* endings (EOF at a frame boundary, ECONNRESET/EPIPE) return
// kClosed — they mean the peer died, which the transport maps to a crash
// fault and the cluster's retry machinery handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dist/cluster.h"
#include "dist/faults.h"
#include "dist/transport.h"
#include "util/element.h"

namespace bds::dist::wire {

inline constexpr std::uint32_t kMagic = 0x57534442u;  // "BDSW" little-endian
// v2: the plan line lost its worker-oracle and incremental-central fields.
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 20;
// Largest payload either side accepts; a corrupted length field fails fast
// instead of attempting a gigantic allocation.
inline constexpr std::uint64_t kMaxPayload = 1ull << 30;

enum class FrameType : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kRequest = 3,
  kResponse = 4,
  kError = 5,     // payload: human-readable worker-side failure message
  kShutdown = 6,  // no payload
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// Structural protocol violation; the message names the offending peer.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class IoStatus : std::uint8_t {
  kOk,      // frame fully written / read
  kClosed,  // peer gone (EOF at boundary, EPIPE, ECONNRESET)
};

// Serializes header + payload into one contiguous buffer (what a single
// send() ships). Exposed separately so tests can craft corrupt frames.
std::string encode_frame(FrameType type, std::string_view payload);

// Writes one frame to fd. Adds header+payload size to *bytes when non-null.
// Returns kClosed if the peer is gone; throws WireError (naming `peer`) on
// any other I/O failure.
IoStatus write_frame(int fd, FrameType type, std::string_view payload,
                     std::uint64_t* bytes, const std::string& peer);

// Reads one frame from fd. Returns kClosed on EOF before any header byte
// or a reset connection; throws WireError (naming `peer`) on bad magic,
// version skew, unknown type, oversized length, or a frame truncated
// mid-header/mid-payload.
IoStatus read_frame(int fd, Frame* frame, std::uint64_t* bytes,
                    const std::string& peer);

// ---------------------------------------------------------------------------
// Payload codecs. Every decode takes a `context` that prefixes error
// messages (the transport passes its worker name). Encodes are total;
// decodes throw std::invalid_argument on malformed payloads, including an
// enum token outside its type's range (the message names the field).

// Handshake: everything a worker needs to provision itself.
struct Hello {
  std::size_t machine = 0;
  std::size_t ground_size = 0;
  std::string corpus_spec;  // serialized data::CorpusSpec
};
std::string encode_hello(const Hello& hello);
Hello decode_hello(std::string_view payload, const std::string& context);

// Handshake reply: the worker's pid (for error messages and kill tooling).
std::string encode_hello_ack(std::int64_t pid);
std::int64_t decode_hello_ack(std::string_view payload,
                              const std::string& context);

// One worker attempt: the declarative plan, the shard, the coordinator's
// committed set (inside plan) and the fault to enact (kCrash makes the
// worker exit for real after replying). The bound_* arrays are the v2
// frame's reserved sections; the library sends them empty.
struct AttemptRequest {
  std::size_t round = 0;
  std::size_t machine = 0;
  std::size_t attempt = 0;
  FaultKind fault = FaultKind::kNone;
  WorkerPlan plan;  // kind must not be kCustom
  std::vector<ElementId> shard;
  std::vector<ElementId> bound_ids;
  std::vector<double> bound_gains;
  std::vector<std::size_t> bound_prefixes;
};
std::string encode_request(const AttemptRequest& request);
AttemptRequest decode_request(std::string_view payload,
                              const std::string& context);

// The attempt's result: the worker's full WorkerOutput plus its compute
// wall clock (reporting only, not part of the determinism contract).
struct AttemptResponse {
  WorkerOutput output;
  double seconds = 0.0;
};
std::string encode_response(const AttemptResponse& response);
AttemptResponse decode_response(std::string_view payload,
                                const std::string& context);

}  // namespace bds::dist::wire
