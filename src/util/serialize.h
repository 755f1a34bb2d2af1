// The repo's one binary-exact text serialization API.
//
// Checkpoints (dist/engine.cpp) and the worker wire protocol (dist/wire.h)
// speak the same discipline: whitespace-separated tokens under a versioned
// header, with doubles carried as their IEEE-754 bit patterns so a decoded
// value is bit-identical to the encoded one — not merely close. This header
// holds the shared encode/decode vocabulary; formats (field order, tags,
// version numbers) stay with their owners.
//
// TokenReader is the decode side: a forward-only token stream with typed
// accessors that throw std::invalid_argument on malformed input. The
// `context` string prefixes every error ("checkpoint: truncated input",
// "wire worker 3: bad integer ...") so failures name their source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/element.h"

namespace bds::util {

// IEEE-754 bit-pattern transport for doubles (std::bit_cast both ways).
std::uint64_t double_bits(double v) noexcept;
double bits_double(std::uint64_t bits) noexcept;

// Length-prefixed vector writers: "<tag> <n> x0 x1 ..." (tagged form ends
// with a newline; untagged forms emit no surrounding whitespace so callers
// compose them into larger records).
void write_ids(std::ostream& out, const char* tag,
               const std::vector<ElementId>& ids);
void write_indices(std::ostream& out, const std::vector<std::size_t>& ids);
// Doubles as bit patterns: "<n> b0 b1 ...".
void write_reals(std::ostream& out, const std::vector<double>& values);
// Length-prefixed raw bytes ("<n> " + exactly n bytes, whitespace and all)
// — the escape hatch for embedded strings that are not single tokens
// (file paths, nested serialized documents).
void write_blob(std::ostream& out, std::string_view bytes);

class TokenReader {
 public:
  // `context` prefixes every error message thrown by this reader.
  explicit TokenReader(std::string_view text,
                       std::string context = "serialize");

  // Next whitespace-delimited token; throws on end of input.
  std::string word();
  // Consumes one token and requires it to equal `tag`.
  void expect(const char* tag);

  std::uint64_t u64();
  std::size_t size() { return static_cast<std::size_t>(u64()); }
  double real() { return bits_double(u64()); }
  bool flag() { return u64() != 0; }

  // Length-prefixed vectors (the write_* encodings above).
  std::vector<ElementId> ids(const char* tag) {
    expect(tag);
    return ids();
  }
  std::vector<ElementId> ids();
  std::vector<std::size_t> indices();
  std::vector<double> reals();
  // The write_blob encoding: length token, one separator byte, raw bytes.
  std::string blob();

  // True once every remaining character is whitespace — strict decoders
  // (the wire protocol) reject trailing garbage.
  bool at_end();

  const std::string& context() const noexcept { return context_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::istringstream in_;
  std::string context_;
};

// Reads an enum token, refusing values past `last`: a corrupt or skewed
// input must fail naming its field ("<context>: fault 9 is out of range
// (max 4)"), not reach a switch as an enumerator that does not exist.
template <typename Enum>
Enum read_enum(TokenReader& in, Enum last, const char* field) {
  const std::uint64_t token = in.u64();
  const auto max = static_cast<std::uint64_t>(last);
  if (token > max) {
    throw std::invalid_argument(in.context() + ": " + field + " " +
                                std::to_string(token) +
                                " is out of range (max " +
                                std::to_string(max) + ")");
  }
  return static_cast<Enum>(token);
}

}  // namespace bds::util
