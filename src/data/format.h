// The versioned binary on-disk container for dataset substrates (format v2,
// "BDS2") — the layout both the writers in data/io.cpp and the mmap load
// path share. See DESIGN.md §2.3.1 for the layout diagram and the
// version/alignment policy.
//
//   byte 0                                            64-byte aligned
//   ┌──────────────┬───────────┬─────────────┬───────────┬─────────────┐
//   │ FileHeader   │ (padding) │ section A   │ (padding) │ section B   │
//   │ (64 bytes)   │           │             │           │             │
//   └──────────────┴───────────┴─────────────┴───────────┴─────────────┘
//
// Every section starts at a file offset that is a multiple of
// kSectionAlign (64 — a cache line, and a divisor of the page size), so a
// page-aligned mmap base makes every section pointer safely aligned for
// its element type, including the kSimdAlign (32) requirement of
// PointSet's padded row matrix. All integers are little-endian; the header
// carries an endianness tag so a wrong-endian host fails loudly instead of
// reading garbage.
//
// Version policy: the header's `version` is the format generation, bumped
// on any layout change (no in-place migration — bds_convert re-encodes).
// Readers reject other versions; the v1 streamed format (magic "BDSS" /
// "BDSP" / "BDSB") predates this header and remains readable through the
// legacy heap-load path only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bds::data {

inline constexpr std::uint32_t kFormatMagic = 0x32534442;  // "BDS2"
inline constexpr std::uint32_t kFormatVersion = 2;
// Written as 0x01020304 by the (little-endian) writer; a big-endian reader
// sees 0x04030201 and rejects the file.
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr std::uint64_t kSectionAlign = 64;

// The v1 streamed-format magics (pre-header, parse-and-copy only).
inline constexpr std::uint32_t kV1SetMagic = 0x42445353;    // "BDSS"
inline constexpr std::uint32_t kV1PointMagic = 0x42445350;  // "BDSP"
inline constexpr std::uint32_t kV1ProbMagic = 0x42445342;   // "BDSB"

enum class PayloadKind : std::uint32_t {
  kSetSystem = 1,      // A: (count+1) u64 CSR offsets, B: meta_b u32 entries
  kPointSet = 2,       // A: count·meta_b f32 padded rows, B: count f64 norms
  kProbSetSystem = 3,  // A: (count+1) u64 offsets, B: meta_b {u32,f32} entries
};

// 64-byte fixed header at file offset 0.
struct FileHeader {
  std::uint32_t magic;       // kFormatMagic
  std::uint32_t version;     // kFormatVersion
  std::uint32_t endian;      // kEndianTag
  std::uint32_t kind;        // PayloadKind
  std::uint64_t count;       // sets (set kinds) / points (kPointSet)
  std::uint64_t meta_a;      // universe_size / dim
  std::uint64_t meta_b;      // total entries / row stride (floats)
  std::uint64_t section_a;   // byte offset of section A (kSectionAlign'ed)
  std::uint64_t section_b;   // byte offset of section B (kSectionAlign'ed)
  std::uint64_t file_bytes;  // exact total file size (truncation check)
};
static_assert(sizeof(FileHeader) == 64, "header layout is load-bearing");

inline constexpr std::uint64_t align_up(std::uint64_t offset) noexcept {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

}  // namespace bds::data
