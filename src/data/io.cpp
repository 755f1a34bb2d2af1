#include "data/io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "data/format.h"
#include "util/aligned.h"

namespace bds::data {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("dataset io: " + what + ": " + path);
}

// ---------------------------------------------------------------------------
// v2 container plumbing: one writer and one byte-view reader shared by all
// three payload kinds. The heap and mmap load paths differ only in where
// the bytes live; everything after `RawFile` is identical, which is what
// makes the two backings bit-identical by construction.

// A read-only byte range plus whatever owns it (a MappedFile or a heap
// buffer), threaded into the dataset objects as their keep-alive handle.
struct RawFile {
  std::shared_ptr<const void> storage;
  const char* data = nullptr;
  std::uint64_t size = 0;
  std::string path;
};

// Heap buffers replicate the mapping's alignment guarantee: sections are
// kSectionAlign'ed within the file, so a kSectionAlign'ed base keeps every
// section pointer aligned for its element type.
using HeapBuffer = std::vector<char, util::AlignedAllocator<char, kSectionAlign>>;

RawFile map_raw(const std::string& path, util::MapAdvice advice) {
  auto file = util::MappedFile::open(path, advice);
  RawFile raw;
  raw.data = reinterpret_cast<const char*>(file->data());
  raw.size = file->size();
  raw.path = path;
  raw.storage = std::move(file);
  return raw;
}

RawFile read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("cannot read", path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  auto buffer = std::make_shared<HeapBuffer>(size);
  in.read(buffer->data(), static_cast<std::streamsize>(size));
  if (!in) fail("truncated file", path);
  RawFile raw;
  raw.data = buffer->data();
  raw.size = size;
  raw.path = path;
  raw.storage = std::move(buffer);
  return raw;
}

bool is_legacy_magic(std::uint32_t magic) {
  return magic == kV1SetMagic || magic == kV1PointMagic ||
         magic == kV1ProbMagic;
}

// Validates the fixed header and the per-kind section geometry. Every
// check is O(1) — map-time validation must not scan the payload (the whole
// point is not to touch it); entry-level invariants are the writer's
// contract, checked by the round-trip tests.
const FileHeader& check_v2(const RawFile& raw, PayloadKind kind) {
  if (raw.size < sizeof(FileHeader)) fail("truncated file", raw.path);
  const auto& header = *reinterpret_cast<const FileHeader*>(raw.data);
  if (header.magic != kFormatMagic) {
    if (is_legacy_magic(header.magic)) {
      fail("legacy v1 file; re-encode with bds_convert", raw.path);
    }
    fail("wrong file type (bad magic)", raw.path);
  }
  if (header.version != kFormatVersion) fail("unsupported version", raw.path);
  if (header.endian != kEndianTag) fail("endianness mismatch", raw.path);
  if (header.kind != static_cast<std::uint32_t>(kind)) {
    fail("wrong payload kind", raw.path);
  }
  if (header.file_bytes != raw.size) fail("truncated file", raw.path);

  // Section geometry in checked u64 arithmetic: a forged field must not
  // wrap a size or an end offset back into the file.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto mul = [&](std::uint64_t a, std::uint64_t b) {
    if (a != 0 && b > kMax / a) fail("section out of bounds", raw.path);
    return a * b;
  };
  const auto add = [&](std::uint64_t a, std::uint64_t b) {
    if (b > kMax - a) fail("section out of bounds", raw.path);
    return a + b;
  };
  std::uint64_t a_bytes = 0;
  std::uint64_t b_bytes = 0;
  switch (kind) {
    case PayloadKind::kSetSystem:
      a_bytes = mul(add(header.count, 1), sizeof(std::uint64_t));
      b_bytes = mul(header.meta_b, sizeof(std::uint32_t));
      break;
    case PayloadKind::kPointSet:
      a_bytes = mul(mul(header.count, header.meta_b), sizeof(float));
      b_bytes = mul(header.count, sizeof(double));
      break;
    case PayloadKind::kProbSetSystem:
      a_bytes = mul(add(header.count, 1), sizeof(std::uint64_t));
      b_bytes = mul(header.meta_b, sizeof(ProbSetSystem::Entry));
      break;
  }
  if (header.section_a % kSectionAlign != 0 ||
      header.section_b % kSectionAlign != 0) {
    fail("misaligned section offset", raw.path);
  }
  const std::uint64_t a_end = add(header.section_a, a_bytes);
  if (header.section_a < sizeof(FileHeader) || a_end > raw.size ||
      header.section_b < a_end || add(header.section_b, b_bytes) > raw.size) {
    fail("section out of bounds", raw.path);
  }
  return header;
}

template <typename T>
const T* section_ptr(const RawFile& raw, std::uint64_t offset) {
  return reinterpret_cast<const T*>(raw.data + offset);
}

std::shared_ptr<const SetSystem> view_set_system(RawFile raw) {
  const FileHeader& header = check_v2(raw, PayloadKind::kSetSystem);
  try {
    return std::make_shared<const SetSystem>(
        section_ptr<std::uint64_t>(raw, header.section_a),
        static_cast<std::size_t>(header.count),
        section_ptr<std::uint32_t>(raw, header.section_b),
        static_cast<std::size_t>(header.meta_b),
        static_cast<std::uint32_t>(header.meta_a), raw.storage);
  } catch (const std::invalid_argument& e) {
    fail(e.what(), raw.path);
  }
}

std::shared_ptr<const PointSet> view_point_set(RawFile raw) {
  const FileHeader& header = check_v2(raw, PayloadKind::kPointSet);
  try {
    return std::make_shared<const PointSet>(
        static_cast<std::size_t>(header.count),
        static_cast<std::size_t>(header.meta_a),
        static_cast<std::size_t>(header.meta_b),
        section_ptr<float>(raw, header.section_a),
        section_ptr<double>(raw, header.section_b), raw.storage);
  } catch (const std::invalid_argument& e) {
    fail(e.what(), raw.path);
  }
}

std::shared_ptr<const ProbSetSystem> view_prob_set_system(RawFile raw) {
  const FileHeader& header = check_v2(raw, PayloadKind::kProbSetSystem);
  try {
    return std::make_shared<const ProbSetSystem>(
        section_ptr<std::uint64_t>(raw, header.section_a),
        static_cast<std::size_t>(header.count),
        section_ptr<ProbSetSystem::Entry>(raw, header.section_b),
        static_cast<std::size_t>(header.meta_b),
        static_cast<std::uint32_t>(header.meta_a), raw.storage);
  } catch (const std::invalid_argument& e) {
    fail(e.what(), raw.path);
  }
}

// Writes header + zero padding + section A + padding + section B.
void write_v2(const std::string& path, PayloadKind kind, std::uint64_t count,
              std::uint64_t meta_a, std::uint64_t meta_b, const void* a,
              std::uint64_t a_bytes, const void* b, std::uint64_t b_bytes) {
  FileHeader header{};
  header.magic = kFormatMagic;
  header.version = kFormatVersion;
  header.endian = kEndianTag;
  header.kind = static_cast<std::uint32_t>(kind);
  header.count = count;
  header.meta_a = meta_a;
  header.meta_b = meta_b;
  header.section_a = align_up(sizeof(FileHeader));
  header.section_b = align_up(header.section_a + a_bytes);
  header.file_bytes = header.section_b + b_bytes;

  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write", path);
  const char zeros[kSectionAlign] = {};
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(zeros,
            static_cast<std::streamsize>(header.section_a - sizeof(header)));
  out.write(static_cast<const char*>(a),
            static_cast<std::streamsize>(a_bytes));
  out.write(zeros, static_cast<std::streamsize>(
                       header.section_b - (header.section_a + a_bytes)));
  out.write(static_cast<const char*>(b),
            static_cast<std::streamsize>(b_bytes));
  if (!out) fail("write failed", path);
}

// ---------------------------------------------------------------------------
// Legacy v1 streamed readers (magic "BDSS"/"BDSP"/"BDSB", length-prefixed
// per-row payloads). Kept so pre-v2 files remain heap-loadable; map_*
// rejects them, and bds_convert re-encodes them.

constexpr std::uint32_t kV1Version = 1;

template <typename T>
T read_pod(std::ifstream& in, const std::string& path) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) fail("truncated file", path);
  return value;
}

std::ifstream open_legacy(const std::string& path,
                          std::uint32_t expected_magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read", path);
  const auto magic = read_pod<std::uint32_t>(in, path);
  const auto version = read_pod<std::uint32_t>(in, path);
  if (magic != expected_magic) fail("wrong file type (bad magic)", path);
  if (version != kV1Version) fail("unsupported version", path);
  return in;
}

std::uint32_t peek_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read", path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) fail("truncated file", path);
  return magic;
}

std::shared_ptr<const SetSystem> load_set_system_v1(const std::string& path) {
  auto in = open_legacy(path, kV1SetMagic);
  const auto num_sets = read_pod<std::uint64_t>(in, path);
  const auto universe = read_pod<std::uint32_t>(in, path);
  std::vector<std::vector<std::uint32_t>> sets(num_sets);
  for (auto& s : sets) {
    const auto size = read_pod<std::uint64_t>(in, path);
    s.resize(size);
    in.read(reinterpret_cast<char*>(s.data()),
            std::streamsize(size * sizeof(std::uint32_t)));
    if (!in) fail("truncated file", path);
  }
  return std::make_shared<const SetSystem>(std::move(sets), universe);
}

std::shared_ptr<const PointSet> load_point_set_v1(const std::string& path) {
  auto in = open_legacy(path, kV1PointMagic);
  const auto n = read_pod<std::uint64_t>(in, path);
  const auto dim = read_pod<std::uint64_t>(in, path);
  std::vector<float> data(n * dim);
  in.read(reinterpret_cast<char*>(data.data()),
          std::streamsize(data.size() * sizeof(float)));
  if (!in) fail("truncated file", path);
  return std::make_shared<const PointSet>(n, dim, std::move(data));
}

std::shared_ptr<const ProbSetSystem> load_prob_set_system_v1(
    const std::string& path) {
  auto in = open_legacy(path, kV1ProbMagic);
  const auto num_sets = read_pod<std::uint64_t>(in, path);
  const auto universe = read_pod<std::uint32_t>(in, path);
  std::vector<std::vector<ProbSetSystem::Entry>> sets(num_sets);
  for (auto& s : sets) {
    const auto size = read_pod<std::uint64_t>(in, path);
    s.reserve(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      ProbSetSystem::Entry e;
      e.element = read_pod<std::uint32_t>(in, path);
      e.probability = read_pod<float>(in, path);
      s.push_back(e);
    }
  }
  return std::make_shared<const ProbSetSystem>(std::move(sets), universe);
}

}  // namespace

// --- SetSystem -------------------------------------------------------------

void save_set_system(const SetSystem& sets, const std::string& path) {
  write_v2(path, PayloadKind::kSetSystem, sets.num_sets(),
           sets.universe_size(), sets.total_size(), sets.offsets_data(),
           (sets.num_sets() + 1) * sizeof(std::uint64_t), sets.entries_data(),
           sets.total_size() * sizeof(std::uint32_t));
}

std::shared_ptr<const SetSystem> load_set_system(const std::string& path) {
  if (peek_magic(path) == kV1SetMagic) return load_set_system_v1(path);
  return view_set_system(read_raw(path));
}

std::shared_ptr<const SetSystem> map_set_system(const std::string& path,
                                                util::MapAdvice advice) {
  return view_set_system(map_raw(path, advice));
}

// --- PointSet --------------------------------------------------------------

void save_point_set(const PointSet& points, const std::string& path) {
  write_v2(path, PayloadKind::kPointSet, points.size(), points.dim(),
           points.stride(), points.rows(),
           points.size() * points.stride() * sizeof(float), points.norms(),
           points.size() * sizeof(double));
}

std::shared_ptr<const PointSet> load_point_set(const std::string& path) {
  if (peek_magic(path) == kV1PointMagic) return load_point_set_v1(path);
  return view_point_set(read_raw(path));
}

std::shared_ptr<const PointSet> map_point_set(const std::string& path,
                                              util::MapAdvice advice) {
  return view_point_set(map_raw(path, advice));
}

// --- ProbSetSystem ---------------------------------------------------------

void save_prob_set_system(const ProbSetSystem& sets,
                          const std::string& path) {
  write_v2(path, PayloadKind::kProbSetSystem, sets.num_sets(),
           sets.universe_size(), sets.total_entries(), sets.offsets_data(),
           (sets.num_sets() + 1) * sizeof(std::uint64_t), sets.entries_data(),
           sets.total_entries() * sizeof(ProbSetSystem::Entry));
}

std::shared_ptr<const ProbSetSystem> load_prob_set_system(
    const std::string& path) {
  if (peek_magic(path) == kV1ProbMagic) {
    return load_prob_set_system_v1(path);
  }
  return view_prob_set_system(read_raw(path));
}

std::shared_ptr<const ProbSetSystem> map_prob_set_system(
    const std::string& path, util::MapAdvice advice) {
  return view_prob_set_system(map_raw(path, advice));
}

}  // namespace bds::data
