#include "data/convert.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "data/format.h"
#include "data/io.h"

namespace bds::data {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("dataset convert: " + what + ": " + path);
}

// Reads the leading magic word; 0 when the file is shorter than 4 bytes
// (then it can only be a — tiny — text file).
std::uint32_t peek_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read", path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in ? magic : 0;
}

// Reads the v2 header's payload kind (the magic was already matched).
PayloadKind peek_kind(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read", path);
  FileHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) fail("truncated file", path);
  return static_cast<PayloadKind>(header.kind);
}

}  // namespace

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read", path);
  Graph graph;
  std::unordered_map<std::uint64_t, std::uint32_t> compact;
  const auto node_of = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        compact.emplace(raw, static_cast<std::uint32_t>(compact.size()));
    if (inserted) graph.adjacency.emplace_back();
    return it->second;
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(fields >> u >> v)) {
      fail("malformed edge at line " + std::to_string(line_no), path);
    }
    if (u == v) continue;  // drop self-loops
    const std::uint32_t a = node_of(u);
    const std::uint32_t b = node_of(v);
    graph.adjacency[a].push_back(b);
    graph.adjacency[b].push_back(a);
  }
  if (in.bad()) fail("read error", path);
  // Drop duplicate edges (text snapshots often list both directions).
  for (auto& neighbors : graph.adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return graph;
}

ConvertResult convert_dataset_file(const std::string& input,
                                   const std::string& output) {
  const std::uint32_t magic = peek_magic(input);

  if (magic == kV1SetMagic ||
      (magic == kFormatMagic && peek_kind(input) == PayloadKind::kSetSystem)) {
    const auto sets = load_set_system(input);
    save_set_system(*sets, output);
    return {"set-system", sets->num_sets(), sets->total_size()};
  }
  if (magic == kV1PointMagic ||
      (magic == kFormatMagic && peek_kind(input) == PayloadKind::kPointSet)) {
    const auto points = load_point_set(input);
    save_point_set(*points, output);
    return {"point-set", points->size(), points->size() * points->dim()};
  }
  if (magic == kV1ProbMagic ||
      (magic == kFormatMagic &&
       peek_kind(input) == PayloadKind::kProbSetSystem)) {
    const auto sets = load_prob_set_system(input);
    save_prob_set_system(*sets, output);
    return {"prob-set-system", sets->num_sets(), sets->total_entries()};
  }
  if (magic == kFormatMagic) fail("unknown v2 payload kind", input);

  // Not one of ours: treat as a text edge list.
  const Graph graph = load_edge_list(input);
  const auto sets = neighborhood_sets(graph);
  save_set_system(*sets, output);
  return {"edge-list", sets->num_sets(), sets->total_size()};
}

}  // namespace bds::data
