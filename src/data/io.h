// Binary serialization for the dataset substrates, so generated instances
// can be produced once and reused across benchmark runs (and shared between
// the CLI tools).
//
// Writers emit the v2 container of data/format.h: a 64-byte header followed
// by two 64-byte-aligned sections holding the in-memory CSR arrays
// verbatim. That makes two load paths possible:
//
//  * load_* — heap load: the file bytes are read into an aligned heap
//    buffer and the returned object borrows its CSR arrays from it. Also
//    accepts the legacy v1 streamed format (parse-and-copy).
//  * map_* — zero-copy: the file is mmap'd read-only (util/mmap.h) and the
//    CSR arrays alias the mapping, so load time is O(1) and a process only
//    pays resident memory for the pages it actually touches: the CSR pages
//    of the sets a worker evaluates. v2 files only; v1
//    files get an error telling the caller to re-encode with bds_convert.
//
// Heap-loaded and mapped objects are backed by the identical bytes, so
// gains/adds/selections are bit-identical between the two paths. All
// functions throw std::runtime_error naming the offending path on IO
// failure or a malformed/mismatched file.
#pragma once

#include <memory>
#include <string>

#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "objectives/prob_coverage.h"
#include "util/mmap.h"

namespace bds::data {

// SetSystem <-> file.
void save_set_system(const SetSystem& sets, const std::string& path);
std::shared_ptr<const SetSystem> load_set_system(const std::string& path);
std::shared_ptr<const SetSystem> map_set_system(
    const std::string& path, util::MapAdvice advice = util::MapAdvice::kRandom);

// PointSet <-> file. v2 stores the kernel-padded row matrix plus the
// cached norms (bit-identical across ISA tiers), so a mapped PointSet is
// oracle-ready without touching the data.
void save_point_set(const PointSet& points, const std::string& path);
std::shared_ptr<const PointSet> load_point_set(const std::string& path);
std::shared_ptr<const PointSet> map_point_set(
    const std::string& path, util::MapAdvice advice = util::MapAdvice::kRandom);

// ProbSetSystem <-> file.
void save_prob_set_system(const ProbSetSystem& sets, const std::string& path);
std::shared_ptr<const ProbSetSystem> load_prob_set_system(
    const std::string& path);
std::shared_ptr<const ProbSetSystem> map_prob_set_system(
    const std::string& path, util::MapAdvice advice = util::MapAdvice::kRandom);

}  // namespace bds::data
