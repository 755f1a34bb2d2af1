#include "data/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/registry.h"
#include "data/format.h"
#include "data/graph_gen.h"
#include "data/prob_gen.h"
#include "data/vectors_gen.h"
#include "objectives/submodular.h"
#include "test_support.h"

namespace bds::data {
namespace {

class IoTest : public ::testing::Test {
 protected:
  // Per-process path: ctest runs each test case as its own process, and a
  // shared fixed name races when cases run in parallel (ctest -j).
  std::string path_ = ::testing::TempDir() + "/bds_io_test_" +
                      std::to_string(::getpid()) + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }

  // Overwrites sizeof(T) bytes at `offset` (header-field surgery for the
  // corruption tests).
  template <typename T>
  void patch(std::uint64_t offset, T value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  // Every io error must tell the user which file was bad and, when `what`
  // is given, what was wrong with it.
  template <typename Fn>
  void expect_error_naming_path(Fn fn, const char* what = nullptr) {
    try {
      fn();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
          << "error does not name the path: " << e.what();
      if (what != nullptr) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "error does not say \"" << what << "\": " << e.what();
      }
    }
  }
};

TEST_F(IoTest, SetSystemRoundTrip) {
  const auto original = bds::testing::random_set_system(50, 80, 0.15, 1);
  save_set_system(*original, path_);
  const auto loaded = load_set_system(path_);

  ASSERT_EQ(loaded->num_sets(), original->num_sets());
  EXPECT_EQ(loaded->universe_size(), original->universe_size());
  EXPECT_EQ(loaded->total_size(), original->total_size());
  for (ElementId id = 0; id < original->num_sets(); ++id) {
    const auto a = original->set_items(id);
    const auto b = loaded->set_items(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "set " << id;
  }
}

TEST_F(IoTest, SetSystemWithEmptySets) {
  const SetSystem original({{1, 2}, {}, {0}}, 3);
  save_set_system(original, path_);
  const auto loaded = load_set_system(path_);
  EXPECT_EQ(loaded->set_size(1), 0u);
  EXPECT_EQ(loaded->set_size(0), 2u);
}

TEST_F(IoTest, PointSetRoundTrip) {
  LdaVectorsConfig cfg;
  cfg.documents = 30;
  cfg.topics = 12;
  cfg.clusters = 3;
  const auto original = make_lda_like_vectors(cfg);
  save_point_set(*original, path_);
  const auto loaded = load_point_set(path_);

  ASSERT_EQ(loaded->size(), original->size());
  ASSERT_EQ(loaded->dim(), original->dim());
  for (std::size_t i = 0; i < original->size(); ++i) {
    for (std::size_t d = 0; d < original->dim(); ++d) {
      EXPECT_FLOAT_EQ(loaded->point(i)[d], original->point(i)[d]);
    }
  }
}

TEST_F(IoTest, ProbSetSystemRoundTrip) {
  data::ClickModelConfig cfg;
  cfg.ads = 60;
  cfg.users = 200;
  cfg.mean_reach = 6.0;
  cfg.seed = 5;
  const auto original = make_click_model(cfg);
  save_prob_set_system(*original, path_);
  const auto loaded = load_prob_set_system(path_);

  ASSERT_EQ(loaded->num_sets(), original->num_sets());
  EXPECT_EQ(loaded->universe_size(), original->universe_size());
  EXPECT_EQ(loaded->total_entries(), original->total_entries());
  for (ElementId id = 0; id < original->num_sets(); ++id) {
    const auto a = original->set_entries(id);
    const auto b = loaded->set_entries(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].element, b[i].element);
      EXPECT_FLOAT_EQ(a[i].probability, b[i].probability);
    }
  }
}

TEST_F(IoTest, ProbFileTypeIsDistinct) {
  const auto sets = bds::testing::random_set_system(5, 10, 0.3, 6);
  save_set_system(*sets, path_);
  EXPECT_THROW(load_prob_set_system(path_), std::runtime_error);
}

TEST_F(IoTest, RejectsMissingFile) {
  EXPECT_THROW(load_set_system("/nonexistent/file.bin"), std::runtime_error);
  EXPECT_THROW(load_point_set("/nonexistent/file.bin"), std::runtime_error);
}

TEST_F(IoTest, RejectsWrongFileType) {
  const auto sets = bds::testing::random_set_system(5, 10, 0.3, 2);
  save_set_system(*sets, path_);
  EXPECT_THROW(load_point_set(path_), std::runtime_error);
}

TEST_F(IoTest, RejectsTruncatedFile) {
  const auto sets = bds::testing::random_set_system(20, 30, 0.3, 3);
  save_set_system(*sets, path_);
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), std::streamsize(contents.size() / 2));
  out.close();
  EXPECT_THROW(load_set_system(path_), std::runtime_error);
}

TEST_F(IoTest, RejectsGarbage) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a dataset";
  out.close();
  EXPECT_THROW(load_set_system(path_), std::runtime_error);
}

TEST_F(IoTest, LoadedSystemBehavesIdentically) {
  const auto original = bds::testing::random_set_system(40, 60, 0.2, 4);
  save_set_system(*original, path_);
  const auto loaded = load_set_system(path_);
  const CoverageOracle a(original);
  const CoverageOracle b(loaded);
  const std::vector<ElementId> sol{3, 17, 29};
  EXPECT_DOUBLE_EQ(evaluate_set(a, sol), evaluate_set(b, sol));
}

// --- v2 container: mmap path ------------------------------------------------

TEST_F(IoTest, MappedSetSystemEqualsHeapLoaded) {
  const auto original = bds::testing::random_set_system(50, 80, 0.15, 7);
  save_set_system(*original, path_);
  const auto mapped = map_set_system(path_);
  const auto loaded = load_set_system(path_);

  EXPECT_TRUE(mapped->borrows_storage());
  ASSERT_EQ(mapped->num_sets(), loaded->num_sets());
  EXPECT_EQ(mapped->universe_size(), loaded->universe_size());
  EXPECT_EQ(mapped->total_size(), loaded->total_size());
  for (ElementId id = 0; id < loaded->num_sets(); ++id) {
    const auto a = loaded->set_items(id);
    const auto b = mapped->set_items(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "set " << id;
  }
}

// Mapped and heap-loaded oracles must produce *bit-identical* gains (exact
// double equality, not tolerance) over a grid of instance seeds — they read
// the same bytes, so any divergence is a backing-dependent code path.
TEST_F(IoTest, MappedSetSystemBitIdenticalGainsOnSeedGrid) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 11u, 42u}) {
    const auto original = bds::testing::random_set_system(60, 90, 0.12, seed);
    save_set_system(*original, path_);
    CoverageOracle heap(load_set_system(path_));
    CoverageOracle mapped(map_set_system(path_));
    for (ElementId x = 0; x < heap.ground_size(); ++x) {
      ASSERT_EQ(heap.gain(x), mapped.gain(x)) << "seed " << seed;
    }
    // Interleave adds so later gains depend on identical covered state.
    for (ElementId x = 0; x < heap.ground_size(); x += 7) {
      ASSERT_EQ(heap.add(x), mapped.add(x)) << "seed " << seed;
    }
    for (ElementId x = 0; x < heap.ground_size(); ++x) {
      ASSERT_EQ(heap.gain(x), mapped.gain(x)) << "seed " << seed;
    }
  }
}

TEST_F(IoTest, MappedPointSetBitIdentical) {
  LdaVectorsConfig cfg;
  cfg.documents = 40;
  cfg.topics = 10;
  cfg.clusters = 4;
  const auto original = make_lda_like_vectors(cfg);
  save_point_set(*original, path_);
  const auto mapped = map_point_set(path_);
  const auto loaded = load_point_set(path_);

  EXPECT_TRUE(mapped->borrows_storage());
  ASSERT_EQ(mapped->size(), original->size());
  ASSERT_EQ(mapped->dim(), original->dim());
  ASSERT_EQ(mapped->stride(), original->stride());
  for (std::size_t i = 0; i < original->size(); ++i) {
    ASSERT_EQ(mapped->norm2(i), original->norm2(i)) << "norm " << i;
    for (std::size_t d = 0; d < original->stride(); ++d) {
      ASSERT_EQ(mapped->row(i)[d], original->row(i)[d]);
    }
  }

  ExemplarOracle a(loaded, 2.0);
  ExemplarOracle b(mapped, 2.0);
  for (ElementId x = 0; x < a.ground_size(); x += 3) {
    ASSERT_EQ(a.gain(x), b.gain(x));
  }
  ASSERT_EQ(a.add(0), b.add(0));
  for (ElementId x = 0; x < a.ground_size(); x += 3) {
    ASSERT_EQ(a.gain(x), b.gain(x));
  }
}

TEST_F(IoTest, MappedProbSetSystemBitIdentical) {
  ClickModelConfig cfg;
  cfg.ads = 50;
  cfg.users = 150;
  cfg.mean_reach = 5.0;
  cfg.seed = 9;
  const auto original = make_click_model(cfg);
  save_prob_set_system(*original, path_);
  const auto mapped = map_prob_set_system(path_);

  EXPECT_TRUE(mapped->borrows_storage());
  ProbCoverageOracle a(load_prob_set_system(path_));
  ProbCoverageOracle b(mapped);
  for (ElementId x = 0; x < a.ground_size(); ++x) {
    ASSERT_EQ(a.gain(x), b.gain(x));
  }
  ASSERT_EQ(a.add(3), b.add(3));
  for (ElementId x = 0; x < a.ground_size(); ++x) {
    ASSERT_EQ(a.gain(x), b.gain(x));
  }
}

// Worker oracles (shard_view) built over a mapped system must match the
// heap-loaded ones gain for gain and add for add.
TEST_F(IoTest, MappedShardViewMatchesHeap) {
  const auto original = bds::testing::random_set_system(40, 60, 0.2, 13);
  save_set_system(*original, path_);
  CoverageOracle heap(load_set_system(path_));
  CoverageOracle mapped(map_set_system(path_));
  const std::vector<ElementId> shard{2, 5, 11, 17, 23, 31};
  const auto heap_view = heap.shard_view(shard);
  const auto mapped_view = mapped.shard_view(shard);
  for (const ElementId x : shard) {
    ASSERT_EQ(heap_view->gain(x), mapped_view->gain(x));
  }
  ASSERT_EQ(heap_view->add(11), mapped_view->add(11));
  for (const ElementId x : shard) {
    ASSERT_EQ(heap_view->gain(x), mapped_view->gain(x));
  }
}

// End-to-end: every distributed algorithm must return identical selections,
// values, and round counts on mapped vs heap-loaded corpora.
TEST_F(IoTest, DistributedRunsBitIdenticalAcrossBackings) {
  const auto original = bds::testing::random_set_system(120, 150, 0.08, 21);
  save_set_system(*original, path_);
  const CoverageOracle heap(load_set_system(path_));
  const CoverageOracle mapped(map_set_system(path_));
  std::vector<ElementId> ground(heap.ground_size());
  for (std::size_t i = 0; i < ground.size(); ++i) {
    ground[i] = static_cast<ElementId>(i);
  }
  AlgorithmParams params;
  params.k = 8;
  params.rounds = 2;
  RuntimeOptions runtime;
  runtime.seed = 3;
  runtime.threads = 2;
  for (const char* algorithm :
       {"bicriteria", "greedi", "randgreedi", "hybrid", "central"}) {
    const auto a = run_distributed(algorithm, heap, ground, runtime, params);
    const auto b = run_distributed(algorithm, mapped, ground, runtime, params);
    EXPECT_EQ(a.solution, b.solution) << algorithm;
    EXPECT_EQ(a.value, b.value) << algorithm;
    EXPECT_EQ(a.stats.num_rounds(), b.stats.num_rounds()) << algorithm;
    EXPECT_EQ(a.stats.total_evals(), b.stats.total_evals()) << algorithm;
  }
}

// --- v2 container: corruption handling --------------------------------------

TEST_F(IoTest, TruncatedV2FileThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(20, 30, 0.3, 3);
  save_set_system(*sets, path_);
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), std::streamsize(contents.size() / 2));
  out.close();
  expect_error_naming_path([&] { load_set_system(path_); });
  expect_error_naming_path([&] { map_set_system(path_); });
}

TEST_F(IoTest, BadMagicThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(10, 20, 0.3, 3);
  save_set_system(*sets, path_);
  patch<std::uint32_t>(0, 0xDEADBEEF);
  expect_error_naming_path([&] { load_set_system(path_); });
  expect_error_naming_path([&] { map_set_system(path_); });
}

TEST_F(IoTest, WrongVersionThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(10, 20, 0.3, 3);
  save_set_system(*sets, path_);
  patch<std::uint32_t>(4, kFormatVersion + 1);  // header.version
  expect_error_naming_path([&] { load_set_system(path_); });
  expect_error_naming_path([&] { map_set_system(path_); });
}

TEST_F(IoTest, MisalignedSectionOffsetThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(10, 20, 0.3, 3);
  save_set_system(*sets, path_);
  // header.section_a lives at byte 40 (after 4 u32s + count + meta_a/b).
  patch<std::uint64_t>(40, sizeof(FileHeader) + 4);
  expect_error_naming_path([&] { load_set_system(path_); });
  expect_error_naming_path([&] { map_set_system(path_); });
}

TEST_F(IoTest, SectionOutOfBoundsThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(10, 20, 0.3, 3);
  struct Patch {
    std::uint64_t offset;
    std::uint64_t value;
  };
  const Patch patches[] = {
      {48, 1 << 20},  // header.section_b beyond the file
      // header.count: (count + 1) * 8 wraps u64 to 0, so an unchecked size
      // passes the bounds check and the SetSystem trusts the forged count.
      {16, (std::uint64_t{1} << 61) - 1},
  };
  for (const Patch& p : patches) {
    save_set_system(*sets, path_);
    patch<std::uint64_t>(p.offset, p.value);
    expect_error_naming_path([&] { load_set_system(path_); },
                             "section out of bounds");
    expect_error_naming_path([&] { map_set_system(path_); },
                             "section out of bounds");
  }
}

TEST_F(IoTest, WrongPayloadKindThrowsNamingPath) {
  const auto sets = bds::testing::random_set_system(10, 20, 0.3, 3);
  save_set_system(*sets, path_);
  expect_error_naming_path([&] { map_point_set(path_); });
  expect_error_naming_path([&] { map_prob_set_system(path_); });
}

// --- legacy v1 compatibility ------------------------------------------------

// Hand-writes the v1 streamed wire format (magic, version, num_sets,
// universe, then length-prefixed rows) — what pre-v2 builds produced.
void write_v1_set_system(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const auto put32 = [&](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put64 = [&](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put32(kV1SetMagic);
  put32(1);     // version
  put64(3);     // num_sets
  put32(5);     // universe
  put64(2); put32(0); put32(2);
  put64(0);
  put64(3); put32(1); put32(3); put32(4);
}

TEST_F(IoTest, LegacyV1FileStillHeapLoads) {
  write_v1_set_system(path_);
  const auto sets = load_set_system(path_);
  ASSERT_EQ(sets->num_sets(), 3u);
  EXPECT_EQ(sets->universe_size(), 5u);
  EXPECT_EQ(sets->total_size(), 5u);
  EXPECT_EQ(sets->set_size(0), 2u);
  EXPECT_EQ(sets->set_size(1), 0u);
  EXPECT_EQ(sets->set_size(2), 3u);
  EXPECT_FALSE(sets->borrows_storage());
}

TEST_F(IoTest, LegacyV1FileRejectedByMmapWithConvertHint) {
  write_v1_set_system(path_);
  try {
    map_set_system(path_);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path_), std::string::npos) << what;
    EXPECT_NE(what.find("bds_convert"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bds::data
