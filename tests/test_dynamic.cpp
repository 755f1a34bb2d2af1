// The epoch-versioned dynamic corpus layer (data/dynamic.h) and its
// bit-identity contract.
//
// Load-bearing claims pinned here:
//  * DynamicCorpus mutations are canonical and versioned: inserts take the
//    next ground id, erases tombstone without reindexing set ids, and the
//    mutation log round-trips through the wire delta bit-exactly.
//  * A dynamically maintained oracle (a CoverageOracle fed
//    apply_insert/apply_erase) is *bitwise* equal to a from-scratch rebuild
//    of the mutated corpus — gains, selections, f(S) bits, and the
//    oracle-evaluation ledger — on both transports (the DynamicGolden
//    grid).
//  * Stale oracles fail by name (StaleOracleError) instead of silently
//    answering for the wrong ground set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/corpus.h"
#include "data/dynamic.h"
#include "data/io.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace bds {
namespace {

using data::CorpusKind;
using data::DynamicCorpus;
using data::DynamicOracleOptions;
using data::Mutation;
using data::MutationKind;
using testing::iota_ids;
using testing::random_set_system;

#ifndef BDS_WORKER_BIN
#error "BDS_WORKER_BIN must point at the bds_worker executable"
#endif

std::shared_ptr<const PointSet> small_points(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& v : data) v = static_cast<float>(rng.next_double(-1.0, 1.0));
  return std::make_shared<const PointSet>(n, dim, std::move(data));
}

// ---------------------------------------------------------------------------
// Corpus mutations: ids, canonicalization, tombstones.

TEST(DynamicCorpus, InsertAssignsNextIdAndBumpsEpoch) {
  DynamicCorpus corpus(random_set_system(10, 30, 0.2, 1), "unit");
  EXPECT_EQ(corpus.epoch(), 0u);
  EXPECT_EQ(corpus.size(), 10u);
  EXPECT_EQ(corpus.live_count(), 10u);

  const ElementId id = corpus.insert({3, 1, 2});
  EXPECT_EQ(id, 10u);
  EXPECT_EQ(corpus.epoch(), 1u);
  EXPECT_EQ(corpus.size(), 11u);
  EXPECT_EQ(corpus.live_count(), 11u);
  EXPECT_EQ(corpus.overlay_size(), 1u);
  EXPECT_TRUE(corpus.is_live(id));
}

TEST(DynamicCorpus, InsertCanonicalizesLikeAFromScratchBuild) {
  DynamicCorpus corpus(random_set_system(4, 30, 0.2, 2), "unit");
  const ElementId id = corpus.insert({7, 3, 7, 29, 3});
  const auto items = corpus.set_items(id);
  const std::vector<std::uint32_t> expect = {3, 7, 29};
  EXPECT_EQ(std::vector<std::uint32_t>(items.begin(), items.end()), expect);
}

TEST(DynamicCorpus, InsertRejectsOutOfUniverseItems) {
  DynamicCorpus corpus(random_set_system(4, 30, 0.2, 3), "unit");
  EXPECT_THROW(corpus.insert({1, 30}), std::out_of_range);
  EXPECT_EQ(corpus.epoch(), 0u) << "a rejected insert must not bump the epoch";
}

TEST(DynamicCorpus, EraseTombstonesWithoutReindexing) {
  DynamicCorpus corpus(random_set_system(6, 30, 0.3, 4), "unit");
  const auto before = corpus.set_items(5);
  const std::vector<std::uint32_t> items5(before.begin(), before.end());

  corpus.erase(2);
  EXPECT_EQ(corpus.epoch(), 1u);
  EXPECT_TRUE(corpus.ids_stable());
  EXPECT_EQ(corpus.size(), 6u) << "tombstoned ids stay in the id space";
  EXPECT_EQ(corpus.live_count(), 5u);
  EXPECT_FALSE(corpus.is_live(2));

  const std::vector<ElementId> expect_ground = {0, 1, 3, 4, 5};
  EXPECT_EQ(corpus.live_ground(), expect_ground);

  // Set 5 keeps its id and payload; the materialized snapshot reproduces
  // the identical id space (dead sets included).
  const auto after = corpus.set_items(5);
  EXPECT_EQ(std::vector<std::uint32_t>(after.begin(), after.end()), items5);
  const auto snapshot = corpus.materialize_sets();
  EXPECT_EQ(snapshot->num_sets(), 6u);
}

TEST(DynamicCorpus, EraseUnknownOrDeadIdThrows) {
  DynamicCorpus corpus(random_set_system(3, 10, 0.3, 5), "unit");
  EXPECT_THROW(corpus.erase(3), std::out_of_range);
  corpus.erase(1);
  EXPECT_THROW(corpus.erase(1), std::out_of_range);
}

TEST(DynamicCorpus, PointEraseReindexesAndFlipsIdsStable) {
  DynamicCorpus corpus(small_points(5, 3, 6), "unit");
  EXPECT_EQ(corpus.corpus_kind(), CorpusKind::kPoints);
  EXPECT_TRUE(corpus.ids_stable());

  corpus.insert_point({0.5f, -0.25f, 1.0f});
  EXPECT_EQ(corpus.size(), 6u);
  EXPECT_TRUE(corpus.ids_stable());

  corpus.erase(1);
  EXPECT_FALSE(corpus.ids_stable())
      << "a point erase reindexes the materialized rows";
  EXPECT_EQ(corpus.live_count(), 5u);
  // Unstable ids: the candidate ground is the materialized space.
  EXPECT_EQ(corpus.live_ground(), iota_ids(5));
  const auto snapshot = corpus.materialize_points();
  EXPECT_EQ(snapshot->size(), 5u);
  EXPECT_EQ(snapshot->dim(), 3u);
}

// ---------------------------------------------------------------------------
// The wire delta: serialize_delta / parse_delta / apply.

TEST(DynamicDelta, RoundTripsSetMutationsBitExactly) {
  DynamicCorpus corpus(random_set_system(8, 40, 0.2, 7), "unit");
  corpus.insert({5, 1, 9});
  corpus.erase(3);
  corpus.insert({0, 39});
  corpus.erase(8);  // erases the first overlay insert

  const std::string delta = corpus.serialize_delta();
  const std::vector<Mutation> parsed = DynamicCorpus::parse_delta(delta);
  ASSERT_EQ(parsed.size(), corpus.log().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(parsed[i], corpus.log()[i]);
  }
}

TEST(DynamicDelta, RoundTripsAwkwardFloatsBitExactly) {
  DynamicCorpus corpus(small_points(3, 4, 8), "unit");
  corpus.insert_point({1.0f / 3.0f, -0.0f, 1e-38f, 3.14159f});

  const auto parsed = DynamicCorpus::parse_delta(corpus.serialize_delta());
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].values.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(parsed[0].values[i]),
              std::bit_cast<std::uint32_t>(corpus.log()[0].values[i]));
  }
}

TEST(DynamicDelta, ReplayOnTheSameBaseReproducesTheCorpus) {
  const auto base = random_set_system(8, 40, 0.2, 9);
  DynamicCorpus original(base, "orig");
  original.insert({2, 4, 6});
  original.erase(1);
  original.insert({0, 1, 2, 3});

  DynamicCorpus replica(base, "replica");
  for (const Mutation& m : DynamicCorpus::parse_delta(
           original.serialize_delta())) {
    replica.apply(m);
  }
  EXPECT_EQ(replica.epoch(), original.epoch());
  EXPECT_EQ(replica.live_ground(), original.live_ground());
  for (ElementId id = 0; id < original.size(); ++id) {
    const auto a = original.set_items(id);
    const auto b = replica.set_items(id);
    EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()));
  }
}

TEST(DynamicDelta, ApplyAgainstADifferentStateThrows) {
  DynamicCorpus corpus(random_set_system(5, 20, 0.2, 10), "unit");
  Mutation m;
  m.kind = MutationKind::kInsert;
  m.id = 7;  // next id would be 5
  m.items = {1, 2};
  EXPECT_THROW(corpus.apply(m), std::invalid_argument);
}

TEST(DynamicDelta, PartialDeltaStartsFromAnEpoch) {
  DynamicCorpus corpus(random_set_system(5, 20, 0.2, 11), "unit");
  corpus.insert({1});
  corpus.insert({2});
  corpus.erase(0);
  const auto tail = DynamicCorpus::parse_delta(corpus.serialize_delta(2));
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].kind, MutationKind::kErase);
  EXPECT_EQ(tail[0].id, 0u);
}

// ---------------------------------------------------------------------------
// Epoch stamps: stale use throws by name; views inherit the stamp.

TEST(DynamicEpoch, StaleOracleThrowsNamingTheCorpus) {
  DynamicCorpus corpus(random_set_system(10, 30, 0.2, 12), "dblp-holdout");
  const auto oracle = data::make_dynamic_oracle(corpus, "coverage");
  EXPECT_EQ(oracle->corpus_epoch(), 0u);
  EXPECT_NO_THROW(data::require_epoch(*oracle, corpus));

  corpus.insert({1, 2, 3});
  try {
    data::require_epoch(*oracle, corpus);
    FAIL() << "a stale oracle must throw";
  } catch (const data::StaleOracleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dblp-holdout"), std::string::npos) << what;
  }

  const auto fresh = data::make_dynamic_oracle(corpus, "coverage");
  EXPECT_EQ(fresh->corpus_epoch(), 1u);
  EXPECT_NO_THROW(data::require_epoch(*fresh, corpus));
}

TEST(DynamicEpoch, ClonesAndShardViewsInheritTheStamp) {
  DynamicCorpus corpus(random_set_system(10, 30, 0.2, 13), "unit");
  corpus.insert({4, 5});
  corpus.erase(2);
  const auto oracle = data::make_dynamic_oracle(corpus, "coverage");
  ASSERT_EQ(oracle->corpus_epoch(), 2u);

  EXPECT_EQ(oracle->clone()->corpus_epoch(), 2u);
  const std::vector<ElementId> shard = {0, 1, 10};
  EXPECT_EQ(oracle->shard_view(shard)->corpus_epoch(), 2u);
}

TEST(DynamicEpoch, NonIncrementalOraclesRefuseInPlaceUpdates) {
  const auto sets = random_set_system(6, 20, 0.3, 14);
  WeightedCoverageOracle frozen(sets, std::vector<double>(20, 1.0));
  EXPECT_FALSE(frozen.supports_dynamic_updates());
  const std::vector<std::uint32_t> items = {1, 2};
  try {
    frozen.apply_insert(6, items, 1);
    FAIL() << "the rebuild-only oracle must refuse in-place updates";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("make_dynamic_oracle"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Incremental maintenance vs from-scratch rebuild: the single-oracle claim.

TEST(DynamicOracle, IncrementalMatchesRebuildGainForGain) {
  const auto base = random_set_system(30, 80, 0.1, 15);
  DynamicCorpus corpus(base, "unit");

  // Incremental path: built at epoch 0, mutations applied in O(degree).
  const auto incremental = data::make_dynamic_oracle(corpus, "coverage");
  ASSERT_TRUE(incremental->supports_dynamic_updates());

  util::Rng rng(99);
  for (int step = 0; step < 12; ++step) {
    if (step % 3 == 2) {
      ElementId victim = static_cast<ElementId>(
          rng.next_below(corpus.size()));
      while (!corpus.is_live(victim)) {
        victim = static_cast<ElementId>(rng.next_below(corpus.size()));
      }
      corpus.erase(victim);
      incremental->apply_erase(victim, corpus.epoch());
    } else {
      std::vector<std::uint32_t> items(3 + rng.next_below(10));
      for (auto& e : items) {
        e = static_cast<std::uint32_t>(rng.next_below(80));
      }
      const ElementId id = corpus.insert(std::move(items));
      // The log holds the canonical payload the corpus committed.
      incremental->apply_insert(id, corpus.log().back().items,
                                corpus.epoch());
    }
  }
  ASSERT_NO_THROW(data::require_epoch(*incremental, corpus));

  // Rebuild path: a fresh frozen oracle over the materialized snapshot.
  DynamicOracleOptions rebuild_opts;
  rebuild_opts.prefer_incremental = false;
  const auto rebuilt =
      data::make_dynamic_oracle(corpus, "coverage", rebuild_opts);

  // Gains agree bitwise over the live ground, both fresh and mid-run.
  const auto ground = corpus.live_ground();
  auto a = incremental->clone();
  auto b = rebuilt->clone();
  for (int round = 0; round < 3; ++round) {
    ElementId best = ground[0];
    double best_gain = -1.0;
    for (const ElementId x : ground) {
      const double ga = a->gain(x);
      const double gb = b->gain(x);
      ASSERT_EQ(util::double_bits(ga), util::double_bits(gb))
          << "round " << round << " element " << x;
      if (ga > best_gain) {
        best_gain = ga;
        best = x;
      }
    }
    ASSERT_EQ(util::double_bits(a->add(best)), util::double_bits(b->add(best)));
    ASSERT_EQ(util::double_bits(a->value()), util::double_bits(b->value()));
  }
  EXPECT_EQ(a->evals(), b->evals()) << "the eval ledgers must agree too";
}

TEST(DynamicOracle, ExemplarFallbackMatchesManualRebuild) {
  DynamicCorpus corpus(small_points(12, 4, 16), "unit");
  corpus.insert_point({0.1f, 0.2f, 0.3f, 0.4f});
  corpus.erase(5);

  DynamicOracleOptions options;
  options.p0_dist = 2.0;
  const auto dynamic = data::make_dynamic_oracle(corpus, "exemplar", options);
  EXPECT_EQ(dynamic->corpus_epoch(), 2u);

  ExemplarOracle manual(corpus.materialize_points(), 2.0);
  ASSERT_EQ(dynamic->ground_size(), manual.ground_size());
  for (ElementId x = 0; x < dynamic->ground_size(); ++x) {
    EXPECT_EQ(util::double_bits(dynamic->gain(x)),
              util::double_bits(manual.gain(x)));
  }
}

// ---------------------------------------------------------------------------
// The DynamicGolden grid: mutated-corpus runs are bitwise equal to
// from-scratch rebuilds on both transports.

class DynamicGoldenEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    const std::string tag = std::to_string(::getpid());
    base_path_ = ::testing::TempDir() + "dynamic_golden." + tag + ".bds";
    const auto sys = random_set_system(100, 140, 0.05, 17);
    data::save_set_system(*sys, base_path_);

    // The scripted mutation history every grid cell replays.
    corpus_ = std::make_shared<DynamicCorpus>(
        data::load_set_system(base_path_), "golden");
    util::Rng rng(18);
    for (int step = 0; step < 20; ++step) {
      if (step % 4 == 3) {
        ElementId victim =
            static_cast<ElementId>(rng.next_below(corpus_->size()));
        while (!corpus_->is_live(victim)) {
          victim = static_cast<ElementId>(rng.next_below(corpus_->size()));
        }
        corpus_->erase(victim);
      } else {
        std::vector<std::uint32_t> items(4 + rng.next_below(12));
        for (auto& e : items) {
          e = static_cast<std::uint32_t>(rng.next_below(140));
        }
        corpus_->insert(std::move(items));
      }
    }
  }

  void TearDown() override {
    corpus_.reset();
    std::remove(base_path_.c_str());
  }

  static std::string base_path_;
  static std::shared_ptr<DynamicCorpus> corpus_;
};

std::string DynamicGoldenEnv::base_path_;
std::shared_ptr<DynamicCorpus> DynamicGoldenEnv::corpus_;

const ::testing::Environment* const kDynamicEnv =
    ::testing::AddGlobalTestEnvironment(new DynamicGoldenEnv);

data::CorpusSpec mutated_spec(bool mmap_base = false) {
  data::CorpusSpec spec;
  spec.objective = "coverage";
  spec.path = DynamicGoldenEnv::base_path_;
  spec.mmap = mmap_base;
  spec.mutations = DynamicGoldenEnv::corpus_->serialize_delta();
  spec.epoch = DynamicGoldenEnv::corpus_->epoch();
  return spec;
}

void expect_bit_identical(const RunResult& expect, const RunResult& actual) {
  EXPECT_EQ(expect.solution, actual.solution);
  EXPECT_EQ(util::double_bits(expect.value), util::double_bits(actual.value));
  EXPECT_EQ(expect.stats.total_evals(), actual.stats.total_evals());
  EXPECT_EQ(expect.stats.critical_path_evals(),
            actual.stats.critical_path_evals());
}

struct GridCell {
  const char* name;
  TransportKind transport;
};

// gtest prints the parameter into each ctest name. Its default printout is
// the raw bytes, whose name pointer moves with the binary's layout, so
// print the cell name instead.
void PrintTo(const GridCell& cell, std::ostream* os) { *os << cell.name; }

class DynamicGolden : public ::testing::TestWithParam<GridCell> {};

TEST_P(DynamicGolden, MutatedRunMatchesRebuildBitwise) {
  const GridCell& cell = GetParam();
  const DynamicCorpus& corpus = *DynamicGoldenEnv::corpus_;

  AlgorithmParams params;
  params.k = 4;
  params.rounds = 2;
  params.epsilon = 0.25;
  params.machines = 5;
  const auto ground = corpus.live_ground();

  // Reference: a from-scratch rebuild of the mutated corpus (frozen
  // CoverageOracle over the materialized snapshot), in process, same knobs.
  DynamicOracleOptions rebuild_opts;
  rebuild_opts.prefer_incremental = false;
  const auto rebuilt =
      data::make_dynamic_oracle(corpus, "coverage", rebuild_opts);
  RuntimeOptions reference_runtime;
  reference_runtime.seed = 3;
  const RunResult reference = run_distributed("bicriteria", *rebuilt, ground,
                                              reference_runtime, params);

  // Cell under test: the dynamic oracle provisioned through the CorpusSpec
  // delta path — exactly what both wire sides build.
  const data::CorpusSpec spec = mutated_spec();
  const auto oracle = spec.make_oracle();
  ASSERT_EQ(oracle->corpus_epoch(), corpus.epoch());
  RuntimeOptions runtime;
  runtime.seed = 3;
  runtime.transport = cell.transport;
  if (cell.transport == TransportKind::kProcess) {
    runtime.process.worker_binary = BDS_WORKER_BIN;
    runtime.process.corpus_spec = spec.serialize();
  }
  const RunResult actual =
      run_distributed("bicriteria", *oracle, ground, runtime, params);
  expect_bit_identical(reference, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DynamicGolden,
    ::testing::Values(
        GridCell{"Inproc", TransportKind::kInProcess},
        GridCell{"Process", TransportKind::kProcess}),
    [](const auto& info) { return info.param.name; });

// The v2 spec round-trips its delta; v1 specs (no epoch/mutations fields)
// still decode, as frozen corpora.
TEST(DynamicCorpusSpec, DeltaRoundTripsThroughSerialization) {
  const data::CorpusSpec spec = mutated_spec();
  const data::CorpusSpec round = data::CorpusSpec::deserialize(spec.serialize());
  EXPECT_EQ(round.mutations, spec.mutations);
  EXPECT_EQ(round.epoch, spec.epoch);
  EXPECT_EQ(round.objective, spec.objective);
  EXPECT_EQ(round.path, spec.path);
}

TEST(DynamicCorpusSpec, EpochMismatchIsRefused) {
  data::CorpusSpec spec = mutated_spec();
  spec.epoch += 1;  // claims one more mutation than the delta carries
  EXPECT_THROW(spec.make_oracle(), std::invalid_argument);
}

// The mmap-backed base stays read-only: mutations land in the heap-side
// overlay and the run is still bitwise equal to the heap-loaded path.
TEST(DynamicCorpusSpec, MmapBaseMutatesIntoHeapOverlay) {
  const auto heap_oracle = mutated_spec(false).make_oracle();
  const auto mmap_oracle = mutated_spec(true).make_oracle();
  const auto ground = DynamicGoldenEnv::corpus_->live_ground();

  AlgorithmParams params;
  params.k = 4;
  params.machines = 4;
  RuntimeOptions runtime;
  runtime.seed = 5;
  const RunResult heap_run =
      run_distributed("bicriteria", *heap_oracle, ground, runtime, params);
  const RunResult mmap_run =
      run_distributed("bicriteria", *mmap_oracle, ground, runtime, params);
  expect_bit_identical(heap_run, mmap_run);
}

}  // namespace
}  // namespace bds
