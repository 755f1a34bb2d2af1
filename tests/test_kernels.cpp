// The SIMD kernel layer's contract tests (util/kernels.h):
//  * property tests for squared_l2 / dot / PointSet::normalize_rows
//    (zero vectors, dim 1, dims that are not a multiple of the SIMD
//    width, NaN-freeness);
//  * the equivalence suite: every supported ISA tier must produce doubles
//    bit-identical to the scalar lane reference;
//  * oracle-level determinism: gain == gain_batch == add's realized gain,
//    bitwise, and every gain within 1e-9 relative of the objective's
//    definition computed by a plain double loop;
//  * the golden selection regression: bicriteria on an exemplar workload
//    picks identical elements under BDS_KERNEL=auto and =scalar, on 1 and
//    8 host threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/bicriteria.h"
#include "data/vectors_gen.h"
#include "objectives/exemplar.h"
#include "util/aligned.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace bds {
namespace {

// Bitwise equality — stricter than EXPECT_DOUBLE_EQ and distinguishes
// +0.0 from -0.0, which is exactly what the lane contract promises.
void expect_bits_eq(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << "values " << a << " vs " << b;
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng, double lo = -1.0,
                                 double hi = 1.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_double(lo, hi));
  return v;
}

TEST(Kernels, ReduceLanesUsesTheDocumentedFixedOrder) {
  // Values chosen so every alternative association rounds differently.
  const double lanes[kern::kLanes] = {1.0,  1e16, -1e16, 3.0,
                                      1e-8, 7.0,  -3.0,  1e8};
  const double c0 = lanes[0] + lanes[4];
  const double c1 = lanes[1] + lanes[5];
  const double c2 = lanes[2] + lanes[6];
  const double c3 = lanes[3] + lanes[7];
  expect_bits_eq(kern::reduce_lanes(lanes), (c0 + c2) + (c1 + c3));
}

TEST(Kernels, PaddedDimRoundsUpToLaneMultiples) {
  EXPECT_EQ(kern::padded_dim(1), 8u);
  EXPECT_EQ(kern::padded_dim(8), 8u);
  EXPECT_EQ(kern::padded_dim(9), 16u);
  EXPECT_EQ(kern::padded_dim(100), 104u);
}

TEST(Kernels, DistanceFromDotClampsCancellationAtZero) {
  // Norms+dot on (nearly) identical unit vectors can cancel slightly
  // negative; the clamp keeps distances valid.
  EXPECT_EQ(kern::distance_from_dot(1.0, 1.0, 1.0 + 1e-16), 0.0);
  EXPECT_GT(kern::distance_from_dot(1.0, 1.0, 0.5), 0.0);
}

TEST(Kernels, SquaredL2Properties) {
  util::Rng rng(11);
  // Dims straddling lane boundaries: 1, 7, 8, 13 and a big one.
  for (const std::size_t dim : {1u, 7u, 8u, 13u, 100u, 259u}) {
    const auto a = random_floats(dim, rng);
    const auto zero = std::vector<float>(dim, 0.0f);
    // Identity and symmetry.
    EXPECT_EQ(kern::squared_l2(a.data(), a.data(), dim), 0.0);
    expect_bits_eq(kern::squared_l2(a.data(), zero.data(), dim),
                   kern::squared_l2(zero.data(), a.data(), dim));
    // Distance to the origin is the squared norm.
    expect_bits_eq(kern::squared_l2(a.data(), zero.data(), dim),
                   kern::squared_norm(a.data(), dim));
    // Non-negative and NaN-free on random data.
    const auto b = random_floats(dim, rng);
    const double d = kern::squared_l2(a.data(), b.data(), dim);
    EXPECT_GE(d, 0.0);
    EXPECT_FALSE(std::isnan(d));
    // Close to the naive sequential sum (not necessarily bit-equal —
    // different association).
    double naive = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double diff = double(a[i]) - double(b[i]);
      naive += diff * diff;
    }
    EXPECT_NEAR(d, naive, 1e-9 * (1.0 + naive));
  }
}

TEST(Kernels, SquaredL2ExactOnIntegerCoordinates) {
  // Small integers are exact in float and double, every partial sum is
  // exact, so any association gives the same answer: 1+4+9+16+25 = 55.
  const std::vector<float> a = {1, 2, 3, 4, 5};
  const std::vector<float> b = {0, 0, 0, 0, 0};
  EXPECT_EQ(kern::squared_l2(a.data(), b.data(), 5), 55.0);
}

TEST(Kernels, DotMatchesReferenceAndNormIsSelfDot) {
  util::Rng rng(12);
  for (const std::size_t dim : {1u, 5u, 8u, 13u, 64u}) {
    const auto a = random_floats(dim, rng);
    const auto b = random_floats(dim, rng);
    double naive = 0.0;
    for (std::size_t i = 0; i < dim; ++i) naive += double(a[i]) * double(b[i]);
    EXPECT_NEAR(kern::dot(a.data(), b.data(), dim), naive,
                1e-9 * (1.0 + std::abs(naive)));
    expect_bits_eq(kern::squared_norm(a.data(), dim),
                   kern::dot(a.data(), a.data(), dim));
  }
}

TEST(Kernels, IsaNamesAndSupport) {
  EXPECT_STREQ(kern::isa_name(kern::Isa::kScalar), "scalar");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kAvx2), "avx2");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kAvx512), "avx512");
  EXPECT_TRUE(kern::isa_supported(kern::Isa::kScalar));
}

// The scalar-fallback leg for the AVX-512 tier: forcing a mode the host
// cannot run must clamp to the best supported tier instead of dispatching
// illegal instructions.
TEST(Kernels, ForcedAvx512DegradesToBestSupported) {
  kern::Isa best;
  {
    kern::ForcedMode auto_mode(kern::Mode::kAuto);
    best = kern::active_isa();
  }
  kern::ForcedMode forced(kern::Mode::kAvx512);
  if (kern::isa_supported(kern::Isa::kAvx512)) {
    EXPECT_EQ(kern::active_isa(), kern::Isa::kAvx512);
    EXPECT_STREQ(kern::active_name(), "avx512");
  } else {
    EXPECT_EQ(kern::active_isa(), best);
  }
}

TEST(Kernels, ForcedModeOverridesAndRestores) {
  const kern::Isa ambient = kern::active_isa();
  {
    kern::ForcedMode scalar(kern::Mode::kScalar);
    EXPECT_EQ(kern::active_isa(), kern::Isa::kScalar);
    EXPECT_STREQ(kern::active_name(), "scalar");
    {
      kern::ForcedMode avx2(kern::Mode::kAvx2);
      EXPECT_EQ(kern::requested_mode(), kern::Mode::kAvx2);
    }
    EXPECT_EQ(kern::requested_mode(), kern::Mode::kScalar);
    EXPECT_EQ(kern::active_isa(), kern::Isa::kScalar);
  }
  EXPECT_EQ(kern::active_isa(), ambient);
}

// --- the ISA equivalence suite ----------------------------------------------

class KernelIsaEquivalence : public ::testing::TestWithParam<kern::Isa> {};

TEST_P(KernelIsaEquivalence, PairKernelsMatchScalarBitwise) {
  const kern::Isa isa = GetParam();
  if (!kern::isa_supported(isa)) GTEST_SKIP() << "ISA not supported here";
  const kern::KernelTable& kt = kern::table_for(isa);
  const kern::KernelTable& ref = kern::table_for(kern::Isa::kScalar);
  util::Rng rng(21);
  for (const std::size_t dim : {1u, 3u, 8u, 13u, 31u, 100u, 128u}) {
    const auto a = random_floats(dim, rng, -2.0, 2.0);
    const auto b = random_floats(dim, rng, -2.0, 2.0);
    expect_bits_eq(kt.squared_l2(a.data(), b.data(), dim),
                   ref.squared_l2(a.data(), b.data(), dim));
    expect_bits_eq(kt.dot(a.data(), b.data(), dim),
                   ref.dot(a.data(), b.data(), dim));
  }
}

TEST_P(KernelIsaEquivalence, RowKernelsMatchScalarBitwise) {
  const kern::Isa isa = GetParam();
  if (!kern::isa_supported(isa)) GTEST_SKIP() << "ISA not supported here";
  const kern::KernelTable& kt = kern::table_for(isa);
  const kern::KernelTable& ref = kern::table_for(kern::Isa::kScalar);
  util::Rng rng(22);

  const std::size_t n = 137, dim = 37;  // both straddle lane boundaries
  auto points = std::make_shared<const PointSet>(
      n, dim, random_floats(n * dim, rng, -1.5, 1.5));
  // Cost terms via an id indirection (the sampled-oracle shape), including
  // repeats; and current min-dists at varied magnitudes so some candidates
  // improve some terms and not others.
  std::vector<std::uint32_t> ids;
  for (std::size_t t = 0; t < n; t += 1 + t % 3) {
    ids.push_back(static_cast<std::uint32_t>(t));
  }
  std::vector<double> min_dist(ids.size());
  for (auto& d : min_dist) d = rng.next_double(0.0, 4.0);

  const std::size_t count = ids.size();
  std::vector<double> row_a(n), row_b(n);
  const float* x = points->row(5);
  const double xn = points->norm2(5);

  // distance_row, with and without the id indirection.
  kt.distance_row(points->rows(), points->stride(), points->norms(),
                  ids.data(), 0, count, x, xn, row_a.data());
  ref.distance_row(points->rows(), points->stride(), points->norms(),
                   ids.data(), 0, count, x, xn, row_b.data());
  for (std::size_t t = 0; t < count; ++t) expect_bits_eq(row_a[t], row_b[t]);
  kt.distance_row(points->rows(), points->stride(), points->norms(), nullptr,
                  10, n - 3, x, xn, row_a.data());
  ref.distance_row(points->rows(), points->stride(), points->norms(), nullptr,
                   10, n - 3, x, xn, row_b.data());
  for (std::size_t t = 0; t + 13 < n; ++t) expect_bits_eq(row_a[t], row_b[t]);

  // gain_tile at every tile width 1..kGainTile, odd [begin, end) windows.
  for (std::size_t n_x = 1; n_x <= kern::kGainTile; ++n_x) {
    const float* xs[kern::kGainTile];
    double xnorms[kern::kGainTile];
    for (std::size_t j = 0; j < n_x; ++j) {
      xs[j] = points->row(7 * j + 2);
      xnorms[j] = points->norm2(7 * j + 2);
    }
    double out_a[kern::kGainTile], out_b[kern::kGainTile];
    kt.gain_tile(points->rows(), points->stride(), points->norms(), ids.data(),
                 min_dist.data(), 3, count - 1, xs, xnorms, n_x, out_a);
    ref.gain_tile(points->rows(), points->stride(), points->norms(),
                  ids.data(), min_dist.data(), 3, count - 1, xs, xnorms, n_x,
                  out_b);
    for (std::size_t j = 0; j < n_x; ++j) expect_bits_eq(out_a[j], out_b[j]);
  }
}

// A tile of [x, x, x, x] must equal four tiles of [x]: per-candidate
// arithmetic is independent of tile composition (the batch == scalar gain
// guarantee rests on this).
TEST_P(KernelIsaEquivalence, GainTileIsCompositionIndependent) {
  const kern::Isa isa = GetParam();
  if (!kern::isa_supported(isa)) GTEST_SKIP() << "ISA not supported here";
  const kern::KernelTable& kt = kern::table_for(isa);
  util::Rng rng(23);
  const std::size_t n = 64, dim = 20;
  auto points = std::make_shared<const PointSet>(
      n, dim, random_floats(n * dim, rng));
  std::vector<double> min_dist(n, 2.0);

  const float* xs[4];
  double xnorms[4];
  for (std::size_t j = 0; j < 4; ++j) {
    xs[j] = points->row(j * 9 + 1);
    xnorms[j] = points->norm2(j * 9 + 1);
  }
  double tiled[4];
  kt.gain_tile(points->rows(), points->stride(), points->norms(), nullptr,
               min_dist.data(), 0, n, xs, xnorms, 4, tiled);
  for (std::size_t j = 0; j < 4; ++j) {
    double solo = 0.0;
    kt.gain_tile(points->rows(), points->stride(), points->norms(), nullptr,
                 min_dist.data(), 0, n, &xs[j], &xnorms[j], 1, &solo);
    expect_bits_eq(tiled[j], solo);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelIsaEquivalence,
                         ::testing::Values(kern::Isa::kScalar,
                                           kern::Isa::kAvx2,
                                           kern::Isa::kAvx512),
                         [](const auto& info) {
                           return kern::isa_name(info.param);
                         });

// --- PointSet layout and normalization --------------------------------------

TEST(PointSetLayout, RowsArePaddedAlignedAndZeroFilled) {
  util::Rng rng(31);
  const std::size_t n = 9, dim = 13;
  const PointSet pts(n, dim, random_floats(n * dim, rng));
  EXPECT_EQ(pts.stride(), kern::padded_dim(dim));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pts.rows()) % util::kSimdAlign,
            0u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = dim; d < pts.stride(); ++d) {
      EXPECT_EQ(pts.row(i)[d], 0.0f) << "row " << i << " pad " << d;
    }
    EXPECT_EQ(pts.point(i).size(), dim);
    EXPECT_EQ(pts.point(i).data(), pts.row(i));
  }
}

TEST(PointSetLayout, NormsCacheMatchesKernelNorm) {
  util::Rng rng(32);
  const std::size_t n = 17, dim = 29;
  const PointSet pts(n, dim, random_floats(n * dim, rng));
  for (std::size_t i = 0; i < n; ++i) {
    expect_bits_eq(pts.norm2(i), kern::squared_norm(pts.row(i), dim));
    expect_bits_eq(pts.norms()[i], pts.norm2(i));
  }
}

TEST(PointSetLayout, NormalizeRowsProperties) {
  util::Rng rng(33);
  const std::size_t n = 12, dim = 11;
  auto data = random_floats(n * dim, rng, -3.0, 3.0);
  // Plant a zero vector: it must pass through untouched, without NaNs.
  for (std::size_t d = 0; d < dim; ++d) data[4 * dim + d] = 0.0f;
  PointSet pts(n, dim, std::move(data));
  pts.normalize_rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 4) {
      EXPECT_EQ(pts.norm2(i), 0.0);
      continue;
    }
    EXPECT_NEAR(pts.norm2(i), 1.0, 1e-5) << "row " << i;
    for (const float v : pts.point(i)) EXPECT_FALSE(std::isnan(v));
  }
  // The cached norms were refreshed to the post-scaling values.
  for (std::size_t i = 0; i < n; ++i) {
    expect_bits_eq(pts.norm2(i), kern::squared_norm(pts.row(i), dim));
  }
}

TEST(PointSetLayout, NormalizeDimOneRow) {
  PointSet pts(2, 1, {-4.0f, 0.5f});
  pts.normalize_rows();
  EXPECT_FLOAT_EQ(pts.point(0)[0], -1.0f);
  EXPECT_FLOAT_EQ(pts.point(1)[0], 1.0f);
}

// --- oracle-level determinism -----------------------------------------------

std::shared_ptr<const PointSet> small_workload(std::size_t n = 300,
                                               std::size_t dim = 13) {
  data::LdaVectorsConfig cfg;
  cfg.documents = static_cast<std::uint32_t>(n);
  cfg.topics = static_cast<std::uint32_t>(dim);
  cfg.clusters = 6;
  cfg.seed = 77;
  return data::make_lda_like_vectors(cfg);
}

TEST(KernelOracle, GainEqualsBatchEqualsAddRealizedGainBitwise) {
  auto points = small_workload();
  ExemplarOracle oracle(points, 2.0);
  std::vector<ElementId> xs;
  for (ElementId x = 0; x < 40; ++x) xs.push_back(x * 7 % 300);
  const auto batch = oracle.gain_batch(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_bits_eq(oracle.gain(xs[i]), batch[i]);
  }
  // add() realizes exactly the gain just quoted.
  const double quoted = oracle.gain(xs[3]);
  expect_bits_eq(oracle.add(xs[3]), quoted);
}

TEST(KernelOracle, DispatchedModesMatchScalarBitwise) {
  auto points = small_workload();
  std::vector<ElementId> xs;
  for (ElementId x = 0; x < 64; ++x) xs.push_back((x * 5 + 1) % 300);

  const auto run = [&](kern::Mode mode) {
    kern::ForcedMode forced(mode);
    ExemplarOracle oracle(points, 2.0);
    oracle.add(17);
    oracle.add(203);
    return oracle.gain_batch(xs);
  };
  const auto scalar = run(kern::Mode::kScalar);
  for (const kern::Mode mode :
       {kern::Mode::kAuto, kern::Mode::kAvx2, kern::Mode::kAvx512}) {
    const auto got = run(mode);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      expect_bits_eq(got[i], scalar[i]);
    }
  }
}

// The kernels against the objective's definition rather than against each
// other: gain(x) = scale · Σ_t max(0, md_t − Σ_d (v_{t,d} − x_d)²) over the
// oracle's cost terms t, with md_t = min(p0, distance to the committed
// exemplar), summed by a plain sequential double loop.
TEST(KernelOracle, GainsMatchTheDefinition) {
  auto points = small_workload();
  std::vector<ElementId> xs;
  for (ElementId x = 0; x < 32; ++x) xs.push_back(x * 9 % 300);
  const ElementId committed = 11;
  const double p0 = 2.0;

  const auto dist = [&](std::size_t v, std::size_t x) {
    double d = 0.0;
    for (std::size_t i = 0; i < points->dim(); ++i) {
      const double diff =
          double(points->point(v)[i]) - double(points->point(x)[i]);
      d += diff * diff;
    }
    return d;
  };
  const auto expect_definition = [&](const std::vector<double>& got,
                                     std::span<const std::uint32_t> terms,
                                     double scale) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double gain = 0.0;
      for (const std::uint32_t t : terms) {
        const double md = std::min(p0, dist(t, committed));
        gain += std::max(0.0, md - dist(t, xs[i]));
      }
      gain *= scale;
      EXPECT_NEAR(got[i], gain, 1e-9 * (1.0 + std::abs(gain)))
          << "candidate " << xs[i];
    }
  };

  ExemplarOracle exact(points, p0);
  exact.add(committed);
  std::vector<std::uint32_t> all(points->size());
  std::iota(all.begin(), all.end(), 0u);
  expect_definition(exact.gain_batch(xs), all, 1.0);

  util::Rng rng(5);
  SampledExemplarOracle sampled(points, p0, 120, rng);
  sampled.add(committed);
  const auto sample = sampled.sample_ids();
  expect_definition(sampled.gain_batch(xs), sample,
                    double(points->size()) / double(sample.size()));
}

// --- golden determinism regression (satellite: BDS_KERNEL × threads) --------

TEST(KernelDeterminismRegression, BicriteriaSelectionsInvariantAcrossModes) {
  auto points = small_workload(800, 24);
  const ExemplarOracle proto(points, 2.0);
  std::vector<ElementId> ground(points->size());
  for (std::size_t i = 0; i < ground.size(); ++i) {
    ground[i] = static_cast<ElementId>(i);
  }

  const auto run = [&](kern::Mode mode, std::size_t threads) {
    kern::ForcedMode forced(mode);
    BicriteriaConfig cfg;
    cfg.k = 6;
    cfg.output_items = 10;
    cfg.rounds = 2;
    cfg.runtime.seed = 7;
    cfg.runtime.threads = threads;
    return bicriteria_greedy(proto, ground, cfg);
  };

  const auto golden = run(kern::Mode::kAuto, 1);
  ASSERT_EQ(golden.solution.size(), 10u);
  for (const kern::Mode mode : {kern::Mode::kAuto, kern::Mode::kScalar}) {
    for (const std::size_t threads : {1u, 8u}) {
      const auto got = run(mode, threads);
      EXPECT_EQ(got.solution, golden.solution)
          << kern::isa_name(kern::active_isa()) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(got.value, golden.value);
    }
  }
}

}  // namespace
}  // namespace bds
