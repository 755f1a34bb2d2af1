#include "util/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/aligned.h"

#if defined(__x86_64__) || defined(__i386__)
#define BDS_KERNELS_X86 1
#include <immintrin.h>
#else
#define BDS_KERNELS_X86 0
#endif

namespace bds::kern {
namespace {

// ---------------------------------------------------------------------------
// Mode selection
// ---------------------------------------------------------------------------

// In-process override installed by ForcedMode; -1 = none, otherwise a Mode.
std::atomic<int> g_forced_mode{-1};

Mode parse_env_mode() {
  const char* raw = std::getenv("BDS_KERNEL");
  if (raw == nullptr || raw[0] == '\0') return Mode::kAuto;
  const std::string v(raw);
  if (v == "auto") return Mode::kAuto;
  if (v == "scalar") return Mode::kScalar;
  if (v == "avx2") return Mode::kAvx2;
  if (v == "avx512") return Mode::kAvx512;
  std::fprintf(stderr,
               "bds: unknown BDS_KERNEL value '%s' "
               "(expected auto|scalar|avx2|avx512); using auto\n",
               raw);
  return Mode::kAuto;
}

bool host_has(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if BDS_KERNELS_X86
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if BDS_KERNELS_X86
      // The 512-bit kernels only use foundation instructions, but they
      // reduce through the AVX2 stage, so both must be present.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

Isa best_supported() noexcept {
  if (host_has(Isa::kAvx512)) return Isa::kAvx512;
  if (host_has(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

// ---------------------------------------------------------------------------
// Scalar kernels — the reference implementation of the lane contract
// ---------------------------------------------------------------------------

double squared_l2_scalar(const float* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double diff = double(a[i + l]) - double(b[i + l]);
      lanes[l] += diff * diff;
    }
  }
  if (i < n) {
    // Virtual zero padding: the missing tail elements contribute an exact
    // +0.0 to their lanes, matching the SIMD paths' padded tail block.
    double block[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      const double diff = double(a[i + l]) - double(b[i + l]);
      block[l] = diff * diff;
    }
    for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += block[l];
  }
  return reduce_lanes(lanes);
}

double dot_scalar(const float* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes[l] += double(a[i + l]) * double(b[i + l]);
    }
  }
  if (i < n) {
    double block[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      block[l] = double(a[i + l]) * double(b[i + l]);
    }
    for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += block[l];
  }
  return reduce_lanes(lanes);
}

void distance_row_scalar(const float* rows, std::size_t stride,
                         const double* norms, const std::uint32_t* ids,
                         std::size_t begin, std::size_t end, const float* x,
                         double x_norm, double* out) {
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    out[t - begin] = distance_from_dot(
        norms[id], x_norm, dot_scalar(rows + id * stride, x, stride));
  }
}

void gain_tile_scalar(const float* rows, std::size_t stride,
                      const double* norms, const std::uint32_t* ids,
                      const double* min_dist, std::size_t begin,
                      std::size_t end, const float* const* xs,
                      const double* x_norms, std::size_t n_x, double* out) {
  for (std::size_t j = 0; j < n_x; ++j) out[j] = 0.0;
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    const float* row = rows + id * stride;
    const double v_norm = norms[id];
    const double md = min_dist[t];
    for (std::size_t j = 0; j < n_x; ++j) {
      const double d = distance_from_dot(v_norm, x_norms[j],
                                         dot_scalar(row, xs[j], stride));
      if (d < md) out[j] += md - d;
    }
  }
}

constexpr KernelTable kScalarTable = {
    &squared_l2_scalar,
    &dot_scalar,
    &distance_row_scalar,
    &gain_tile_scalar,
};

#if BDS_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2+FMA kernels — lanes 0-3 / 4-7 in two __m256d accumulators
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) inline double reduce_avx2(
    __m256d lo, __m256d hi) noexcept {
  const __m256d c = _mm256_add_pd(lo, hi);  // (c0, c1, c2, c3)
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(c),
                               _mm256_extractf128_pd(c, 1));  // (c0+c2, c1+c3)
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

__attribute__((target("avx2,fma"))) double squared_l2_avx2(const float* a,
                                                           const float* b,
                                                           std::size_t n) {
  __m256d acc_lo = _mm256_setzero_pd(), acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d d_lo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(vb)));
    const __m256d d_hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)));
    // No FMA here: the difference is already rounded, so fusing would
    // change the result relative to the scalar mul-then-add (see header).
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  if (i < n) {
    alignas(32) float ta[kLanes] = {}, tb[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      ta[l] = a[i + l];
      tb[l] = b[i + l];
    }
    const __m256 va = _mm256_load_ps(ta);
    const __m256 vb = _mm256_load_ps(tb);
    const __m256d d_lo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(vb)));
    const __m256d d_hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  return reduce_avx2(acc_lo, acc_hi);
}

__attribute__((target("avx2,fma"))) double dot_avx2(const float* a,
                                                    const float* b,
                                                    std::size_t n) {
  __m256d acc_lo = _mm256_setzero_pd(), acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(vb)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)),
                             acc_hi);
  }
  if (i < n) {
    alignas(32) float ta[kLanes] = {}, tb[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      ta[l] = a[i + l];
      tb[l] = b[i + l];
    }
    const __m256 va = _mm256_load_ps(ta);
    const __m256 vb = _mm256_load_ps(tb);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(vb)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)),
                             acc_hi);
  }
  return reduce_avx2(acc_lo, acc_hi);
}

__attribute__((target("avx2,fma"))) inline double dot_padded_avx2(
    const float* a, const float* b, std::size_t stride) noexcept {
  __m256d acc_lo = _mm256_setzero_pd(), acc_hi = _mm256_setzero_pd();
  for (std::size_t d = 0; d < stride; d += kLanes) {
    const __m256 va = _mm256_loadu_ps(a + d);
    const __m256 vb = _mm256_loadu_ps(b + d);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(vb)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)),
                             acc_hi);
  }
  return reduce_avx2(acc_lo, acc_hi);
}

__attribute__((target("avx2,fma"))) void distance_row_avx2(
    const float* rows, std::size_t stride, const double* norms,
    const std::uint32_t* ids, std::size_t begin, std::size_t end,
    const float* x, double x_norm, double* out) {
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    out[t - begin] = distance_from_dot(
        norms[id], x_norm, dot_padded_avx2(rows + id * stride, x, stride));
  }
}

// The blocked small-GEMM micro-kernel: a tile of kGainTile candidates is
// pre-converted to double once (amortized over the whole cost range), then
// every cost row is loaded and widened once and FMA'd against all four
// candidates — 8 accumulator registers, one streaming pass over the rows.
__attribute__((target("avx2,fma"))) void gain_tile_avx2(
    const float* rows, std::size_t stride, const double* norms,
    const std::uint32_t* ids, const double* min_dist, std::size_t begin,
    std::size_t end, const float* const* xs, const double* x_norms,
    std::size_t n_x, double* out) {
  for (std::size_t j = 0; j < n_x; ++j) out[j] = 0.0;
  if (n_x == 0) return;

  if (n_x == 1) {
    // Single-candidate fast path: no conversion scratch, no wasted slots.
    const float* x = xs[0];
    const double x_norm = x_norms[0];
    double sum = 0.0;
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t id = ids == nullptr ? t : ids[t];
      const double d = distance_from_dot(
          norms[id], x_norm, dot_padded_avx2(rows + id * stride, x, stride));
      const double md = min_dist[t];
      if (d < md) sum += md - d;
    }
    out[0] = sum;
    return;
  }

  // Widen the candidate tile to doubles (exactly — float→double conversion
  // is lossless, so the products below match the scalar path's
  // double(a)·double(b) bit for bit). Unused slots repeat the last
  // candidate; their results are discarded.
  thread_local util::AlignedVector<double> scratch;
  scratch.resize(kGainTile * stride);
  for (std::size_t s = 0; s < kGainTile; ++s) {
    const float* src = xs[s < n_x ? s : n_x - 1];
    double* dst = scratch.data() + s * stride;
    for (std::size_t d = 0; d < stride; d += 4) {
      _mm256_store_pd(dst + d, _mm256_cvtps_pd(_mm_loadu_ps(src + d)));
    }
  }
  const double* x0 = scratch.data();
  const double* x1 = scratch.data() + stride;
  const double* x2 = scratch.data() + 2 * stride;
  const double* x3 = scratch.data() + 3 * stride;

  double sums[kGainTile] = {};
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    const float* row = rows + id * stride;
    __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
    __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
    __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
    __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
    for (std::size_t d = 0; d < stride; d += kLanes) {
      const __m256 v = _mm256_loadu_ps(row + d);
      const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
      const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
      a0l = _mm256_fmadd_pd(lo, _mm256_load_pd(x0 + d), a0l);
      a0h = _mm256_fmadd_pd(hi, _mm256_load_pd(x0 + d + 4), a0h);
      a1l = _mm256_fmadd_pd(lo, _mm256_load_pd(x1 + d), a1l);
      a1h = _mm256_fmadd_pd(hi, _mm256_load_pd(x1 + d + 4), a1h);
      a2l = _mm256_fmadd_pd(lo, _mm256_load_pd(x2 + d), a2l);
      a2h = _mm256_fmadd_pd(hi, _mm256_load_pd(x2 + d + 4), a2h);
      a3l = _mm256_fmadd_pd(lo, _mm256_load_pd(x3 + d), a3l);
      a3h = _mm256_fmadd_pd(hi, _mm256_load_pd(x3 + d + 4), a3h);
    }
    const double v_norm = norms[id];
    const double md = min_dist[t];
    const double dots[kGainTile] = {
        reduce_avx2(a0l, a0h), reduce_avx2(a1l, a1h), reduce_avx2(a2l, a2h),
        reduce_avx2(a3l, a3h)};
    for (std::size_t j = 0; j < n_x; ++j) {
      const double d = distance_from_dot(v_norm, x_norms[j], dots[j]);
      if (d < md) sums[j] += md - d;
    }
  }
  for (std::size_t j = 0; j < n_x; ++j) out[j] = sums[j];
}

constexpr KernelTable kAvx2Table = {
    &squared_l2_avx2,
    &dot_avx2,
    &distance_row_avx2,
    &gain_tile_avx2,
};

// ---------------------------------------------------------------------------
// AVX-512F kernels — all 8 lanes in one __m512d accumulator
// ---------------------------------------------------------------------------
//
// The zmm register holds the whole virtual lane array, so lane l of the
// contract is literally element l of the accumulator. The reduction splits
// the zmm into its two ymm halves (lanes 0-3 and 4-7) and feeds them to the
// AVX2 reduction, which already implements reduce_lanes() exactly — so the
// 512-bit tier is bit-identical to every other tier by construction.
//
// The zero-masking forms with an all-ones mask compute the same values as
// _mm512_castpd512_pd256, _mm512_extractf64x4_pd and _mm512_cvtps_pd.
// GCC 12's headers build those three from _mm*_undefined_pd(), which
// -Wmaybe-uninitialized reports in every caller.

__attribute__((target("avx512f,avx2,fma"))) inline double reduce_avx512(
    __m512d acc) noexcept {
  return reduce_avx2(_mm512_maskz_extractf64x4_pd(0xFF, acc, 0),
                     _mm512_maskz_extractf64x4_pd(0xFF, acc, 1));
}

// Loads one 8-float block and widens it to the full double lane array.
__attribute__((target("avx512f,avx2,fma"))) inline __m512d widen_avx512(
    const float* p) noexcept {
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p));
}

__attribute__((target("avx512f,avx2,fma"))) double squared_l2_avx512(
    const float* a, const float* b, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m512d d = _mm512_sub_pd(widen_avx512(a + i), widen_avx512(b + i));
    // No FMA on the squared difference (see header): mul-then-add, like
    // every other path.
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  if (i < n) {
    alignas(32) float ta[kLanes] = {}, tb[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      ta[l] = a[i + l];
      tb[l] = b[i + l];
    }
    const __m512d d = _mm512_sub_pd(widen_avx512(ta), widen_avx512(tb));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  return reduce_avx512(acc);
}

__attribute__((target("avx512f,avx2,fma"))) double dot_avx512(const float* a,
                                                              const float* b,
                                                              std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm512_fmadd_pd(widen_avx512(a + i), widen_avx512(b + i), acc);
  }
  if (i < n) {
    alignas(32) float ta[kLanes] = {}, tb[kLanes] = {};
    for (std::size_t l = 0; i + l < n; ++l) {
      ta[l] = a[i + l];
      tb[l] = b[i + l];
    }
    acc = _mm512_fmadd_pd(widen_avx512(ta), widen_avx512(tb), acc);
  }
  return reduce_avx512(acc);
}

__attribute__((target("avx512f,avx2,fma"))) inline double dot_padded_avx512(
    const float* a, const float* b, std::size_t stride) noexcept {
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t d = 0; d < stride; d += kLanes) {
    acc = _mm512_fmadd_pd(widen_avx512(a + d), widen_avx512(b + d), acc);
  }
  return reduce_avx512(acc);
}

__attribute__((target("avx512f,avx2,fma"))) void distance_row_avx512(
    const float* rows, std::size_t stride, const double* norms,
    const std::uint32_t* ids, std::size_t begin, std::size_t end,
    const float* x, double x_norm, double* out) {
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    out[t - begin] = distance_from_dot(
        norms[id], x_norm, dot_padded_avx512(rows + id * stride, x, stride));
  }
}

// The blocked small-GEMM tile of gain_tile_avx2, one zmm accumulator per
// candidate.
__attribute__((target("avx512f,avx2,fma"))) void gain_tile_avx512(
    const float* rows, std::size_t stride, const double* norms,
    const std::uint32_t* ids, const double* min_dist, std::size_t begin,
    std::size_t end, const float* const* xs, const double* x_norms,
    std::size_t n_x, double* out) {
  for (std::size_t j = 0; j < n_x; ++j) out[j] = 0.0;
  if (n_x == 0) return;

  if (n_x == 1) {
    const float* x = xs[0];
    const double x_norm = x_norms[0];
    double sum = 0.0;
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t id = ids == nullptr ? t : ids[t];
      const double d = distance_from_dot(
          norms[id], x_norm, dot_padded_avx512(rows + id * stride, x, stride));
      const double md = min_dist[t];
      if (d < md) sum += md - d;
    }
    out[0] = sum;
    return;
  }

  thread_local util::AlignedVector<double> scratch;
  scratch.resize(kGainTile * stride);
  for (std::size_t s = 0; s < kGainTile; ++s) {
    const float* src = xs[s < n_x ? s : n_x - 1];
    double* dst = scratch.data() + s * stride;
    for (std::size_t d = 0; d < stride; d += kLanes) {
      _mm512_storeu_pd(dst + d, widen_avx512(src + d));
    }
  }
  const double* x0 = scratch.data();
  const double* x1 = scratch.data() + stride;
  const double* x2 = scratch.data() + 2 * stride;
  const double* x3 = scratch.data() + 3 * stride;

  double sums[kGainTile] = {};
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t id = ids == nullptr ? t : ids[t];
    const float* row = rows + id * stride;
    __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
    for (std::size_t d = 0; d < stride; d += kLanes) {
      const __m512d v = widen_avx512(row + d);
      a0 = _mm512_fmadd_pd(v, _mm512_loadu_pd(x0 + d), a0);
      a1 = _mm512_fmadd_pd(v, _mm512_loadu_pd(x1 + d), a1);
      a2 = _mm512_fmadd_pd(v, _mm512_loadu_pd(x2 + d), a2);
      a3 = _mm512_fmadd_pd(v, _mm512_loadu_pd(x3 + d), a3);
    }
    const double v_norm = norms[id];
    const double md = min_dist[t];
    const double dots[kGainTile] = {reduce_avx512(a0), reduce_avx512(a1),
                                    reduce_avx512(a2), reduce_avx512(a3)};
    for (std::size_t j = 0; j < n_x; ++j) {
      const double d = distance_from_dot(v_norm, x_norms[j], dots[j]);
      if (d < md) sums[j] += md - d;
    }
  }
  for (std::size_t j = 0; j < n_x; ++j) out[j] = sums[j];
}

constexpr KernelTable kAvx512Table = {
    &squared_l2_avx512,
    &dot_avx512,
    &distance_row_avx512,
    &gain_tile_avx512,
};

#endif  // BDS_KERNELS_X86

}  // namespace

Mode requested_mode() noexcept {
  const int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Mode>(forced);
  static const Mode env_mode = parse_env_mode();
  return env_mode;
}

Isa active_isa() noexcept {
  switch (requested_mode()) {
    case Mode::kAuto:
      return best_supported();
    case Mode::kScalar:
      return Isa::kScalar;
    case Mode::kAvx2:
      return host_has(Isa::kAvx2) ? Isa::kAvx2 : best_supported();
    case Mode::kAvx512:
      return host_has(Isa::kAvx512) ? Isa::kAvx512 : best_supported();
  }
  return Isa::kScalar;
}

bool isa_supported(Isa isa) noexcept { return host_has(isa); }

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

const char* active_name() noexcept { return isa_name(active_isa()); }

ForcedMode::ForcedMode(Mode mode) noexcept
    : saved_(g_forced_mode.exchange(static_cast<int>(mode),
                                    std::memory_order_relaxed)) {}

ForcedMode::~ForcedMode() {
  g_forced_mode.store(saved_, std::memory_order_relaxed);
}

const KernelTable& table_for(Isa isa) noexcept {
#if BDS_KERNELS_X86
  switch (isa) {
    case Isa::kScalar:
      return kScalarTable;
    case Isa::kAvx2:
      return kAvx2Table;
    case Isa::kAvx512:
      return kAvx512Table;
  }
#else
  (void)isa;
#endif
  return kScalarTable;
}

const KernelTable& active_table() noexcept { return table_for(active_isa()); }

}  // namespace bds::kern
