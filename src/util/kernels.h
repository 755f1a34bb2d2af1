// Runtime-dispatched SIMD micro-kernels for the distance/coverage hot paths
// (today: the exemplar-clustering oracles; any float-vector objective can
// build on them). The instruction set is detected once (cpuid) and every
// kernel is provided in AVX-512F, AVX2+FMA and scalar form behind one
// function table per tier.
//
// ## The lane-reduction determinism contract
//
// Every kernel accumulates into a fixed virtual array of kLanes (= 8)
// double-precision lanes — element d of a vector always lands in lane
// d % kLanes — and the lanes are reduced in one fixed order
// (reduce_lanes()). Vector lengths that are not a multiple of kLanes are
// treated as zero-padded up to the next multiple on *every* path. Two
// facts make the scalar and SIMD paths bit-identical rather than merely
// close:
//
//  * A product of two floats widened to double is exact (24+24 < 53
//    mantissa bits), so an FMA-based dot accumulation rounds exactly like
//    mul-then-add — the AVX2 path may fuse, the scalar path need not.
//  * The squared-distance kernels square an already-rounded double
//    difference, where FMA *would* change the result, so no path fuses
//    there: all use mul-then-add in the same lane order.
//
// Consequently BDS_KERNEL=scalar, =avx2 and =avx512 produce bit-identical
// doubles on any machine, and golden selections cannot shift with the
// host's ISA. The AVX-512 tier keeps the same virtual 8-lane layout — one
// zmm accumulator holds all eight lanes and is reduced by splitting into
// the two ymm halves the AVX2 reduction already combines, so the reduction
// order is literally reduce_lanes(). The scalar table is the contract's
// reference; x86 hosts without AVX2 run it.
//
// ## Mode selection
//
// The BDS_KERNEL environment variable picks the tier, read once per
// process: auto (default — best supported ISA), avx512, avx2 or scalar.
// Requests the hardware cannot honor degrade to the best supported tier;
// an unknown value is reported on stderr and means auto. Tests and
// benchmarks override the mode in-process with ForcedMode.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bds::kern {

// The values are fixed (1 is unused): gtest prints a parameter's raw bytes
// into the KernelIsaEquivalence test names.
enum class Isa { kScalar = 0, kAvx2 = 2, kAvx512 = 3 };

enum class Mode { kAuto, kScalar, kAvx2, kAvx512 };

// The mode requested via BDS_KERNEL (or a ForcedMode override).
Mode requested_mode() noexcept;

// The ISA tier the dispatched kernels actually run: the requested mode
// clamped to what the host supports.
Isa active_isa() noexcept;

bool isa_supported(Isa isa) noexcept;
const char* isa_name(Isa isa) noexcept;
// isa_name(active_isa()).
const char* active_name() noexcept;

// RAII in-process mode override for tests and benchmarks (nests; restores
// the previous override on destruction). Do not construct concurrently
// with kernel evaluations on other threads.
class ForcedMode {
 public:
  explicit ForcedMode(Mode mode) noexcept;
  ~ForcedMode();
  ForcedMode(const ForcedMode&) = delete;
  ForcedMode& operator=(const ForcedMode&) = delete;

 private:
  int saved_;
};

// Width of the virtual lane array every kernel accumulates into.
inline constexpr std::size_t kLanes = 8;

// Candidate-tile width of gain_tile (a tile's rows stay register/L1
// resident while the cost points stream past once).
inline constexpr std::size_t kGainTile = 4;

// Canonical cost-dimension chunk length. Gains over n cost terms are the
// chunk partials summed in ascending chunk order — the one grouping every
// exemplar gain path uses (see objectives/exemplar.cpp).
inline constexpr std::size_t kCostChunk = 256;

// The one fixed lane-reduction order, shared by every path. It mirrors
// what the SIMD horizontal reductions compute: pair lane l with lane l+4,
// then the two 128-bit halves, then the final scalar add.
inline double reduce_lanes(const double lanes[kLanes]) noexcept {
  const double c0 = lanes[0] + lanes[4];
  const double c1 = lanes[1] + lanes[5];
  const double c2 = lanes[2] + lanes[6];
  const double c3 = lanes[3] + lanes[7];
  return (c0 + c2) + (c1 + c3);
}

// Row stride (in floats) PointSet pads rows to: dim rounded up to kLanes.
inline constexpr std::size_t padded_dim(std::size_t dim) noexcept {
  return (dim + kLanes - 1) / kLanes * kLanes;
}

// Squared distance via the norms+dot identity ‖v−x‖² = ‖v‖²+‖x‖²−2·v·x,
// clamped at zero so cancellation on near-identical points cannot produce
// a (tiny) negative distance. The combine is plain scalar arithmetic —
// only the dot inside is laned — so it is identical on every path.
inline double distance_from_dot(double v_norm, double x_norm,
                                double dot) noexcept {
  const double d = (v_norm + x_norm) - 2.0 * dot;
  return d < 0.0 ? 0.0 : d;
}

// One ISA's kernel set. `rows` arguments are padded matrices (stride a
// multiple of kLanes, base util::kSimdAlign-aligned — what PointSet
// stores); `a`/`b`/`x` row pointers need no alignment beyond float's.
struct KernelTable {
  // Σ_d (a[d]−b[d])², lane-accumulated. Arbitrary n and alignment.
  double (*squared_l2)(const float* a, const float* b, std::size_t n);
  // Σ_d a[d]·b[d], lane-accumulated. Arbitrary n and alignment.
  double (*dot)(const float* a, const float* b, std::size_t n);
  // One-to-many distance row over cost terms t ∈ [begin, end):
  //   out[t − begin] = distance_from_dot(norms[id(t)], x_norm,
  //                                      dot(row(id(t)), x))
  // where id(t) = ids ? ids[t] : t and row(i) = rows + i·stride.
  void (*distance_row)(const float* rows, std::size_t stride,
                       const double* norms, const std::uint32_t* ids,
                       std::size_t begin, std::size_t end, const float* x,
                       double x_norm, double* out);
  // Fused clamped min-dist improvement over a candidate tile: for each
  // candidate j < n_x (n_x ≤ kGainTile),
  //   out[j] = Σ_{t ∈ [begin,end)} max(0, min_dist[t] − d(t, xs[j]))
  // accumulated sequentially in ascending t. min_dist is indexed by cost
  // term t, norms by point id. Candidate rows xs[j] must be padded rows of
  // the same stride. Per-candidate arithmetic is independent of the tile's
  // composition, so a tile of 4 and four tiles of 1 agree bitwise.
  void (*gain_tile)(const float* rows, std::size_t stride,
                    const double* norms, const std::uint32_t* ids,
                    const double* min_dist, std::size_t begin, std::size_t end,
                    const float* const* xs, const double* x_norms,
                    std::size_t n_x, double* out);
};

// The kernel set for one ISA tier (for the equivalence tests; only call
// entries whose ISA isa_supported()). On non-x86 hosts every tier aliases
// the scalar table.
const KernelTable& table_for(Isa isa) noexcept;

// The dispatched kernel set for active_isa().
const KernelTable& active_table() noexcept;

// Dispatched convenience wrappers.
inline double squared_l2(const float* a, const float* b,
                         std::size_t n) noexcept {
  return active_table().squared_l2(a, b, n);
}
inline double dot(const float* a, const float* b, std::size_t n) noexcept {
  return active_table().dot(a, b, n);
}
inline double squared_norm(const float* a, std::size_t n) noexcept {
  return active_table().dot(a, a, n);
}

}  // namespace bds::kern
