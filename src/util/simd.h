// SIMD / precision substrate for the kernel lanes (DESIGN.md §14).
//
// Two native kernel loops keep a lane because bench/micro_kernels measures
// it paying: the STREAM validation scan reduces through
// `tree_transform_sum`, and GUPS keeps its table on an aligned Lane for
// its branchless verify. This header is the one sanctioned home for that
// machinery, in the H2Pack aligned-lane idiom:
//
//   * Aligned allocation. `AlignedAllocator<T>` / `Lane<T>` guarantee
//     every lane's base address is aligned to `kAlignment` (64 bytes: one
//     cache line, one AVX-512 vector), so vector loads never straddle a
//     line and the compiler can use aligned moves.
//   * Lane padding. `make_lane<T>(n)` allocates `padded_size<T>(n)`
//     elements — n rounded up to a multiple of `kLaneWidth<T>` — so a
//     vectorized loop may always read a whole final vector. Padding
//     elements are value-initialized and must never be *written* by
//     kernels (results are defined over [0, n)).
//   * A fixed-shape reduction. Vectorizing an FP reduction reorders it;
//     a serial left fold forbids vectorization. `tree_transform_sum` pins
//     one explicit reduction shape — `kAccumulators` interleaved partials
//     combined by a fixed pairwise tree — that is byte-identical whether
//     the compiler emits scalar or vector code.
//
// Raw aligned allocation (std::aligned_alloc, posix_memalign, _mm_malloc,
// operator new(std::align_val_t)) anywhere else in src/ or tools/ is a
// lint violation (rule `raw-aligned-alloc`): ASan/UBSan-clean ownership
// and the alignment guarantee live here, once.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

// GNU-dialect restrict qualifier: the kernel lanes alias nothing, and
// telling the compiler so removes the runtime overlap checks gcc would
// otherwise version vectorized loops with.
#define TGI_SIMD_RESTRICT __restrict__

namespace tgi::util::simd {

/// Base-address alignment of every Lane, in bytes: one cache line, one
/// AVX-512 vector. Alignment guarantee: `lane.data()` from any Lane (or
/// AlignedAllocator-backed container) is a multiple of kAlignment.
inline constexpr std::size_t kAlignment = 64;

/// Elements of T per aligned vector lane (the H2Pack SIMD_LEN): 8 for
/// double, 16 for float, 8 for std::uint64_t.
template <typename T>
inline constexpr std::size_t kLaneWidth = kAlignment / sizeof(T);

/// `n` rounded up to a whole number of lanes — the allocated size of
/// `make_lane<T>(n)`.
template <typename T>
[[nodiscard]] constexpr std::size_t padded_size(std::size_t n) {
  return (n + kLaneWidth<T> - 1) / kLaneWidth<T> * kLaneWidth<T>;
}

/// Minimal allocator guaranteeing kAlignment-aligned storage. The one
/// sanctioned aligned-allocation site in the repository (lint rule
/// `raw-aligned-alloc`); everything flows through the sized, alignment-
/// aware global operators so ASan tracks every byte.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// An aligned data lane: std::vector semantics, kAlignment-aligned base.
template <typename T>
using Lane = std::vector<T, AlignedAllocator<T>>;

/// A lane sized for `n` elements plus lane padding, every element
/// (padding included) initialized to `fill`. Kernels compute over
/// [0, n) and must leave the padding untouched.
template <typename T>
[[nodiscard]] Lane<T> make_lane(std::size_t n, T fill = T{}) {
  return Lane<T>(padded_size<T>(n), fill);
}

/// Tells the compiler `p` is kAlignment-aligned (true for any
/// Lane::data()), enabling aligned vector loads without a peel loop.
template <typename T>
[[nodiscard]] inline T* assume_aligned(T* p) {
  return static_cast<T*>(__builtin_assume_aligned(p, kAlignment));
}
template <typename T>
[[nodiscard]] inline const T* assume_aligned(const T* p) {
  return static_cast<const T*>(__builtin_assume_aligned(p, kAlignment));
}

/// Partial accumulators in the fixed reduction shape. Element i feeds
/// partial i % kAccumulators; the partials are combined by the fixed
/// pairwise tree ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)). The shape is a
/// compile-time constant — never derived from vector width or data size —
/// so the reduction order (and therefore every FP result) is identical for
/// scalar and vector code.
inline constexpr std::size_t kAccumulators = 8;

/// Fixed-shape sum of f(0) ... f(n-1). `f` must be pure (called exactly
/// once per index, in unspecified order within an accumulator chain's
/// fixed index sequence). Breaking the serial dependence into
/// kAccumulators independent chains is also the throughput win: a strict
/// left fold serializes on FP-add latency, the tree runs the chains in
/// parallel in the vector units.
template <typename T, typename F>
[[nodiscard]] T tree_transform_sum(std::size_t n, F&& f) {
  // The kAccumulators chains are spelled out (not an inner j-loop) so
  // each lives in its own register at -O2, where the un-unrolled loop
  // would keep the partials in a stack array and serialize on it.
  T partial[kAccumulators] = {};
  const std::size_t whole = n / kAccumulators * kAccumulators;
  static_assert(kAccumulators == 8, "unrolled body assumes 8 chains");
  for (std::size_t i = 0; i < whole; i += kAccumulators) {
    partial[0] += f(i);
    partial[1] += f(i + 1);
    partial[2] += f(i + 2);
    partial[3] += f(i + 3);
    partial[4] += f(i + 4);
    partial[5] += f(i + 5);
    partial[6] += f(i + 6);
    partial[7] += f(i + 7);
  }
  for (std::size_t i = whole; i < n; ++i) partial[i - whole] += f(i);
  const T q0 = partial[0] + partial[1];
  const T q1 = partial[2] + partial[3];
  const T q2 = partial[4] + partial[5];
  const T q3 = partial[6] + partial[7];
  return (q0 + q1) + (q2 + q3);
}

}  // namespace tgi::util::simd
