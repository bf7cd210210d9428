// tiled_matmul.h — the register-tiled scalar matmul kernels.
//
// One template serves all three matmul shapes over the SIMD seam's stripe
// contract (simd.h): `m` output rows starting at `out`, full `n` columns,
// reduction depth `k`, `ld*` row strides in elements. The output is walked
// in kTileM x kTileN blocks whose partial sums live in locals across the
// whole k loop, so each b load is reused across kTileM output rows instead
// of once per row. Only the i/j loops are blocked — per output element the
// k reduction runs ascending, multiply then add, exactly as in
// matrix::matmul_naive, so results are bit-identical to it (and to every
// vector tier) for any element type.
//
// Dependency-free on purpose: the seam's scalar tier (simd.cpp)
// instantiates it for double and float, matrix/linalg for int and
// math::Fixed, and tests/simd_off_build.sh compiles it standalone.
#pragma once

#include <cstddef>

namespace kml {

// Register-tile footprint. 8 x 4 measured fastest at -O2 on baseline x86-64
// (SSE2): each tile row is two 2-wide vector accumulators, and the tall tile
// amortizes every b-row load across eight rows of a.
inline constexpr int kTileM = 8;
inline constexpr int kTileN = 4;

namespace tiled_detail {

// a(mi, kk) and b(kk, ni) of one tile. kTransA reads a as (k x m) — out =
// a^T * b — and kTransB reads b as (n x k) — out = a * b^T.
template <typename T, bool kTransA>
inline T a_at(const T* a, int lda, int mi, int kk) {
  return kTransA ? a[static_cast<std::size_t>(kk) * lda + mi]
                 : a[static_cast<std::size_t>(mi) * lda + kk];
}

template <typename T, bool kTransB>
inline T b_at(const T* b, int ldb, int kk, int ni) {
  return kTransB ? b[static_cast<std::size_t>(ni) * ldb + kk]
                 : b[static_cast<std::size_t>(kk) * ldb + ni];
}

// One output tile over the full k range. kFull gives the compiler constant
// trip counts to unroll/vectorize; ragged edge tiles take the runtime
// bounds mr x nr.
template <typename T, bool kTransA, bool kTransB, bool kFull>
inline void tile(const T* a, int lda, const T* b, int ldb, T* out, int ldo,
                 int k, int mr, int nr) {
  const int rows = kFull ? kTileM : mr;
  const int cols = kFull ? kTileN : nr;
  T acc[kTileM][kTileN] = {};
  for (int kk = 0; kk < k; ++kk) {
    for (int mi = 0; mi < rows; ++mi) {
      const T aik = a_at<T, kTransA>(a, lda, mi, kk);
      for (int ni = 0; ni < cols; ++ni) {
        acc[mi][ni] += aik * b_at<T, kTransB>(b, ldb, kk, ni);
      }
    }
  }
  for (int mi = 0; mi < rows; ++mi) {
    for (int ni = 0; ni < cols; ++ni) {
      out[static_cast<std::size_t>(mi) * ldo + ni] = acc[mi][ni];
    }
  }
}

template <typename T, bool kTransA, bool kTransB>
void stripe(const T* a, int lda, const T* b, int ldb, T* out, int ldo, int m,
            int n, int k) {
  for (int i0 = 0; i0 < m; i0 += kTileM) {
    const int mr = m - i0 < kTileM ? m - i0 : kTileM;
    const T* atile =
        kTransA ? a + i0 : a + static_cast<std::size_t>(i0) * lda;
    for (int j0 = 0; j0 < n; j0 += kTileN) {
      const int nr = n - j0 < kTileN ? n - j0 : kTileN;
      const T* btile =
          kTransB ? b + static_cast<std::size_t>(j0) * ldb : b + j0;
      T* otile = out + static_cast<std::size_t>(i0) * ldo + j0;
      if (mr == kTileM && nr == kTileN) {
        tile<T, kTransA, kTransB, true>(atile, lda, btile, ldb, otile, ldo, k,
                                        mr, nr);
      } else {
        tile<T, kTransA, kTransB, false>(atile, lda, btile, ldb, otile, ldo,
                                         k, mr, nr);
      }
    }
  }
}

}  // namespace tiled_detail

// out(m x n) = a(m x k) * b(k x n).
template <typename T>
void tiled_matmul(const T* a, int lda, const T* b, int ldb, T* out, int ldo,
                  int m, int n, int k) {
  tiled_detail::stripe<T, false, false>(a, lda, b, ldb, out, ldo, m, n, k);
}

// out(m x n) = a(m x k) * b(n x k)^T.
template <typename T>
void tiled_matmul_bt(const T* a, int lda, const T* b, int ldb, T* out,
                     int ldo, int m, int n, int k) {
  tiled_detail::stripe<T, false, true>(a, lda, b, ldb, out, ldo, m, n, k);
}

// out(m x n) = a(k x m)^T * b(k x n).
template <typename T>
void tiled_matmul_at(const T* a, int lda, const T* b, int ldb, T* out,
                     int ldo, int m, int n, int k) {
  tiled_detail::stripe<T, true, false>(a, lda, b, ldb, out, ldo, m, n, k);
}

}  // namespace kml
