// simd_sse2.cpp — SSE2 tier (x86-64 baseline, no extra compile flags).
// 2 double / 4 float lanes. The only file besides simd_avx2.cpp allowed to
// include an intrinsics header (enforced by tests/repo_hygiene.sh).

#include "portability/simd_internal.h"

#if KML_SIMD_ENABLED && defined(__x86_64__)

#include <emmintrin.h>

#include "portability/simd_vec.inl.h"

namespace kml::simd_detail {
namespace {

struct VecD2 {
  using Elem = double;
  using Reg = __m128d;
  using IReg = __m128i;
  static constexpr int kLanes = 2;
  static constexpr int kFullMask = 0x3;

  static Reg load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm_storeu_pd(p, v); }
  static Reg set1(double x) { return _mm_set1_pd(x); }
  static Reg zero() { return _mm_setzero_pd(); }
  static Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm_div_pd(a, b); }
  static Reg gather_rows(const double* p, long stride) {
    return _mm_set_pd(p[stride], p[0]);
  }

  static Reg cmp_ord(Reg x) { return _mm_cmpord_pd(x, x); }
  static Reg cmp_ge(Reg a, Reg b) { return _mm_cmpge_pd(a, b); }
  static Reg cmp_le(Reg a, Reg b) { return _mm_cmple_pd(a, b); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm_cmplt_pd(a, b); }
  static Reg and_(Reg a, Reg b) { return _mm_and_pd(a, b); }
  static int movemask(Reg m) { return _mm_movemask_pd(m); }
  // mask ? b : a — masks are all-ones/all-zeros lanes from the cmp ops, so
  // the and/andnot/or blend is exact (SSE2 has no blendv).
  static Reg blendv(Reg a, Reg b, Reg mask) {
    return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
  }

  static Reg sign_mask() { return _mm_set1_pd(-0.0); }
  static Reg abs(Reg x) { return _mm_andnot_pd(sign_mask(), x); }
  static Reg neg(Reg x) { return _mm_xor_pd(x, sign_mask()); }
  static Reg neg_where(Reg x, Reg mask) {
    return _mm_xor_pd(x, _mm_and_pd(mask, sign_mask()));
  }

  // Lanes 0..1 of the i32 results land in the low half of the register.
  static IReg trunc_i32(Reg x) { return _mm_cvttpd_epi32(x); }
  static Reg i32_to_f64(IReg k) { return _mm_cvtepi32_pd(k); }
  static Reg pow2k(IReg k) {
    // Sign-extend the two i32 lanes to i64 (no cvtepi32_epi64 in SSE2),
    // then bit-construct the double exponent (k+1023) << 52.
    const __m128i sign = _mm_srai_epi32(k, 31);
    const __m128i k64 = _mm_unpacklo_epi32(k, sign);
    const __m128i biased = _mm_add_epi64(k64, _mm_set1_epi64x(1023));
    return _mm_castsi128_pd(_mm_slli_epi64(biased, 52));
  }
};

struct VecF4 {
  using Elem = float;
  using Reg = __m128;
  static constexpr int kLanes = 4;

  static Reg load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm_storeu_ps(p, v); }
  static Reg set1(float x) { return _mm_set1_ps(x); }
  static Reg zero() { return _mm_setzero_ps(); }
  static Reg add(Reg a, Reg b) { return _mm_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm_mul_ps(a, b); }
  static Reg gather_rows(const float* p, long stride) {
    return _mm_set_ps(p[3 * stride], p[2 * stride], p[stride], p[0]);
  }
};

}  // namespace

const KernelTable& sse2_table() {
  static const KernelTable t = {
      &matmul_body<VecD2>,    &matmul_body<VecF4>,
      &matmul_bt_body<VecD2>, &matmul_bt_body<VecF4>,
      &matmul_at_body<VecD2>, &matmul_at_body<VecF4>,
      &elementwise_body<VecD2, EwOp::kAdd>,
      &elementwise_body<VecD2, EwOp::kSub>,
      &elementwise_body<VecD2, EwOp::kMul>,
      &axpy_body<VecD2>,      &scale_body<VecD2>,
      &elementwise_body<VecF4, EwOp::kAdd>,
      &elementwise_body<VecF4, EwOp::kSub>,
      &elementwise_body<VecF4, EwOp::kMul>,
      &exp_span_body<VecD2>,  &sigmoid_span_body<VecD2>,
      &tanh_span_body<VecD2>,
  };
  return t;
}

}  // namespace kml::simd_detail

#endif  // KML_SIMD_ENABLED && defined(__x86_64__)
