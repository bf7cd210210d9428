// simd_avx2.cpp — AVX2 tier. The ONLY translation unit compiled with
// -mavx2 (see src/CMakeLists.txt); nothing here may be inlined elsewhere.
// 4 double / 8 float lanes. No FMA anywhere — fused mul-add rounds once
// where the scalar reference rounds twice, which would break the
// bit-identity contract (simd.h).

#include "portability/simd_internal.h"

#if KML_SIMD_ENABLED && defined(__x86_64__)

#include <immintrin.h>

#include "portability/simd_vec.inl.h"

namespace kml::simd_detail {
namespace {

struct VecD4 {
  using Elem = double;
  using Reg = __m256d;
  using IReg = __m128i;
  static constexpr int kLanes = 4;
  static constexpr int kFullMask = 0xF;

  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg set1(double x) { return _mm256_set1_pd(x); }
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static Reg gather_rows(const double* p, long stride) {
    return _mm256_set_pd(p[3 * stride], p[2 * stride], p[stride], p[0]);
  }

  static Reg cmp_ord(Reg x) { return _mm256_cmp_pd(x, x, _CMP_ORD_Q); }
  static Reg cmp_ge(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static Reg cmp_le(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_pd(a, b); }
  static int movemask(Reg m) { return _mm256_movemask_pd(m); }
  static Reg blendv(Reg a, Reg b, Reg mask) {
    return _mm256_blendv_pd(a, b, mask);
  }

  static Reg sign_mask() { return _mm256_set1_pd(-0.0); }
  static Reg abs(Reg x) { return _mm256_andnot_pd(sign_mask(), x); }
  static Reg neg(Reg x) { return _mm256_xor_pd(x, sign_mask()); }
  static Reg neg_where(Reg x, Reg mask) {
    return _mm256_xor_pd(x, _mm256_and_pd(mask, sign_mask()));
  }

  static IReg trunc_i32(Reg x) { return _mm256_cvttpd_epi32(x); }
  static Reg i32_to_f64(IReg k) { return _mm256_cvtepi32_pd(k); }
  static Reg pow2k(IReg k) {
    const __m256i k64 = _mm256_cvtepi32_epi64(k);
    const __m256i biased = _mm256_add_epi64(k64, _mm256_set1_epi64x(1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
  }
};

struct VecF8 {
  using Elem = float;
  using Reg = __m256;
  static constexpr int kLanes = 8;

  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg set1(float x) { return _mm256_set1_ps(x); }
  static Reg zero() { return _mm256_setzero_ps(); }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg gather_rows(const float* p, long stride) {
    return _mm256_set_ps(p[7 * stride], p[6 * stride], p[5 * stride],
                         p[4 * stride], p[3 * stride], p[2 * stride],
                         p[stride], p[0]);
  }
};

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable t = {
      &matmul_body<VecD4>,    &matmul_body<VecF8>,
      &matmul_bt_body<VecD4>, &matmul_bt_body<VecF8>,
      &matmul_at_body<VecD4>, &matmul_at_body<VecF8>,
      &elementwise_body<VecD4, EwOp::kAdd>,
      &elementwise_body<VecD4, EwOp::kSub>,
      &elementwise_body<VecD4, EwOp::kMul>,
      &axpy_body<VecD4>,      &scale_body<VecD4>,
      &elementwise_body<VecF8, EwOp::kAdd>,
      &elementwise_body<VecF8, EwOp::kSub>,
      &elementwise_body<VecF8, EwOp::kMul>,
      &exp_span_body<VecD4>,  &sigmoid_span_body<VecD4>,
      &tanh_span_body<VecD4>,
  };
  return t;
}

}  // namespace kml::simd_detail

#endif  // KML_SIMD_ENABLED && defined(__x86_64__)
