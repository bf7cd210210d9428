// simd.h — runtime-dispatched SIMD kernels behind the portability seam.
//
// The compute kernels (matmul family, elementwise, transcendental spans)
// come in one implementation per instruction-set tier; the seam probes the
// CPU once and routes every call through the best tier the host supports.
// It is the only float/double kernel path: matrix/linalg and math/approx
// call it unconditionally. Raw intrinsics live ONLY in
// src/portability/simd_*.cpp (repo_hygiene bans <immintrin.h>/
// <arm_neon.h> everywhere else), so a kernel backend — or a non-x86 port —
// swaps tiers without touching any caller.
//
// Determinism contract: every floating-point kernel here is bit-identical
// to the scalar tier at EVERY tier; the scalar tier's matmul family is the
// register-tiled kernel (tiled_matmul.h), itself bit-identical to
// matrix/linalg's naive loops. The vector kernels achieve that by
// vectorizing across independent output elements (output columns for the
// matmul family, elements for the elementwise/transcendental kernels) while
// each element's k-reduction runs strictly ascending in the same
// mul-then-add order as the scalar code. No FMA contraction anywhere: an
// fused multiply-add rounds once where mul+add rounds twice, which would
// fork the result bits between tiers.
//
// Kill switches:
//   * CMake -DKML_SIMD=OFF compiles the ISA translation units out entirely
//     (KML_SIMD_ENABLED=0): detection reports kScalar and the scalar tier
//     is all that exists (tests/simd_off_build.sh).
//   * env KML_SIMD=off pins the scalar tier at runtime.
//   * env KML_SIMD_LEVEL=scalar|sse2|avx2 forces a specific tier (clamped
//     to what the CPU supports).
//   * kml_simd_set_level() does the same programmatically (tests/bench).
#pragma once

namespace kml {

// Dispatch ladder, best-last per architecture. kNeon is declared for the
// ARM port but currently a stub: detection never returns it and requesting
// it clamps to scalar.
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

// Best tier this CPU supports (probed once, cached). kScalar when compiled
// with KML_SIMD=OFF or on architectures without a tier implementation.
SimdLevel kml_simd_detected();

// Active tier: detected, clamped by the KML_SIMD / KML_SIMD_LEVEL
// environment knobs and any kml_simd_set_level() override.
SimdLevel kml_simd_level();

// Force a tier (clamped to detected; kNeon clamps to scalar until the NEON
// kernels exist). Returns the effective level. Not safe to call while
// another thread is inside a kernel — flip it between operations only
// (tests and the per-tier bench do exactly that).
SimdLevel kml_simd_set_level(SimdLevel want);

// Name/parse helpers ("scalar", "sse2", "avx2", "neon"). Parsing is
// case-insensitive and returns kScalar for unknown strings — the same
// routine consumes the KML_SIMD_LEVEL environment variable.
const char* kml_simd_level_name(SimdLevel level);
SimdLevel kml_simd_level_from_name(const char* name);

// ---------------------------------------------------------------------------
// Kernels. All operate on a row-major stripe: `m` output rows starting at
// `out`, full `n` columns, reduction depth `k`; `ld*` are row strides in
// elements. Callers (matrix/linalg) keep their own parallel partitioning
// and hand each worker a disjoint stripe — the kernels are oblivious.
// ---------------------------------------------------------------------------

// out(m x n) = a(m x k) * b(k x n). Per element the k loop ascends exactly
// as in matmul_naive — bit-identical at every tier.
void kml_simd_matmul_f64(const double* a, int lda, const double* b, int ldb,
                         double* out, int ldo, int m, int n, int k);
void kml_simd_matmul_f32(const float* a, int lda, const float* b, int ldb,
                         float* out, int ldo, int m, int n, int k);

// out(m x n) = a(m x k) * b(n x k)^T (the backward-pass shape).
void kml_simd_matmul_bt_f64(const double* a, int lda, const double* b,
                            int ldb, double* out, int ldo, int m, int n,
                            int k);
void kml_simd_matmul_bt_f32(const float* a, int lda, const float* b, int ldb,
                            float* out, int ldo, int m, int n, int k);

// out(m x n) = a(k x m)^T * b(k x n) (the weight-gradient shape).
void kml_simd_matmul_at_f64(const double* a, int lda, const double* b,
                            int ldb, double* out, int ldo, int m, int n,
                            int k);
void kml_simd_matmul_at_f32(const float* a, int lda, const float* b, int ldb,
                            float* out, int ldo, int m, int n, int k);

// Elementwise over contiguous spans (bit-identical trivially: one op per
// element, element order is data-independent).
void kml_simd_add_f64(const double* a, const double* b, double* out, long n);
void kml_simd_sub_f64(const double* a, const double* b, double* out, long n);
void kml_simd_mul_f64(const double* a, const double* b, double* out, long n);
void kml_simd_axpy_f64(double alpha, const double* b, double* a, long n);
void kml_simd_scale_f64(double* a, double alpha, long n);
void kml_simd_add_f32(const float* a, const float* b, float* out, long n);
void kml_simd_sub_f32(const float* a, const float* b, float* out, long n);
void kml_simd_mul_f32(const float* a, const float* b, float* out, long n);

// Transcendental spans. The vector body reproduces the scalar algorithm
// (math/approx.cpp) operation for operation, so in-domain elements are
// bit-identical; out-of-domain elements (NaN, |x| beyond the vector-safe
// range) and tails are delegated to `fallback`, which callers point at the
// scalar function (kml_exp / kml_sigmoid / kml_tanh). in == out aliasing is
// allowed; other overlap is not.
using KmlScalarFn = double (*)(double);
void kml_simd_exp_span(const double* in, double* out, long n,
                       KmlScalarFn fallback);
void kml_simd_sigmoid_span(const double* in, double* out, long n,
                           KmlScalarFn fallback);
void kml_simd_tanh_span(const double* in, double* out, long n,
                        KmlScalarFn fallback);

}  // namespace kml
