// simd.cpp — CPU detection, tier dispatch, and the scalar tier.
//
// The scalar tier is the bit-identity reference: its matmul family is the
// register-tiled kernel (tiled_matmul.h), whose per-element k-ascending
// mul-then-add matches matrix/linalg's naive kernels, and the per-ISA
// vector tiers reproduce it lane for lane. This file is deliberately
// dependency-light (no logging, no observe) so tests/simd_off_build.sh can
// compile and link it standalone.

#include "portability/simd_internal.h"
#include "portability/tiled_matmul.h"

#include <atomic>
#include <cstdlib>

namespace kml {

namespace {

using simd_detail::KernelTable;

// --- scalar tier --------------------------------------------------------------

template <typename T>
void add_scalar(const T* a, const T* b, T* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
template <typename T>
void sub_scalar(const T* a, const T* b, T* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
template <typename T>
void mul_scalar(const T* a, const T* b, T* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void axpy_scalar(double alpha, const double* b, double* a, long n) {
  for (long i = 0; i < n; ++i) a[i] += alpha * b[i];
}
void scale_scalar(double* a, double alpha, long n) {
  for (long i = 0; i < n; ++i) a[i] *= alpha;
}

// The scalar tier of a span is the fallback applied elementwise — by
// construction the reference the vector tiers must match bit for bit.
void span_scalar(const double* in, double* out, long n, KmlScalarFn fn) {
  for (long i = 0; i < n; ++i) out[i] = fn(in[i]);
}

// --- dispatch state ----------------------------------------------------------

const KernelTable& table_for(SimdLevel level) {
#if KML_SIMD_ENABLED && defined(__x86_64__)
  switch (level) {
    case SimdLevel::kAvx2:
      return simd_detail::avx2_table();
    case SimdLevel::kSse2:
      return simd_detail::sse2_table();
    default:
      break;
  }
#endif
  (void)level;
  return simd_detail::scalar_table();
}

SimdLevel detect_cpu() {
#if KML_SIMD_ENABLED && defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#endif
  return SimdLevel::kScalar;
}

bool env_is_off(const char* v) {
  if (v == nullptr) return false;
  // "off", "0", "false" in any case.
  auto lower = [](char c) { return c >= 'A' && c <= 'Z' ? c + 32 : c; };
  const char* offs[] = {"off", "0", "false"};
  for (const char* o : offs) {
    const char* p = v;
    const char* q = o;
    while (*p != '\0' && *q != '\0' && lower(*p) == *q) ++p, ++q;
    if (*p == '\0' && *q == '\0') return true;
  }
  return false;
}

SimdLevel clamp_level(SimdLevel want, SimdLevel detected) {
  if (want == SimdLevel::kNeon) return SimdLevel::kScalar;  // stub tier
  return static_cast<int>(want) < static_cast<int>(detected) ? want : detected;
}

struct DispatchState {
  SimdLevel detected = SimdLevel::kScalar;
  std::atomic<const KernelTable*> table{nullptr};

  DispatchState() {
    detected = detect_cpu();
    // env KML_SIMD=off is a hard cap: detection itself reports scalar, so
    // neither KML_SIMD_LEVEL nor kml_simd_set_level can raise it (what the
    // TSan suite relies on).
    if (env_is_off(std::getenv("KML_SIMD"))) detected = SimdLevel::kScalar;
    SimdLevel level = detected;
    if (const char* force = std::getenv("KML_SIMD_LEVEL")) {
      if (*force != '\0') {
        level = clamp_level(kml_simd_level_from_name(force), detected);
      }
    }
    table.store(&table_for(level), std::memory_order_release);
  }
};

DispatchState& state() {
  static DispatchState s;
  return s;
}

}  // namespace

namespace simd_detail {

const KernelTable& scalar_table() {
  static const KernelTable t = {
      &tiled_matmul<double>,    &tiled_matmul<float>,
      &tiled_matmul_bt<double>, &tiled_matmul_bt<float>,
      &tiled_matmul_at<double>, &tiled_matmul_at<float>,
      &add_scalar<double>,      &sub_scalar<double>,
      &mul_scalar<double>,      &axpy_scalar,
      &scale_scalar,            &add_scalar<float>,
      &sub_scalar<float>,       &mul_scalar<float>,
      &span_scalar,             &span_scalar,
      &span_scalar,
  };
  return t;
}

}  // namespace simd_detail

SimdLevel kml_simd_detected() { return state().detected; }

SimdLevel kml_simd_level() {
  const KernelTable* t = state().table.load(std::memory_order_acquire);
#if KML_SIMD_ENABLED && defined(__x86_64__)
  if (t == &simd_detail::avx2_table()) return SimdLevel::kAvx2;
  if (t == &simd_detail::sse2_table()) return SimdLevel::kSse2;
#endif
  (void)t;
  return SimdLevel::kScalar;
}

SimdLevel kml_simd_set_level(SimdLevel want) {
  DispatchState& s = state();
  const SimdLevel effective = clamp_level(want, s.detected);
  s.table.store(&table_for(effective), std::memory_order_release);
  return effective;
}

const char* kml_simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

SimdLevel kml_simd_level_from_name(const char* name) {
  if (name == nullptr) return SimdLevel::kScalar;
  auto matches = [&](const char* want) {
    const char* p = name;
    const char* q = want;
    auto lower = [](char c) { return c >= 'A' && c <= 'Z' ? c + 32 : c; };
    while (*p != '\0' && *q != '\0' && lower(*p) == *q) ++p, ++q;
    return *p == '\0' && *q == '\0';
  };
  if (matches("sse2")) return SimdLevel::kSse2;
  if (matches("avx2")) return SimdLevel::kAvx2;
  if (matches("neon")) return SimdLevel::kNeon;
  return SimdLevel::kScalar;  // "scalar", "off", and anything unrecognized
}

// --- public kernel entry points ---------------------------------------------

namespace {
inline const KernelTable& active() {
  return *state().table.load(std::memory_order_acquire);
}
}  // namespace

void kml_simd_matmul_f64(const double* a, int lda, const double* b, int ldb,
                         double* out, int ldo, int m, int n, int k) {
  active().matmul_f64(a, lda, b, ldb, out, ldo, m, n, k);
}
void kml_simd_matmul_f32(const float* a, int lda, const float* b, int ldb,
                         float* out, int ldo, int m, int n, int k) {
  active().matmul_f32(a, lda, b, ldb, out, ldo, m, n, k);
}
void kml_simd_matmul_bt_f64(const double* a, int lda, const double* b,
                            int ldb, double* out, int ldo, int m, int n,
                            int k) {
  active().matmul_bt_f64(a, lda, b, ldb, out, ldo, m, n, k);
}
void kml_simd_matmul_bt_f32(const float* a, int lda, const float* b, int ldb,
                            float* out, int ldo, int m, int n, int k) {
  active().matmul_bt_f32(a, lda, b, ldb, out, ldo, m, n, k);
}
void kml_simd_matmul_at_f64(const double* a, int lda, const double* b,
                            int ldb, double* out, int ldo, int m, int n,
                            int k) {
  active().matmul_at_f64(a, lda, b, ldb, out, ldo, m, n, k);
}
void kml_simd_matmul_at_f32(const float* a, int lda, const float* b, int ldb,
                            float* out, int ldo, int m, int n, int k) {
  active().matmul_at_f32(a, lda, b, ldb, out, ldo, m, n, k);
}

void kml_simd_add_f64(const double* a, const double* b, double* out, long n) {
  active().add_f64(a, b, out, n);
}
void kml_simd_sub_f64(const double* a, const double* b, double* out, long n) {
  active().sub_f64(a, b, out, n);
}
void kml_simd_mul_f64(const double* a, const double* b, double* out, long n) {
  active().mul_f64(a, b, out, n);
}
void kml_simd_axpy_f64(double alpha, const double* b, double* a, long n) {
  active().axpy_f64(alpha, b, a, n);
}
void kml_simd_scale_f64(double* a, double alpha, long n) {
  active().scale_f64(a, alpha, n);
}
void kml_simd_add_f32(const float* a, const float* b, float* out, long n) {
  active().add_f32(a, b, out, n);
}
void kml_simd_sub_f32(const float* a, const float* b, float* out, long n) {
  active().sub_f32(a, b, out, n);
}
void kml_simd_mul_f32(const float* a, const float* b, float* out, long n) {
  active().mul_f32(a, b, out, n);
}

void kml_simd_exp_span(const double* in, double* out, long n,
                       KmlScalarFn fallback) {
  active().exp_span(in, out, n, fallback);
}
void kml_simd_sigmoid_span(const double* in, double* out, long n,
                           KmlScalarFn fallback) {
  active().sigmoid_span(in, out, n, fallback);
}
void kml_simd_tanh_span(const double* in, double* out, long n,
                        KmlScalarFn fallback) {
  active().tanh_span(in, out, n, fallback);
}

}  // namespace kml
