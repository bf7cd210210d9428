// Tests for src/portability/simd: the determinism contract. Every
// floating-point kernel must be BIT-identical across dispatch tiers
// (scalar/SSE2/AVX2, forced via kml_simd_set_level — the programmatic twin
// of KML_SIMD_LEVEL), and the transcendental spans must reproduce the
// scalar math/approx functions bit for bit including special values. The
// routed matrix::matmul paths are pinned against matmul_naive at every tier
// so the seam stays honest end to end.
#include "portability/simd.h"

#include "math/approx.h"
#include "matrix/linalg.h"
#include "portability/threadpool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace kml {
namespace {

std::vector<SimdLevel> available_tiers() {
  std::vector<SimdLevel> tiers = {SimdLevel::kScalar};
  const SimdLevel best = kml_simd_detected();
  if (best >= SimdLevel::kSse2) tiers.push_back(SimdLevel::kSse2);
  if (best >= SimdLevel::kAvx2) tiers.push_back(SimdLevel::kAvx2);
  return tiers;
}

// Restores the dispatch tier active at construction — tests force tiers
// freely without leaking the override into later tests.
struct TierGuard {
  SimdLevel prev = kml_simd_level();
  ~TierGuard() { kml_simd_set_level(prev); }
};

// Deterministic fill (xorshift64*), mapped into a small range so matmul
// reductions exercise real rounding.
std::uint64_t next_u64(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dULL;
}

double next_double(std::uint64_t& s) {
  return static_cast<double>(next_u64(s) >> 11) * (1.0 / 9007199254740992.0) *
             8.0 -
         4.0;
}

template <typename T>
void fill(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& x : v) x = static_cast<T>(next_double(s));
}

template <typename T>
std::uint64_t bits_of(T x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(T));
  return b;
}

template <typename T>
void expect_bit_equal(const std::vector<T>& got, const std::vector<T>& want,
                      const char* what, SimdLevel tier) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << what << " diverges from scalar at tier "
        << kml_simd_level_name(tier) << ", element " << i << ": got "
        << got[i] << ", want " << want[i];
  }
}

struct Shape {
  int m, n, k;
};

constexpr Shape kShapes[] = {{1, 1, 1},  {2, 3, 4},   {3, 5, 7},
                             {8, 8, 8},  {5, 17, 9},  {7, 33, 13},
                             {1, 31, 6}, {16, 4, 64}};

template <typename T>
void run_matmul_family(SimdLevel tier) {
  for (const Shape& s : kShapes) {
    std::vector<T> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<T> at(static_cast<std::size_t>(s.k) * s.m);
    std::vector<T> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<T> bt(static_cast<std::size_t>(s.n) * s.k);
    fill(a, 0x9e3779b97f4a7c15ULL + s.m);
    fill(at, 0xbf58476d1ce4e5b9ULL + s.n);
    fill(b, 0x94d049bb133111ebULL + s.k);
    fill(bt, 0xd6e8feb86659fd93ULL + s.m + s.n);
    std::vector<T> want(static_cast<std::size_t>(s.m) * s.n);
    std::vector<T> got(want.size());

    const auto run = [&](std::vector<T>& out) {
      if constexpr (sizeof(T) == 8) {
        kml_simd_matmul_f64(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                            s.m, s.n, s.k);
      } else {
        kml_simd_matmul_f32(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                            s.m, s.n, s.k);
      }
    };
    const auto run_bt = [&](std::vector<T>& out) {
      if constexpr (sizeof(T) == 8) {
        kml_simd_matmul_bt_f64(a.data(), s.k, bt.data(), s.k, out.data(), s.n,
                               s.m, s.n, s.k);
      } else {
        kml_simd_matmul_bt_f32(a.data(), s.k, bt.data(), s.k, out.data(), s.n,
                               s.m, s.n, s.k);
      }
    };
    const auto run_at = [&](std::vector<T>& out) {
      if constexpr (sizeof(T) == 8) {
        kml_simd_matmul_at_f64(at.data(), s.m, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
      } else {
        kml_simd_matmul_at_f32(at.data(), s.m, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
      }
    };

    ASSERT_EQ(kml_simd_set_level(SimdLevel::kScalar), SimdLevel::kScalar);
    run(want);
    ASSERT_EQ(kml_simd_set_level(tier), tier);
    run(got);
    expect_bit_equal(got, want, "matmul", tier);

    kml_simd_set_level(SimdLevel::kScalar);
    run_bt(want);
    kml_simd_set_level(tier);
    run_bt(got);
    expect_bit_equal(got, want, "matmul_bt", tier);

    kml_simd_set_level(SimdLevel::kScalar);
    run_at(want);
    kml_simd_set_level(tier);
    run_at(got);
    expect_bit_equal(got, want, "matmul_at", tier);
  }
}

TEST(Simd, MatmulFamilyBitIdenticalAcrossTiers) {
  TierGuard guard;
  for (SimdLevel tier : available_tiers()) {
    run_matmul_family<double>(tier);
    run_matmul_family<float>(tier);
  }
}

TEST(Simd, ElementwiseBitIdenticalAcrossTiers) {
  TierGuard guard;
  const long lengths[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 100};
  for (SimdLevel tier : available_tiers()) {
    for (long n : lengths) {
      std::vector<double> a(static_cast<std::size_t>(n));
      std::vector<double> b(a.size());
      fill(a, 0x1111 + static_cast<std::uint64_t>(n));
      fill(b, 0x2222 + static_cast<std::uint64_t>(n));
      std::vector<double> want(a.size());
      std::vector<double> got(a.size());

      struct Case {
        const char* name;
        void (*fn)(const double*, const double*, double*, long);
      };
      const Case cases[] = {{"add", &kml_simd_add_f64},
                            {"sub", &kml_simd_sub_f64},
                            {"mul", &kml_simd_mul_f64}};
      for (const Case& c : cases) {
        kml_simd_set_level(SimdLevel::kScalar);
        c.fn(a.data(), b.data(), want.data(), n);
        kml_simd_set_level(tier);
        c.fn(a.data(), b.data(), got.data(), n);
        expect_bit_equal(got, want, c.name, tier);
      }

      // axpy/scale mutate in place: run each tier from the same start state.
      std::vector<double> acc = a;
      kml_simd_set_level(SimdLevel::kScalar);
      kml_simd_axpy_f64(1.25, b.data(), acc.data(), n);
      kml_simd_scale_f64(acc.data(), 0.75, n);
      want = acc;
      acc = a;
      kml_simd_set_level(tier);
      kml_simd_axpy_f64(1.25, b.data(), acc.data(), n);
      kml_simd_scale_f64(acc.data(), 0.75, n);
      expect_bit_equal(acc, want, "axpy+scale", tier);

      std::vector<float> fa(a.size());
      std::vector<float> fb(a.size());
      fill(fa, 0x3333 + static_cast<std::uint64_t>(n));
      fill(fb, 0x4444 + static_cast<std::uint64_t>(n));
      std::vector<float> fwant(fa.size());
      std::vector<float> fgot(fa.size());
      kml_simd_set_level(SimdLevel::kScalar);
      kml_simd_mul_f32(fa.data(), fb.data(), fwant.data(), n);
      kml_simd_set_level(tier);
      kml_simd_mul_f32(fa.data(), fb.data(), fgot.data(), n);
      expect_bit_equal(fgot, fwant, "mul_f32", tier);
    }
  }
}

// Special values the span kernels must route through the scalar fallback
// (or reproduce exactly): NaN, infinities, the vector-safe domain edges
// (±700 for exp, ±20 for tanh), subnormal-adjacent magnitudes, and signed
// zero.
std::vector<double> transcendental_inputs() {
  std::vector<double> in = {
      0.0,    -0.0,   1.0,     -1.0,   0.5,    -0.5,    20.0,  -20.0,
      20.5,   -20.5,  699.5,   -699.5, 700.0,  -700.0,  700.5, -700.5,
      709.9,  -745.5, 1e-300,  -1e-300, 1e300, -1e300,  6.25,  -6.25,
      math::kml_nan(), math::kml_inf(), -math::kml_inf()};
  std::uint64_t s = 0xfeedface;
  for (int i = 0; i < 97; ++i) in.push_back(next_double(s) * 5.0);
  return in;
}

TEST(Simd, TranscendentalSpansMatchScalarBitsAtEveryTier) {
  TierGuard guard;
  const std::vector<double> in = transcendental_inputs();
  const long n = static_cast<long>(in.size());
  struct Case {
    const char* name;
    void (*span)(const double*, double*, long, KmlScalarFn);
    KmlScalarFn scalar;
  };
  const Case cases[] = {
      {"exp", &kml_simd_exp_span, &math::kml_exp},
      {"sigmoid", &kml_simd_sigmoid_span, &math::kml_sigmoid},
      {"tanh", &kml_simd_tanh_span, &math::kml_tanh}};
  for (SimdLevel tier : available_tiers()) {
    kml_simd_set_level(tier);
    for (const Case& c : cases) {
      std::vector<double> want(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) want[i] = c.scalar(in[i]);
      std::vector<double> got(in.size());
      c.span(in.data(), got.data(), n, c.scalar);
      expect_bit_equal(got, want, c.name, tier);

      // in == out aliasing is part of the contract (activations run in
      // place).
      std::vector<double> inplace = in;
      c.span(inplace.data(), inplace.data(), n, c.scalar);
      expect_bit_equal(inplace, want, c.name, tier);
    }
  }
}

// End-to-end: the routed matrix::matmul must still match matmul_naive at
// every tier (the pre-existing equivalence suites run at the default tier;
// this pins the forced tiers too). The 67x65x61 shape runs with the pool at
// 4 threads: its nine 8-row stripes split across all four workers, so the
// stripe partition — ragged last stripe included — is checked against the
// naive loops at the scalar (tiled) tier as well as the vector tiers.
void expect_routed_matches_naive(int m, int n, int k, SimdLevel tier) {
  matrix::MatD a(m, k);
  matrix::MatD b(k, n);
  matrix::MatD bt(n, k);
  matrix::MatD at(k, m);
  std::uint64_t s = 0x5ca1ab1e + static_cast<std::uint64_t>(m);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = next_double(s);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = next_double(s);
  for (std::size_t i = 0; i < bt.size(); ++i) bt.data()[i] = next_double(s);
  for (std::size_t i = 0; i < at.size(); ++i) at.data()[i] = next_double(s);
  matrix::MatD want(m, n);
  matrix::MatD got(m, n);
  const auto expect_same = [&](const char* what) {
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
          << what << " tier " << kml_simd_level_name(tier) << " shape " << m
          << "x" << n << "x" << k << " element " << i;
    }
  };

  matrix::matmul_naive(a, b, want);
  matrix::matmul(a, b, got);
  expect_same("matmul");

  matrix::matmul_bt_naive(a, bt, want);
  matrix::matmul_bt(a, bt, got);
  expect_same("matmul_bt");

  matrix::matmul_at_naive(at, b, want);
  matrix::matmul_at(at, b, got);
  expect_same("matmul_at");
}

TEST(Simd, RoutedLinalgMatchesNaiveAtEveryTier) {
  TierGuard guard;
  const unsigned threads = kml_pool_threads();
  for (SimdLevel tier : available_tiers()) {
    kml_simd_set_level(tier);
    kml_pool_set_threads(1);
    expect_routed_matches_naive(13, 11, 17, tier);
    kml_pool_set_threads(4);
    expect_routed_matches_naive(67, 65, 61, tier);
  }
  kml_pool_set_threads(threads);
}

TEST(Simd, LevelNamesRoundTripAndClamp) {
  TierGuard guard;
  EXPECT_STREQ(kml_simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(kml_simd_level_name(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(kml_simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(kml_simd_level_name(SimdLevel::kNeon), "neon");
  EXPECT_EQ(kml_simd_level_from_name("AVX2"), SimdLevel::kAvx2);
  EXPECT_EQ(kml_simd_level_from_name("sse2"), SimdLevel::kSse2);
  EXPECT_EQ(kml_simd_level_from_name("Scalar"), SimdLevel::kScalar);
  EXPECT_EQ(kml_simd_level_from_name("bogus"), SimdLevel::kScalar);
  EXPECT_EQ(kml_simd_level_from_name(nullptr), SimdLevel::kScalar);

  // Requests clamp to what the CPU has; the NEON stub clamps to scalar.
  EXPECT_EQ(kml_simd_set_level(SimdLevel::kNeon), SimdLevel::kScalar);
  EXPECT_EQ(kml_simd_set_level(kml_simd_detected()), kml_simd_detected());
  EXPECT_LE(kml_simd_set_level(SimdLevel::kAvx2), kml_simd_detected());
}

}  // namespace
}  // namespace kml
