// simd_internal.h — shared plumbing between the dispatch layer (simd.cpp)
// and the per-ISA kernel translation units (simd_sse2.cpp, simd_avx2.cpp).
// Nothing here is part of the public seam; include simd.h from the rest of
// the tree.
#pragma once

#include "portability/simd.h"

// CMake always defines this (0 or 1). Defaulting to 1 here makes a broken
// build wiring fail loudly at link time (missing ISA tables) instead of
// silently shipping scalar-only dispatch.
#ifndef KML_SIMD_ENABLED
#define KML_SIMD_ENABLED 1
#endif

namespace kml::simd_detail {

// Constants for the vectorized exp/sigmoid/tanh bodies. These MUST stay
// bit-equal to the scalar algorithm in math/approx.cpp — the per-tier
// bit-identity tests pin the two against drift. portability sits below
// math in the layering, so the values are duplicated here rather than
// included.
inline constexpr double kLn2 = 0.6931471805599453094;
inline constexpr double kInvLn2 = 1.4426950408889634074;
inline constexpr double kExpPoly[10] = {
    1.0 / 362880.0, 1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0,
    1.0 / 24.0,     1.0 / 6.0,     0.5,          1.0,         1.0};

// Vector fast-path domains. Outside these, lanes delegate to the scalar
// fallback, which owns the saturation/NaN/subnormal edges.
//
// |x| <= 700 keeps exp's 2^k factor in the normal range ((k+1023)<<52 is
// valid bit construction only for k in [-1022, 1023]; |x| <= 700 bounds
// |k| <= 1011), well inside scalar kml_exp's own ±709.78/−745 cutoffs.
inline constexpr double kExpVecMax = 700.0;
// tanh saturates to ±1 beyond ±20 in the scalar code; the vector body only
// handles the interior, so its exp argument −2|x| stays in [−40, 0].
inline constexpr double kTanhVecMax = 20.0;

// One kernel-pointer table per dispatch tier. kml_simd_set_level() swaps
// which table the public entry points read (a single atomic pointer), so a
// tier change is one store and dispatch is one load + indirect call.
struct KernelTable {
  void (*matmul_f64)(const double*, int, const double*, int, double*, int,
                     int, int, int);
  void (*matmul_f32)(const float*, int, const float*, int, float*, int, int,
                     int, int);
  void (*matmul_bt_f64)(const double*, int, const double*, int, double*, int,
                        int, int, int);
  void (*matmul_bt_f32)(const float*, int, const float*, int, float*, int,
                        int, int, int);
  void (*matmul_at_f64)(const double*, int, const double*, int, double*, int,
                        int, int, int);
  void (*matmul_at_f32)(const float*, int, const float*, int, float*, int,
                        int, int, int);
  void (*add_f64)(const double*, const double*, double*, long);
  void (*sub_f64)(const double*, const double*, double*, long);
  void (*mul_f64)(const double*, const double*, double*, long);
  void (*axpy_f64)(double, const double*, double*, long);
  void (*scale_f64)(double*, double, long);
  void (*add_f32)(const float*, const float*, float*, long);
  void (*sub_f32)(const float*, const float*, float*, long);
  void (*mul_f32)(const float*, const float*, float*, long);
  void (*exp_span)(const double*, double*, long, KmlScalarFn);
  void (*sigmoid_span)(const double*, double*, long, KmlScalarFn);
  void (*tanh_span)(const double*, double*, long, KmlScalarFn);
};

const KernelTable& scalar_table();

#if KML_SIMD_ENABLED && defined(__x86_64__)
const KernelTable& sse2_table();
const KernelTable& avx2_table();
#endif

}  // namespace kml::simd_detail
