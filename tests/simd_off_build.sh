#!/bin/sh
# simd_off_build.sh — prove the KML_SIMD=OFF build stays honest.
#
# With -DKML_SIMD_ENABLED=0 the ISA translation units are compiled out of
# the build entirely, so the dispatcher and the scalar reference kernels
# must form a complete, warning-clean library on their own: simd.cpp (with
# the tiled_matmul.h scalar tier it includes) must compile with the tier
# tables absent, and a probe TU exercising the whole public seam must
# compile against it. This is the compile-time half of the
# kill switch (the runtime half — KML_SIMD=off pinning the scalar tier — is
# covered by simd_test forcing tiers programmatically).
#
# Usage: simd_off_build.sh <c++-compiler> <repo-source-dir>

CXX="${1:-c++}"
SRC="${2:-$(dirname "$0")/..}"

if ! command -v "$CXX" >/dev/null 2>&1; then
  echo "simd_off_build: compiler '$CXX' not found; skipping"
  exit 0
fi

tmp="${TMPDIR:-/tmp}/kml_simd_off.$$"
mkdir -p "$tmp" || exit 1
trap 'rm -rf "$tmp"' EXIT

FLAGS="-std=c++20 -DKML_SIMD_ENABLED=0 -I$SRC/src -Wall -Wextra -Werror -c"

# 1. The dispatcher compiles with every ISA tier switched off. (The ISA TUs
#    themselves compile to empty files when OFF — that must hold too, since
#    a build system may still feed them to the compiler.)
for f in "$SRC"/src/portability/simd.cpp \
         "$SRC"/src/portability/simd_sse2.cpp \
         "$SRC"/src/portability/simd_avx2.cpp; do
  if ! "$CXX" $FLAGS "$f" -o "$tmp/$(basename "$f").o"; then
    echo "simd_off_build: $f does not compile with KML_SIMD=OFF"
    exit 1
  fi
done

# 2. A consumer TU touching the full seam compiles against the OFF build.
cat > "$tmp/probe.cpp" <<'EOF'
#include "portability/simd.h"
#include "portability/tiled_matmul.h"

using namespace kml;

int run_probe() {
  double a[4] = {1, 2, 3, 4};
  double b[4] = {5, 6, 7, 8};
  double o[4] = {};
  float fa[4] = {1, 2, 3, 4};
  float fb[4] = {5, 6, 7, 8};
  float fo[4] = {};
  int ia[4] = {1, -2, 3, -4};
  int ib[4] = {5, -6, 7, -8};
  int io[4] = {};

  kml_simd_matmul_f64(a, 2, b, 2, o, 2, 2, 2, 2);
  kml_simd_matmul_bt_f64(a, 2, b, 2, o, 2, 2, 2, 2);
  kml_simd_matmul_at_f64(a, 2, b, 2, o, 2, 2, 2, 2);
  kml_simd_matmul_f32(fa, 2, fb, 2, fo, 2, 2, 2, 2);
  kml_simd_matmul_bt_f32(fa, 2, fb, 2, fo, 2, 2, 2, 2);
  kml_simd_matmul_at_f32(fa, 2, fb, 2, fo, 2, 2, 2, 2);
  kml_simd_add_f64(a, b, o, 4);
  kml_simd_sub_f64(a, b, o, 4);
  kml_simd_mul_f64(a, b, o, 4);
  kml_simd_axpy_f64(0.5, b, o, 4);
  kml_simd_scale_f64(o, 2.0, 4);
  kml_simd_add_f32(fa, fb, fo, 4);
  kml_simd_sub_f32(fa, fb, fo, 4);
  kml_simd_mul_f32(fa, fb, fo, 4);
  auto ident = [](double x) { return x; };
  kml_simd_exp_span(a, o, 4, ident);
  kml_simd_sigmoid_span(a, o, 4, ident);
  kml_simd_tanh_span(a, o, 4, ident);
  tiled_matmul(ia, 2, ib, 2, io, 2, 2, 2, 2);
  tiled_matmul_bt(ia, 2, ib, 2, io, 2, 2, 2, 2);
  tiled_matmul_at(ia, 2, ib, 2, io, 2, 2, 2, 2);

  int alive = static_cast<int>(kml_simd_detected());
  alive += static_cast<int>(kml_simd_level());
  alive += static_cast<int>(kml_simd_set_level(SimdLevel::kAvx2));
  alive += static_cast<int>(
      kml_simd_level_from_name(kml_simd_level_name(SimdLevel::kScalar)));
  return alive + static_cast<int>(o[0] + fo[0]) + io[0];
}
EOF
if ! "$CXX" $FLAGS "$tmp/probe.cpp" -o "$tmp/probe.o"; then
  echo "simd_off_build: seam surface does not compile when OFF"
  exit 1
fi

# 3. OFF must mean off: no vector-ISA tier may survive in the objects. An
#    AVX2 instruction in the OFF build would crash a pre-AVX2 host at
#    dispatch-table swap, so look for any table symbol beyond scalar.
if command -v nm >/dev/null 2>&1; then
  tiers=$(nm "$tmp/simd.cpp.o" "$tmp/simd_sse2.cpp.o" "$tmp/simd_avx2.cpp.o" \
            2>/dev/null | grep -E 'sse2_table|avx2_table' | grep -v ' U ')
  if [ -n "$tiers" ]; then
    echo "simd_off_build: OFF build still defines vector tier tables:"
    echo "$tiers" | head -10
    exit 1
  fi
fi

echo "simd_off_build: clean"
exit 0
