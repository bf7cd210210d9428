#!/bin/sh
# repo_hygiene.sh — fail if build output is tracked by git.
#
# PR 1's review produced a committed build tree (~900 object files and
# CMake state under build-review/); this guard keeps that class of mistake
# from coming back. Run from anywhere; passes trivially when the checkout
# is not a git work tree (release tarballs, vendored copies).

repo_root="$(dirname "$0")/.."
cd "$repo_root" || exit 1

if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "repo_hygiene: not a git work tree; skipping"
  exit 0
fi

offenders=$(git ls-files | grep -E '^build|(^|/)CMakeCache\.txt$|\.o$' )
if [ -n "$offenders" ]; then
  echo "repo_hygiene: build output is tracked by git:"
  echo "$offenders" | head -20
  echo "repo_hygiene: run 'git rm -r --cached <path>' and check .gitignore"
  exit 1
fi

# Thread creation must flow through the portability seam (src/portability),
# so a kernel backend can swap in kthread_run / atomic64_t: direct
# std::thread / std::jthread / std::async / pthread_* use anywhere else in
# src/ breaks that substitution. (Synchronization types like std::mutex are
# fine — only thread-creation and raw-pthread primitives are flagged.)
thread_offenders=$(git ls-files src | grep -E '\.(cpp|h)$' |
  grep -v '^src/portability/' |
  xargs grep -l -E 'std::thread|std::jthread|std::async|pthread_[a-z]' \
    2>/dev/null)
if [ -n "$thread_offenders" ]; then
  echo "repo_hygiene: raw threading primitives outside src/portability/:"
  echo "$thread_offenders" | head -20
  echo "repo_hygiene: use kml_thread_create / kml_parallel_for instead"
  exit 1
fi

# Raw SIMD intrinsics live only behind the portability seam
# (src/portability/simd_*.cpp): everywhere else uses the dispatched
# kml_simd_* kernels, so a non-x86 port or a KML_SIMD=OFF build never
# chases intrinsics through the tree. Any intrinsics header counts —
# <immintrin.h> pulls in everything on x86, and the narrower headers
# (emmintrin/xmmintrin/x86intrin) or <arm_neon.h> are the same leak.
simd_offenders=$(git ls-files src tests bench tools | grep -E '\.(cpp|h)$' |
  grep -v '^src/portability/' |
  xargs grep -l -E '#include[ ]*<(immintrin|emmintrin|xmmintrin|x86intrin|arm_neon)\.h>' \
    2>/dev/null)
if [ -n "$simd_offenders" ]; then
  echo "repo_hygiene: raw SIMD intrinsics outside src/portability/:"
  echo "$simd_offenders" | head -20
  echo "repo_hygiene: route through the kml_simd_* kernels (portability/simd.h)"
  exit 1
fi

# kml::observe is the record-path layer and must stay FPU-free: kernel
# record paths cannot touch floating point (no kernel_fpu_begin on a trace
# hook). Producers above the FPU line (runtime/nn/data) convert to
# milli-unit integers before calling in, so no observe source may even
# declare a float/double. Comments are stripped first; the word-boundary
# match also catches parameters and casts.
fpu_offenders=$(git ls-files src/observe | grep -E '\.(cpp|h)$' |
  while read -r f; do
    if sed -e 's://.*$::' "$f" | grep -qE '\b(float|double)\b'; then
      echo "$f"
    fi
  done)
if [ -n "$fpu_offenders" ]; then
  echo "repo_hygiene: float/double in the FPU-free observe layer:"
  echo "$fpu_offenders"
  echo "repo_hygiene: convert to milli-unit integers in the producer instead"
  exit 1
fi

# Eviction-policy internals are owned by src/sim: the seam is
# PageCache::set_policy / policy_type / policy_params. Code elsewhere in
# src/ constructing policies directly (make_eviction_policy) or driving
# them slot-by-slot (pick_victim) bypasses the residency reseeding and the
# switch accounting that set_policy provides.
policy_offenders=$(git ls-files src | grep -E '\.(cpp|h)$' |
  grep -v '^src/sim/' |
  xargs grep -l -E 'make_eviction_policy|pick_victim' 2>/dev/null)
if [ -n "$policy_offenders" ]; then
  echo "repo_hygiene: eviction-policy internals used outside src/sim/:"
  echo "$policy_offenders" | head -20
  echo "repo_hygiene: actuate through PageCache::set_policy instead"
  exit 1
fi

# The fleet service exists to amortize per-call inference costs across
# tenants: every classification must flow through the coalesced
# Engine::infer_batch* path. A stray per-window infer_class in src/fleet/
# silently forfeits the batching the subsystem is for.
fleet_offenders=$(git ls-files src/fleet | grep -E '\.(cpp|h)$' |
  xargs grep -l -E '\binfer_class\b' 2>/dev/null)
if [ -n "$fleet_offenders" ]; then
  echo "repo_hygiene: single-row Engine::infer_class used in src/fleet/:"
  echo "$fleet_offenders" | head -20
  echo "repo_hygiene: fleet decisions must use the batched infer_batch path"
  exit 1
fi

# Every windowed loop in src/ collects through one owner of hook
# registration (TraceHook in src/readahead/closed_loop.h) and is cut into
# windows by data::Windower. A register_hook( anywhere else in src/ is a
# hand-rolled window loop coming back. The simulator owns the registry,
# and the Markov baseline is a per-event prefetcher, not a windowed loop.
hook_offenders=$(git ls-files src | grep -E '\.(cpp|h)$' |
  grep -v -e '^src/sim/' -e '^src/baselines/markov\.cpp$' \
    -e '^src/readahead/closed_loop\.h$' |
  xargs grep -l -F 'register_hook(' 2>/dev/null)
if [ -n "$hook_offenders" ]; then
  echo "repo_hygiene: tracepoint hooks registered outside the collection owner:"
  echo "$hook_offenders" | head -20
  echo "repo_hygiene: collect through readahead::TraceHook into a data::Windower"
  exit 1
fi

# Health and fleet verdicts judge recent windows, never lifetime aggregates:
# a lifetime p99 hides a fresh burst under old history and keeps an ended
# one tripping. Code in src/runtime/ and src/fleet/ reads windowed
# percentiles (Histogram::percentile_from_counts over a bucket delta, or the
# time-series ring); a Histogram::percentile( call there is a lifetime
# verdict coming back. The C API getters (src/capi/) only report values.
lifetime_offenders=$(git ls-files src/runtime src/fleet |
  grep -E '\.(cpp|h)$' |
  while read -r f; do
    if sed -e 's://.*$::' "$f" | grep -qE '\bpercentile\('; then
      echo "$f"
    fi
  done)
if [ -n "$lifetime_offenders" ]; then
  echo "repo_hygiene: lifetime histogram percentile( in verdict code:"
  echo "$lifetime_offenders"
  echo "repo_hygiene: judge a window (Histogram::percentile_from_counts)"
  exit 1
fi

echo "repo_hygiene: clean"
exit 0
