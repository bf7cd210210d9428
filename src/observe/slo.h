// slo.h — per-stage latency SLOs with multiwindow burn-rate evaluation
// (kml::observe telemetry v3; see timeseries.h for the retention it reads).
//
// An objective says "at least `objective_milli`/1000 of a stage's records
// must land at or under `threshold_ns`". Burn rate is how fast the error
// budget (1000 - objective_milli) is being spent, as an integer
// milli-ratio: burn 1000 = spending exactly at budget, 14400 = the classic
// "2% of a 30-day budget in one hour" page-now rate. The evaluator uses the
// standard multiwindow AND: a short window (reacts fast, forgets fast) and
// a long window (confirms it is not a blip) must BOTH exceed their trip
// rates, and both must hold enough records to mean anything. All integer
// math — this layer sits under the same no-FPU contract as the registry.
//
// Consumers: the health guard's signal (k) polls slo_evaluate over every
// registered objective and degrades when enough burn simultaneously
// (its health.trip flight event first, preserving the causal chain);
// tools/tests read SloStatus directly. Registration is cold and bounded
// (kMaxSloObjectives, fixed storage, name copied in). With KML_OBSERVE=OFF
// everything is an inline no-op stub.
#pragma once

#include <cstdint>

#include "observe/metrics.h"

namespace kml::observe {

inline constexpr std::size_t kMaxSloObjectives = 8;

// One latency objective over a registry histogram. Defaults encode a
// p99.9-style objective with the SRE-book paging windows scaled to our
// 32-tick ring: fast = 4 ticks, slow = the whole ring.
struct SloObjective {
  // Registry histogram the objective watches (copied on registration).
  const char* hist_name = nullptr;
  // A record is "bad" when its bucket lies strictly above this (see
  // timeseries_hist_window_over for the bucket-resolution contract).
  std::uint64_t threshold_ns = 0;
  // Good-fraction target in milli (999 = 99.9%). Clamped to [0, 999] so the
  // error budget is always >= 1 milli and burn division is well-defined.
  std::uint32_t objective_milli = 999;
  // Burn windows, in time-series ticks (clamped to the ring).
  std::uint32_t fast_window_ticks = 4;
  std::uint32_t slow_window_ticks = 32;
  // Trip rates, milli: burn > trip in BOTH windows => burning. 14400 is the
  // SRE-book fast-page rate; 6000 its slow-window companion.
  std::uint64_t fast_burn_trip_milli = 14'400;
  std::uint64_t slow_burn_trip_milli = 6'000;
  // Minimum records per window before the verdict is trusted — burn math on
  // three records is noise, not signal.
  std::uint64_t min_window_records = 64;
};

// Evaluation result. `valid` means both windows met min_window_records;
// `burning` implies valid.
struct SloStatus {
  bool valid = false;
  bool burning = false;
  std::uint64_t fast_burn_milli = 0;
  std::uint64_t slow_burn_milli = 0;
  std::uint64_t fast_total = 0;
  std::uint64_t fast_bad = 0;
  std::uint64_t slow_total = 0;
  std::uint64_t slow_bad = 0;
};

#if KML_OBSERVE_ENABLED

// Register an objective; returns its index, or -1 when the table is full or
// hist_name is null/oversized. Objectives are process-lifetime (no
// unregister) — slo_reset() empties the table for tests.
int slo_register(const SloObjective& objective);

std::size_t slo_count();

// Registered objective by index (nullptr out of range). The returned
// hist_name points at the table's own copy.
const SloObjective* slo_objective(std::size_t idx);

// Evaluate objective `idx` over the time-series ring as of now. Windows
// clamp to the available samples; an empty ring or out-of-range index
// returns an all-zero (invalid) status.
SloStatus slo_evaluate(std::size_t idx);

// Empty the objective table (tests/benches).
void slo_reset();

#else  // !KML_OBSERVE_ENABLED

inline int slo_register(const SloObjective&) { return -1; }
inline std::size_t slo_count() { return 0; }
inline const SloObjective* slo_objective(std::size_t) { return nullptr; }
inline SloStatus slo_evaluate(std::size_t) { return SloStatus{}; }
inline void slo_reset() {}

#endif  // KML_OBSERVE_ENABLED

}  // namespace kml::observe
