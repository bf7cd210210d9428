// workloads.h — the four perfbench workloads. Each runs set-up, the timed
// phase and its output checks, and records its metrics into `result`:
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
#pragma once

#include "harness.h"

#include "runtime/engine.h"
#include "sim/stack.h"

namespace perfbench {

void run_ra_mixgraph(const Options& options, Result& result);
void run_cache_phases(const Options& options, Result& result);
void run_fleet_zipf(const Options& options, Result& result);
void run_kv_durable(const Options& options, Result& result);

// Set-up is repeated this many times per run and setup_s is the median, so
// one slow set-up does not move the metric.
inline constexpr int kSetupRepeats = 3;

// Counters of a simulated stack and its tuner's engine at one instant; the
// two tuned workloads report per-layer metrics from their deltas over the
// timed phase.
struct StackCounters {
  kml::sim::PageCacheStats cache;
  kml::sim::DeviceStats device;
  std::uint64_t trace_events = 0;
  kml::runtime::EngineStats engine;

  static StackCounters take(kml::sim::StorageStack& stack,
                            const kml::runtime::Engine& engine);
};

// The per-layer metrics both tuned workloads report: workloads.*, sim.*,
// data.*, runtime.infer_*, `<tuner>.tuner_share`, `.ms_per_sim_s` and
// `.window_close_us`, and the trace metrics. `records` and `dropped` are
// the collection ring's deliveries and drops over the timed phase.
void report_tuned_layers(Result& result, const char* tuner,
                         const Tracer& tracer, const Blocks& blocks,
                         const StackCounters& before,
                         const StackCounters& after, std::uint64_t ops,
                         std::uint64_t records, std::uint64_t dropped);

}  // namespace perfbench
