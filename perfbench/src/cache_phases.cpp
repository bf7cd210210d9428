// cache_phases — the eviction case study.
//
// A 64 MiB (16,384-page) page cache over a 1 GiB file, driven by one
// closed-loop client through the phase schedule 2 x (shifting, scanmix) +
// zipfhot after a short zipfhot warm-up. The working sets (12,000 and
// 15,500 pages) straddle the cache size, so no static reclaim policy wins
// every phase. A CacheTuner with the eviction-model fixture switches the
// policy once per virtual second. The schedule is fixed in virtual time,
// so the hit rate (quality) and every count repeat exactly for a seed.
#include "fixtures.h"
#include "workloads.h"

#include "eviction/tuner.h"
#include "eviction/workload.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

using namespace kml;

// Virtual seconds the reference host simulates per wall second with the
// tuner attached (4-vCPU Xeon VM); sizes the schedule from --seconds.
constexpr double kVirtualPerWall = 12.0;
constexpr std::uint64_t kWarmupSeconds = 2;
constexpr int kScheduleRepeats = 2;  // 2 x (shifting, scanmix) + zipfhot
constexpr int kPhases = 2 * kScheduleRepeats + 1;
// The client runs in batches of 4,096 ops; p50/p99 are batch latencies.
// About 2.5% of batches hold a window-closing tick, so p99 falls inside
// that group rather than on its edge.
constexpr std::uint64_t kBatchMask = 4095;

struct Tuned {
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<sim::StorageStack> stack;
  std::unique_ptr<eviction::PhaseDriver> driver;
  std::unique_ptr<eviction::CacheTuner> tuner;
};

// Loads the fixture and builds the tuned cache; nullptr on a bad fixture.
std::unique_ptr<Tuned> build(const Options& options, Tracer& tracer) {
  auto t = std::make_unique<Tuned>();
  t->engine = load_model_fixture(options.fixtures, kCacheModelFile,
                                 eviction::kNumCacheFeatures,
                                 eviction::kNumCachePhases);
  if (t->engine == nullptr) return nullptr;
  sim::StackConfig stack_config;
  stack_config.cache_pages = options.tiny ? 4096 : 16384;
  eviction::PhaseWorkloadConfig wc;
  wc.file_pages = options.tiny ? 1u << 16 : 1u << 18;
  wc.window_pages = options.tiny ? 3'000 : 12'000;
  wc.hot_pages = options.tiny ? 3'875 : 15'500;
  wc.cpu_ns_per_op = 4'000;
  wc.seed = options.seed;
  t->stack = std::make_unique<sim::StorageStack>(stack_config);
  t->driver = std::make_unique<eviction::PhaseDriver>(*t->stack, wc);

  eviction::CacheTunerConfig tuner_config;
  eviction::CacheBatchPredictFn infer =
      eviction::make_cache_engine_batch_predictor(*t->engine);
  tuner_config.batch_predict = [infer, &tracer](
                                   const eviction::CacheFeatureVector* rows,
                                   int count, int* classes) {
    Span span(tracer, kSpanInfer);
    infer(rows, count, classes);
  };
  t->tuner = std::make_unique<eviction::CacheTuner>(
      *t->stack, eviction::CacheTuner::PredictFn{}, tuner_config);
  return t;
}

}  // namespace

void run_cache_phases(const Options& options, Result& result) {
  const std::uint64_t per_phase =
      options.tiny ? 1
                   : static_cast<std::uint64_t>(std::max(
                         2.0, std::round(options.seconds * kVirtualPerWall /
                                         kPhases)));
  const std::vector<eviction::PhaseSegment> schedule =
      eviction::default_phase_schedule(per_phase, kScheduleRepeats);
  const std::uint64_t timed_windows = per_phase * kPhases;
  Tracer tracer;
  // Set-up times, measured like the timed phase: probe points in the
  // warm-up, time scaled block by block.
  std::vector<double> setup_s;

  std::unique_ptr<Tuned> t;
  for (int round = 0; round < kSetupRepeats; ++round) {
    t.reset();
    Blocks setup(tracer, false);
    setup.open(wall_ns());
    t = build(options, tracer);
    if (t == nullptr) return result.check(false, "fixtures load");
    eviction::CacheTuner& tuner = *t->tuner;
    std::uint64_t n = 0;
    t->driver->run_phase(eviction::CachePhase::kZipfHot,
                         kWarmupSeconds * sim::kNsPerSec,
                         [&](std::uint64_t now) {
                           tuner.on_tick(now);
                           if ((++n & kBatchMask) == 0) {
                             setup.probe_point(wall_ns());
                           }
                         });
    setup.close(wall_ns(), 0);
    setup_s.push_back(setup.scaled_seconds());
  }
  eviction::CacheTuner& tuner = *t->tuner;
  result.check(tuner.windows() == kWarmupSeconds, "warm-up windows");

  Blocks blocks(tracer, options.trace);
  const StackCounters before = StackCounters::take(*t->stack, *t->engine);
  StackCounters after{};
  bool done = false;
  std::uint64_t ops = 0;
  std::uint64_t block_start_ops = 0;
  const std::uint64_t last_window = kWarmupSeconds + timed_windows;

  blocks.open(wall_ns());
  // The timed phase ends at the last window boundary; the schedule's last
  // few ops past it (segments end on an op, not on the boundary) are not
  // timed.
  const auto on_tick = [&](std::uint64_t now) {
    if (done) return tuner.on_tick(now);
    ++ops;
    const bool batch_end = (ops & kBatchMask) == 0;
    std::uint64_t w = 0;
    const bool closed = tick_in_spans(tracer, tuner, now, batch_end, &w);
    if (batch_end) w = blocks.batch(w);
    if (closed) {
      blocks.close(w, ops - block_start_ops);
      block_start_ops = ops;
      if (tuner.windows() < last_window) {
        blocks.open(w);
      } else {
        after = StackCounters::take(*t->stack, *t->engine);
        done = true;
      }
    }
    if (tracer.on()) tracer.open(w);
  };
  t->driver->run_schedule(schedule, on_tick);

  const std::uint64_t hits = after.cache.hits - before.cache.hits;
  const std::uint64_t accesses =
      hits + after.cache.misses - before.cache.misses;
  result.attempted = ops;
  result.failed = 0;  // a cached read cannot fail; checks cover the loop
  result.check(done && tuner.windows() == last_window,
               "one tuner window per virtual second");
  result.check(blocks.ops() == ops, "every timed op falls in a block");
  result.check(tuner.dropped_records() == 0, "no dropped trace records");
  result.check(accesses > 0, "the schedule issued reads");

  std::printf("cache_phases: %llu virtual s per phase timed in %.2f s, %llu "
              "ops, %zu 4,096-op batches, host speed %.3f\n",
              static_cast<unsigned long long>(per_phase),
              static_cast<double>(blocks.wall_ns()) / 1e9,
              static_cast<unsigned long long>(ops), blocks.latency_samples(),
              blocks.speed());

  result.metric("setup_s", median(setup_s), "s");
  result.metric("ops_per_s", blocks.ops_per_s(), "1/s");
  result.metric("p50_us", blocks.latency_us(50), "us");
  result.metric("p99_us", blocks.latency_us(99), "us");
  result.metric("quality", ratio(hits, accesses), "ratio");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::uint64_t records = 0;
  const auto& timeline = tuner.timeline();
  for (std::size_t w = kWarmupSeconds; w < last_window; ++w) {
    records += timeline[w].events;
  }
  report_tuned_layers(result, "eviction", tracer, blocks, before, after, ops,
                      records, tuner.dropped_records());
}

}  // namespace perfbench
