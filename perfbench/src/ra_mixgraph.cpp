// ra_mixgraph — the paper's Figure 1 loop on the Table 2 mixgraph cell.
//
// MiniKV (2M keys x 1 KiB, ~2 GiB) on the simulated NVMe stack with a
// 128 MiB page cache, so the data is 16x the cache. One closed-loop client
// issues Zipfian mixgraph ops (85% get / 11% put / 4% 50-entry scans); a
// ReadaheadTuner with the readahead-model fixture and the NVMe actuation
// table closes a window every virtual second. Set-up (fixture load, store
// build, warm-up with the tuner attached) ends at a window boundary; the
// timed phase is a fixed number of virtual seconds, so every count and the
// quality ratio repeat exactly for a seed. The untimed control arm replays
// the same seed and interval on vanilla readahead.
#include "fixtures.h"
#include "workloads.h"

#include "readahead/pipeline.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

using namespace kml;

// Virtual seconds the reference host simulates per wall second with the
// tuner attached (4-vCPU Xeon VM); sizes the timed phase from --seconds.
constexpr double kVirtualPerWall = 3.9;
// The client runs in batches of 1,024 ops; p50/p99 are batch latencies.
// About 3% of batches hold a window-closing tick, so p99 falls inside that
// group rather than on its edge.
constexpr std::uint64_t kBatchMask = 1023;

struct Sizes {
  readahead::ExperimentConfig experiment;  // NVMe, 2M keys, 128 MiB cache
  std::uint64_t warmup_s = 3;
  std::uint64_t timed_s = 0;
};

Sizes sizes_for(const Options& options) {
  Sizes s;
  s.timed_s = static_cast<std::uint64_t>(
      std::max(4.0, std::round(options.seconds * kVirtualPerWall)));
  if (options.tiny) {
    s.experiment.num_keys = 200'000;
    s.experiment.cache_pages = 3'277;  // keeps the 16x data:cache ratio
    s.warmup_s = 1;
    s.timed_s = 3;
  }
  return s;
}

workloads::WorkloadConfig mixgraph(std::uint64_t seed) {
  workloads::WorkloadConfig wc;
  wc.type = workloads::WorkloadType::kMixGraph;
  wc.seed = seed;
  return wc;
}

// One tuned store: fixtures, stack, MiniKV and the tuner on top.
struct TunedStore {
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<sim::StorageStack> stack;
  std::unique_ptr<kv::MiniKV> db;
  std::unique_ptr<readahead::ReadaheadTuner> tuner;
};

// Loads the fixtures and builds the store; nullptr engine on a bad fixture.
TunedStore build(const Options& options, const Sizes& sizes,
                 Tracer& tracer) {
  TunedStore store;
  readahead::TunerConfig tuner_config;
  // A compaction's page-cache traffic arrives inside one op; the ring holds
  // it whole, so no record is dropped.
  tuner_config.buffer_capacity = 1 << 20;
  store.engine = load_model_fixture(options.fixtures, kReadaheadModelFile,
                                    readahead::kNumSelectedFeatures,
                                    workloads::kNumTrainingClasses);
  if (store.engine == nullptr ||
      !load_ra_table(options.fixtures, &tuner_config.class_ra_kb)) {
    store.engine.reset();
    return store;
  }
  // The predictor, wrapped in a span: a child of its window-closing tick.
  readahead::BatchPredictFn infer =
      readahead::make_engine_batch_predictor(*store.engine);
  tuner_config.batch_predict = [infer, &tracer](
                                   const readahead::FeatureVector* rows,
                                   int count, int* classes) {
    Span span(tracer, kSpanInfer);
    infer(rows, count, classes);
  };
  store.stack = std::make_unique<sim::StorageStack>(
      readahead::make_stack_config(sizes.experiment));
  store.db = std::make_unique<kv::MiniKV>(
      *store.stack, readahead::make_kv_config(sizes.experiment));
  store.tuner = std::make_unique<readahead::ReadaheadTuner>(
      *store.stack, readahead::ReadaheadTuner::PredictFn{}, tuner_config);
  return store;
}

// Ops completed in virtual seconds [from, to) of an untuned run: the
// control arm, windowed by the tuner's own boundary rule.
std::uint64_t vanilla_ops(const Sizes& sizes, std::uint64_t seed) {
  sim::StorageStack stack(readahead::make_stack_config(sizes.experiment));
  kv::MiniKV db(stack, readahead::make_kv_config(sizes.experiment));
  std::uint64_t next = stack.clock().now_ns() + sim::kNsPerSec;
  std::uint64_t second = 0;
  std::uint64_t timed = 0;
  workloads::run_workload(
      db, mixgraph(seed),
      (sizes.warmup_s + sizes.timed_s) * sim::kNsPerSec, UINT64_MAX,
      [&](std::uint64_t now) {
        if (second >= sizes.warmup_s) ++timed;
        while (now >= next) {
          ++second;
          next += sim::kNsPerSec;
        }
      });
  return timed;
}

}  // namespace

void run_ra_mixgraph(const Options& options, Result& result) {
  const Sizes sizes = sizes_for(options);
  Tracer tracer;
  // Set-up times, measured like the timed phase: probe points in the
  // warm-up, time scaled block by block.
  std::vector<double> setup_s;

  // Set-up rounds that end at the warm-up boundary; the last round goes on
  // into the timed phase so its warm-up and timed ops are one workload.
  for (int round = 0; round + 1 < kSetupRepeats; ++round) {
    Blocks setup(tracer, false);
    setup.open(wall_ns());
    TunedStore store = build(options, sizes, tracer);
    if (store.engine == nullptr) return result.check(false, "fixtures load");
    std::uint64_t n = 0;
    workloads::run_workload(*store.db, mixgraph(options.seed),
                            sizes.warmup_s * sim::kNsPerSec, UINT64_MAX,
                            [&](std::uint64_t now) {
                              store.tuner->on_tick(now);
                              if ((++n & kBatchMask) == 0) {
                                setup.probe_point(wall_ns());
                              }
                            });
    setup.close(wall_ns(), 0);
    setup_s.push_back(setup.scaled_seconds());
  }

  Blocks setup(tracer, false);
  setup.open(wall_ns());
  TunedStore store = build(options, sizes, tracer);
  if (store.engine == nullptr) return result.check(false, "fixtures load");
  readahead::ReadaheadTuner& tuner = *store.tuner;

  Blocks blocks(tracer, options.trace);
  StackCounters before{};
  StackCounters after{};
  kv::KVStats kv_before{};
  kv::KVStats kv_after{};
  std::uint64_t ops = 0;
  std::uint64_t block_start_ops = 0;
  std::uint64_t timed_start_ops = 0;
  bool timed = false;
  bool done = false;

  const std::uint64_t last_window = sizes.warmup_s + sizes.timed_s;
  // Called at the end of a window-closing tick; returns the wall time the
  // loop resumes at.
  const auto on_window = [&](std::uint64_t t) -> std::uint64_t {
    const std::uint64_t windows = tuner.windows();
    if (!timed) {
      if (windows < sizes.warmup_s) return t;
      setup.close(t, 0);
      setup_s.push_back(setup.scaled_seconds());
      timed = true;
      before = StackCounters::take(*store.stack, *store.engine);
      kv_before = store.db->stats();
      timed_start_ops = block_start_ops = ops;
      blocks.open(t);
      return t;
    }
    if (done) return t;
    blocks.close(t, ops - block_start_ops);
    block_start_ops = ops;
    if (windows >= last_window) {
      after = StackCounters::take(*store.stack, *store.engine);
      kv_after = store.db->stats();
      done = true;
    } else {
      blocks.open(t);
    }
    return t;
  };

  workloads::run_workload(
      *store.db, mixgraph(options.seed), last_window * sim::kNsPerSec,
      UINT64_MAX, [&](std::uint64_t now) {
        ++ops;
        const bool batch_end =
            timed && !done && ((ops - timed_start_ops) & kBatchMask) == 0;
        std::uint64_t t = 0;
        const bool closed = tick_in_spans(tracer, tuner, now, batch_end, &t);
        if (!timed && !closed && (ops & kBatchMask) == 0) {
          setup.probe_point(wall_ns());
        }
        if (batch_end) t = blocks.batch(t);
        if (closed) t = on_window(t);
        if (tracer.on()) tracer.open(t);
      });

  const std::uint64_t timed_ops = blocks.ops();
  const std::uint64_t gets = kv_after.gets - kv_before.gets;
  const std::uint64_t failed_gets =
      gets - (kv_after.get_hits - kv_before.get_hits);
  result.attempted = timed_ops;
  result.failed = failed_gets;
  result.check(done && tuner.windows() == last_window,
               "one tuner window per virtual second");
  result.check(tuner.dropped_records() == 0, "no dropped trace records");
  result.check(failed_gets == 0, "every mixgraph get finds its key");
  result.check(timed_ops == ops - timed_start_ops, "timed op accounting");

  const std::uint64_t control_ops = vanilla_ops(sizes, options.seed);
  const double quality = ratio(static_cast<double>(timed_ops),
                               static_cast<double>(control_ops));
  result.check(quality > 0.0, "control arm completed ops");

  std::printf("ra_mixgraph: %llu virtual s timed in %.2f s (%zu blocks), "
              "%llu ops tuned vs %llu vanilla, %zu 1,024-op batches, host "
              "speed %.3f\n",
              static_cast<unsigned long long>(sizes.timed_s),
              static_cast<double>(blocks.wall_ns()) / 1e9, blocks.count(),
              static_cast<unsigned long long>(timed_ops),
              static_cast<unsigned long long>(control_ops),
              blocks.latency_samples(), blocks.speed());

  result.metric("setup_s", median(setup_s), "s");
  result.metric("ops_per_s", blocks.ops_per_s(), "1/s");
  result.metric("p50_us", blocks.latency_us(50), "us");
  result.metric("p99_us", blocks.latency_us(99), "us");
  result.metric("quality", quality, "ratio");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::uint64_t records = 0;
  std::uint64_t ra_changes = 0;
  const auto& timeline = tuner.timeline();
  for (std::size_t w = sizes.warmup_s; w < timeline.size(); ++w) {
    records += timeline[w].events;
    if (timeline[w].ra_kb != timeline[w - 1].ra_kb) ++ra_changes;
  }
  report_tuned_layers(result, "readahead", tracer, blocks, before, after,
                      timed_ops, records, tuner.dropped_records());
  result.metric("readahead.ra_changes", static_cast<double>(ra_changes),
                "count");
  result.metric("kv.bloom_fp_per_get",
                ratio(kv_after.bloom_false_positives -
                          kv_before.bloom_false_positives,
                      gets),
                "1/get");
  result.metric("kv.flushes",
                static_cast<double>(kv_after.flushes - kv_before.flushes),
                "count");
  result.metric("kv.compactions",
                static_cast<double>(kv_after.compactions -
                                    kv_before.compactions),
                "count");
}

}  // namespace perfbench
