// tool_metrics_dump — live view of the kml::observe metrics registry.
//
// Drives a bench_table2-style closed-loop run (page cache + tuner + engine
// inference) plus a short training-thread burst, then dumps the registry
// through the C API export — the same snapshot a kernel module's debugfs
// file would render. Every number printed was recorded on the instrumented
// hot seams while the run was live; nothing is recomputed afterwards.
//
// Usage: tool_metrics_dump [eval-seconds] [--json|--prom]
//
// --prom renders the registry in Prometheus text exposition format via
// kml_metrics_prom — the exact bytes a /metrics scrape endpoint would
// serve. The run also drives the time-series retention ring (one sample
// per virtual second of the closed loop), so the sampler's cost shows up
// in the dump like every other instrumented seam.
#include "bench_common.h"

#include "capi/kml_api.h"
#include "observe/metrics.h"
#include "portability/kml_lib.h"
#include "runtime/engine.h"
#include "runtime/training_thread.h"

#include <cstdio>
#include <cstring>
#include <vector>

namespace {

using namespace kml;

nn::Network make_readahead_shaped_net() {
  math::Rng rng(7);
  nn::Network net = nn::build_mlp_classifier(
      readahead::kNumSelectedFeatures, 16, workloads::kNumTrainingClasses,
      rng);
  std::vector<double> means(readahead::kNumSelectedFeatures, 10.0);
  std::vector<double> stds(readahead::kNumSelectedFeatures, 2.0);
  net.normalizer().import_moments(means, stds);
  return net;
}

void count_records(void* user, const data::TraceRecord*, std::size_t n) {
  *static_cast<std::uint64_t*>(user) += n;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t eval_seconds = 4;
  bool json = false;
  bool prom = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else {
      const std::uint64_t s = std::strtoull(argv[i], nullptr, 10);
      if (s > 0) eval_seconds = s;
    }
  }

  if (kml_metrics_enabled() == 0) {
    std::printf("kml::observe is compiled out (KML_OBSERVE=OFF) or "
                "disabled; nothing to dump\n");
    return 0;
  }

  // Closed loop: tuner windows, engine inference latency, page-cache
  // hit/miss, circular-buffer traffic. Scaled down from bench_table2 so the
  // tool answers in seconds.
  readahead::ExperimentConfig config;
  config.cache_pages = 8'192;
  config.num_keys = 200'000;

  runtime::Engine engine(make_readahead_shaped_net());
  runtime::HealthMonitor monitor;
  engine.attach_health(&monitor);
  const readahead::ReadaheadTuner::PredictFn predictor =
      readahead::make_engine_predictor(engine);

  readahead::TunerConfig tuner_config;
  tuner_config.health = &monitor;
  if (!json && !prom) {
    std::printf("running closed loop (%llu virtual seconds, readrandom)...\n",
                static_cast<unsigned long long>(eval_seconds));
  }
  kml_timeseries_sample(kml_now_ns());  // baseline tick before the run
  const readahead::EvalOutcome outcome = readahead::evaluate_closed_loop(
      config, workloads::WorkloadType::kReadRandom, predictor, tuner_config,
      eval_seconds);
  kml_timeseries_sample(kml_now_ns());  // the run's deltas become window 1

  // Training-thread burst: trainer batches/records, batch-latency spans,
  // heartbeat + registry-sourced drop-rate polling.
  {
    std::uint64_t seen = 0;
    runtime::TrainingThread trainer(1 << 12, 128, count_records, &seen);
    trainer.attach_health(&monitor);
    for (std::uint64_t i = 0; i < 20'000; ++i) {
      trainer.submit(data::TraceRecord{1, i, i, 0});
    }
  }

  if (prom) {
    // Two-call snprintf convention: probe the size, then render exactly.
    char probe[1];
    const size_t need = kml_metrics_prom(probe, sizeof(probe));
    std::vector<char> out(need + 1);
    kml_metrics_prom(out.data(), out.size());
    std::fputs(out.data(), stdout);
    std::printf("# timeseries samples: %llu\n",
                static_cast<unsigned long long>(kml_timeseries_samples()));
    return 0;
  }

  char buf[1 << 16];
  const size_t need = kml_metrics_export(buf, sizeof(buf), json ? 1 : 0);
  std::printf("%s\n", buf);
  if (need >= sizeof(buf)) {
    std::fprintf(stderr, "warning: export truncated (%zu bytes needed)\n",
                 need);
  }

  if (!json) {
    std::printf("closed-loop sanity: vanilla %.0f ops/s, kml %.0f ops/s, "
                "%llu tuner windows, %llu records dropped\n",
                outcome.vanilla_ops_per_sec, outcome.kml_ops_per_sec,
                static_cast<unsigned long long>(outcome.timeline.size()),
                static_cast<unsigned long long>(outcome.dropped_records));
    // SPSC-contract violations: pushes that reached a ShardedBuffer with an
    // unfolded shard id and were folded modulo the shard count. Any non-zero
    // value is a producer racing another producer on one ring — a latent
    // data-corruption bug, not a tuning knob (see data/sharded_buffer.h).
    const long long folded =
        kml_metrics_counter(observe::kMetricBufferFoldedPushes);
    std::printf("buffer folded pushes: %lld%s\n", folded < 0 ? 0 : folded,
                folded > 0 ? "  <-- SPSC contract broken, fix the producer"
                           : "");
    // Registrations silently refused because a pool filled up. Non-zero
    // means some metric above is missing data — raise kMaxCounters & co.
    // (Read through registry_overflow_count(): the export surfaces the same
    // number as the synthetic "observe.registry.overflow" counter row.)
    std::printf("registry overflow: %llu dropped registration(s)%s\n",
                static_cast<unsigned long long>(
                    observe::registry_overflow_count()),
                observe::registry_overflow_count() > 0
                    ? "  <-- pools too small, metrics were lost"
                    : "");
  }
  return 0;
}
