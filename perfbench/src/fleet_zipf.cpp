// fleet_zipf — fleet serving: 10k tenants with Zipf(0.99) traffic on one
// shared model.
//
// A closed loop of bursts. Each burst is 4,096 feature windows, generated
// before the burst's clock starts; then submit every window, drain, tick,
// and let the health monitor judge the registry. The service runs 16
// shards, 256-row batches and the float path. The per-tenant limit sits
// above the hottest tenant's per-burst share, so no window is refused and
// any refusal is a failure. The monitor's wall-clock signals are off, so
// its verdict is deterministic. No simulator code runs here.
#include "fixtures.h"
#include "workloads.h"

#include "fleet/service.h"
#include "fleet/workload.h"
#include "runtime/health.h"
#include "workloads/generator.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

using namespace kml;

constexpr std::uint64_t kTenants = 10'000;
constexpr double kTheta = 0.99;
constexpr int kBurst = 4096;
constexpr int kWarmupBursts = 64;  // admits the tenants before timing
// Bursts the reference host serves per wall second (4-vCPU Xeon VM);
// sizes the timed phase from --seconds.
constexpr double kBurstsPerWall = 590.0;
// Every 16th window's submit time is sampled: latency rises linearly
// through a burst, so the sample loses nothing and costs 1/16 the reads.
constexpr int kLatencySampleEvery = 16;

struct Serving {
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<runtime::HealthMonitor> monitor;
  std::unique_ptr<fleet::FleetService> service;
  std::unique_ptr<workloads::ZipfianTenantTraffic> traffic;
  std::unique_ptr<math::Rng> rng;
  int dim = 0;
  int classes = 0;
  // One burst of generated windows.
  std::vector<std::uint64_t> tenants;
  std::vector<double> features;
};

std::unique_ptr<Serving> build(const Options& options) {
  auto s = std::make_unique<Serving>();
  const fleet::FleetWorkloadConfig wc;
  s->engine = load_model_fixture(options.fixtures, kFleetModelFile,
                                 wc.feature_dim, wc.classes);
  if (s->engine == nullptr) return nullptr;
  s->dim = s->engine->num_features();
  s->classes = s->engine->num_classes();

  runtime::HealthConfig hc;
  hc.fleet_queue_depth_degrade = 1 << 14;  // backlog: deterministic
  hc.fleet_decision_p99_degrade_ns = 0;    // wall-clock signal: off
  s->monitor = std::make_unique<runtime::HealthMonitor>(hc);

  fleet::FleetConfig fc;
  fc.shards = 16;
  fc.max_tenants = static_cast<std::uint32_t>(kTenants);
  fc.queue_capacity = 1 << 15;
  fc.max_batch = 256;
  // The hottest tenant sends ~10% of a burst (~410 windows).
  fc.tenant_windows_per_tick = 1024;
  fc.overload_queue_depth = 1 << 14;
  fc.health = s->monitor.get();
  s->service = std::make_unique<fleet::FleetService>(*s->engine, fc);

  s->traffic = std::make_unique<workloads::ZipfianTenantTraffic>(
      kTenants, kTheta, options.seed);
  s->rng = std::make_unique<math::Rng>(options.seed ^ 0xf1ee7);
  s->tenants.resize(kBurst);
  s->features.resize(static_cast<std::size_t>(kBurst) * s->dim);
  return s;
}

void generate(Serving& s) {
  const double noise = fleet::FleetWorkloadConfig{}.noise;
  for (int i = 0; i < kBurst; ++i) {
    const std::uint64_t tenant = s.traffic->next();
    s.tenants[i] = tenant;
    fleet::make_window(&s.features[static_cast<std::size_t>(i) * s.dim],
                       s.dim, fleet::true_class_of(tenant, s.classes),
                       noise, *s.rng);
  }
}

// One burst, from wall time `start`: submit, drain, tick, judge. In a traced
// block each call is a span that starts where the previous one ended, so
// the spans tile the burst and the loop between submits is charged to the
// submit after it. Returns the drain's end time, or 0 when the burst left
// a backlog.
std::uint64_t serve(Serving& s, Tracer& tracer, std::uint64_t start,
                    std::vector<std::uint64_t>* submit_ns) {
  const bool traced = tracer.on();
  std::uint64_t mark = start;
  const auto lap = [&](SpanId id) {
    if (!traced) return;
    const std::uint64_t t = wall_ns();
    tracer.open(mark);
    tracer.close(id, t);
    mark = t;
  };
  for (int i = 0; i < kBurst; ++i) {
    if (submit_ns != nullptr && i % kLatencySampleEvery == 0) {
      submit_ns->push_back(traced ? mark : wall_ns());
    }
    s.service->submit(s.tenants[i],
                      &s.features[static_cast<std::size_t>(i) * s.dim],
                      s.dim);
    lap(kSpanSubmit);
  }
  s.service->drain(wall_ns());
  lap(kSpanDrain);
  const std::uint64_t drained = traced ? mark : wall_ns();
  s.service->tick(wall_ns());
  lap(kSpanFleetTick);
  s.monitor->observe_registry();
  lap(kSpanObserve);
  return s.service->backlog() == 0 ? drained : 0;
}

std::uint64_t refused(const fleet::FleetStats& st) {
  return st.rejected + st.rate_limited + st.queue_drops + st.orphan_windows +
         st.infer_dropped;
}

}  // namespace

void run_fleet_zipf(const Options& options, Result& result) {
  const int bursts =
      options.tiny ? 64
                   : static_cast<int>(std::max(
                         64.0, std::round(options.seconds * kBurstsPerWall)));
  Tracer tracer;
  // Set-up times, measured like the timed phase: probe points between
  // warm-up bursts, time scaled block by block.
  std::vector<double> setup_s;
  std::unique_ptr<Serving> s;
  for (int round = 0; round < kSetupRepeats; ++round) {
    s.reset();
    Blocks setup(tracer, false);
    setup.open(wall_ns());
    s = build(options);
    if (s == nullptr) return result.check(false, "fixtures load");
    for (int b = 0; b < kWarmupBursts; ++b) {
      generate(*s);
      serve(*s, tracer, wall_ns(), nullptr);
      setup.probe_point(wall_ns());
    }
    setup.close(wall_ns(), 0);
    setup_s.push_back(setup.scaled_seconds());
  }

  const fleet::FleetStats before = s->service->stats();
  const runtime::EngineStats engine_before = s->engine->stats();
  Blocks blocks(tracer, options.trace);
  std::vector<std::uint64_t> submit_ns;
  submit_ns.reserve(kBurst / kLatencySampleEvery);
  bool healthy = true;
  bool drained_all = true;
  for (int b = 0; b < bursts; ++b) {
    generate(*s);
    submit_ns.clear();
    const std::uint64_t decided = s->service->stats().decided;
    const std::uint64_t start = wall_ns();
    blocks.open(start);
    const std::uint64_t drained = serve(*s, tracer, start, &submit_ns);
    const std::uint64_t end = wall_ns();
    blocks.close(end, s->service->stats().decided - decided);
    for (std::uint64_t t : submit_ns) blocks.latency(drained - t, drained);
    blocks.probe_point(end);
    drained_all = drained_all && drained != 0;
    healthy = healthy &&
              s->monitor->state() == runtime::HealthState::kHealthy;
  }
  const fleet::FleetStats& after = s->service->stats();
  const runtime::EngineStats& engine_after = s->engine->stats();

  // Output checks: every window is accounted for, none was refused, the
  // service stayed healthy and every burst drained completely.
  result.check(after.submitted == after.decided + refused(after),
               "submitted = decided + refused + orphans + infer-dropped");
  result.check(drained_all, "every burst drains completely");
  result.check(healthy, "health monitor stays HEALTHY");
  const std::uint64_t submitted = after.submitted - before.submitted;
  const std::uint64_t failed = refused(after) - refused(before);
  result.attempted = submitted;
  result.failed = failed;
  result.check(failed == 0, "no window refused or dropped");

  // quality: share of served tenants whose last decision is their true
  // class.
  std::uint64_t served = 0;
  std::uint64_t right = 0;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    const int last = s->service->last_class(t);
    if (last < 0) continue;
    ++served;
    if (last == fleet::true_class_of(t, s->classes)) ++right;
  }
  result.check(served == s->service->tenants_served() && served > 0,
               "served tenants accounted");

  std::printf("fleet_zipf: %d bursts timed in %.2f s, %llu windows decided, "
              "%llu tenants served, %zu latency samples, host speed %.3f\n",
              bursts, static_cast<double>(blocks.wall_ns()) / 1e9,
              static_cast<unsigned long long>(after.decided - before.decided),
              static_cast<unsigned long long>(served),
              blocks.latency_samples(), blocks.speed());

  result.metric("setup_s", median(setup_s), "s");
  result.metric("ops_per_s", blocks.ops_per_s(), "1/s");
  result.metric("p50_us", blocks.latency_us(50), "us");
  result.metric("p99_us", blocks.latency_us(99), "us");
  result.metric("quality", ratio(right, served), "ratio");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const double wall = static_cast<double>(blocks.traced_wall_ns());
  const SpanStat& submit = tracer.stat(kSpanSubmit);
  const SpanStat& drain = tracer.stat(kSpanDrain);
  const double batches = static_cast<double>(after.batches - before.batches);
  result.metric("fleet.submit_share", ratio(submit.self_ns(), wall), "ratio");
  result.metric("fleet.drain_share", ratio(drain.self_ns(), wall), "ratio");
  result.metric("fleet.tick_share",
                ratio(tracer.stat(kSpanFleetTick).self_ns(), wall), "ratio");
  result.metric("runtime.health_share",
                ratio(tracer.stat(kSpanObserve).self_ns(), wall), "ratio");
  result.metric("fleet.submit_ns", ratio(submit.total_ns, submit.count),
                "ns");
  result.metric("fleet.drain_us", ns_to_us(ratio(drain.total_ns, drain.count)),
                "us");
  result.metric("fleet.rows_per_batch",
                ratio(after.decided - before.decided, batches), "1/batch");
  result.metric("fleet.refused_ratio",
                ratio(after.rejected + after.rate_limited + after.queue_drops +
                          after.infer_dropped -
                          (before.rejected + before.rate_limited +
                           before.queue_drops + before.infer_dropped),
                      submitted),
                "ratio");
  result.metric("runtime.infer_ns_per_row",
                ratio(engine_after.inference_ns_total -
                          engine_before.inference_ns_total,
                      engine_after.inferences - engine_before.inferences),
                "ns");
  report_trace_metrics(result, tracer, blocks);
}

}  // namespace perfbench
