// fleet_test.cpp — tiny-scale fleet serving: admission, coalescing,
// rate limiting, shedding, per-tenant adaptation, and the health guard's
// fleet-collapse signal. 64 tenants, deterministic seeds, fast enough for
// tier-1 (the 1k/10k-tenant runs live in bench_fleet).
#include "fleet/service.h"
#include "fleet/workload.h"
#include "observe/flight_recorder.h"
#include "observe/metrics.h"
#include "observe/slo.h"
#include "observe/timeseries.h"
#include "portability/kml_lib.h"
#include "runtime/engine.h"
#include "runtime/health.h"
#include "workloads/generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace kml;

constexpr std::uint64_t kSeed = 42;

runtime::Engine make_engine() {
  fleet::FleetWorkloadConfig wc;
  runtime::Engine engine(
      fleet::train_fleet_model(wc, kSeed, /*samples=*/512, /*epochs=*/20));
  engine.set_mode(runtime::Mode::kInference);
  return engine;
}

// Submit one well-formed window for `tenant` whose true class matches the
// workload's ground truth.
fleet::SubmitResult submit_window(fleet::FleetService& service,
                                  runtime::Engine& engine,
                                  std::uint64_t tenant, math::Rng& rng) {
  fleet::FleetWorkloadConfig wc;
  double f[fleet::kMaxFleetFeatures] = {};
  fleet::make_window(f, engine.num_features(),
                     fleet::true_class_of(tenant, engine.num_classes()),
                     wc.noise, rng);
  return service.submit(tenant, f, engine.num_features());
}

TEST(FleetService, ShardOfIsStableAndInRange) {
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.shards = 8;
  fleet::FleetService service(engine, fc);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    const unsigned s = service.shard_of(t);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, service.shard_of(t));  // deterministic
  }
  // The fold spreads a dense id range: no shard owns everything.
  std::vector<int> per_shard(8, 0);
  for (std::uint64_t t = 0; t < 1000; ++t) ++per_shard[service.shard_of(t)];
  for (int c : per_shard) EXPECT_GT(c, 0);
}

TEST(FleetService, AdmitsCoalescesAndDecides) {
  observe::reset_all();
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.shards = 4;
  fc.max_batch = 16;
  fc.tenant_windows_per_tick = 8;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  for (std::uint64_t t = 0; t < 64; ++t) {
    EXPECT_EQ(submit_window(service, engine, t, rng),
              fleet::SubmitResult::kQueued);
  }
  EXPECT_EQ(service.active_tenants(), 64u);
  EXPECT_EQ(service.stats().admitted, 64u);

  const std::size_t decided = service.drain(kml_now_ns());
  EXPECT_EQ(decided, 64u);
  EXPECT_EQ(service.tenants_served(), 64u);
  EXPECT_EQ(service.backlog(), 0u);
  // 64 windows over 4 shards with max_batch 16: the drain must coalesce —
  // far fewer engine calls than windows.
  EXPECT_LE(service.stats().batches, 8u);
  // The shared model classifies the synthetic windows near-perfectly.
  int correct = 0;
  for (std::uint64_t t = 0; t < 64; ++t) {
    if (service.last_class(t) ==
        fleet::true_class_of(t, engine.num_classes())) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 60);
  // No submit ever bypassed the pre-folded shard contract.
  EXPECT_EQ(service.folded_pushes(), 0u);
}

TEST(FleetService, RateLimitsPerTenantAndRefillsOnTick) {
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.tenant_windows_per_tick = 4;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(submit_window(service, engine, 7, rng),
              fleet::SubmitResult::kQueued);
  }
  EXPECT_EQ(submit_window(service, engine, 7, rng),
            fleet::SubmitResult::kRateLimited);
  EXPECT_EQ(service.stats().rate_limited, 1u);
  // Another tenant still has its own bucket.
  EXPECT_EQ(submit_window(service, engine, 8, rng),
            fleet::SubmitResult::kQueued);

  service.drain(kml_now_ns());
  service.tick(kml_now_ns());
  EXPECT_EQ(submit_window(service, engine, 7, rng),
            fleet::SubmitResult::kQueued);
}

TEST(FleetService, AdmissionCapRejectsTenantBeyondMax) {
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.max_tenants = 8;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(submit_window(service, engine, t, rng),
              fleet::SubmitResult::kQueued);
  }
  EXPECT_EQ(submit_window(service, engine, 99, rng),
            fleet::SubmitResult::kRejected);
  EXPECT_EQ(service.active_tenants(), 8u);
  EXPECT_GE(service.stats().rejected, 1u);
}

TEST(FleetService, OverloadShedsLowestTrafficTenantsFirst) {
  observe::reset_all();
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.shards = 4;
  fc.queue_capacity = 1 << 10;
  fc.tenant_windows_per_tick = 0;  // no rate limit: let the backlog build
  fc.overload_queue_depth = 32;
  fc.shed_batch = 16;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  // Skewed traffic: tenants 0-7 are hot (16 windows each), 8-63 cold (1).
  for (std::uint64_t t = 0; t < 8; ++t) {
    for (int i = 0; i < 16; ++i) submit_window(service, engine, t, rng);
  }
  for (std::uint64_t t = 8; t < 64; ++t) submit_window(service, engine, t, rng);
  service.drain(kml_now_ns());  // every tenant now has a traffic history

  // Rebuild a deep backlog and tick WITHOUT draining: overload control must
  // latch admissions closed and shed exactly shed_batch tenants, all from
  // the cold tail.
  for (std::uint64_t t = 0; t < 8; ++t) {
    for (int i = 0; i < 16; ++i) submit_window(service, engine, t, rng);
  }
  ASSERT_GT(service.backlog(), fc.overload_queue_depth);
  service.tick(kml_now_ns());
  EXPECT_FALSE(service.admissions_open());
  EXPECT_EQ(service.stats().shed, 16u);
  EXPECT_EQ(service.active_tenants(), 48u);
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_NE(service.last_class(t), -1) << "hot tenant " << t << " shed";
  }
  // A shed tenant's submit is rejected while the latch holds (tenant 8 is
  // in the cold tail the shed targeted); a surviving tenant still queues.
  EXPECT_EQ(service.stats().rejected, 0u);
  EXPECT_EQ(submit_window(service, engine, 8, rng),
            fleet::SubmitResult::kRejected);
  EXPECT_EQ(submit_window(service, engine, 0, rng),
            fleet::SubmitResult::kQueued);

  // Draining the backlog reopens admissions on the next tick, and the shed
  // tenant re-admits itself.
  service.drain(kml_now_ns());
  service.tick(kml_now_ns());
  EXPECT_TRUE(service.admissions_open());
  EXPECT_EQ(submit_window(service, engine, 8, rng),
            fleet::SubmitResult::kQueued);
}

TEST(FleetService, TenantTableStaysBoundedUnderShedChurn) {
  // Regression: shed tenants used to stay in the table forever (inactive,
  // bias retained), so overload cycles with fresh tenant ids grew the map
  // without bound — contradicting the max_tenants contract. Now a new
  // admission into a full table evicts the lowest-traffic shed entry.
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.max_tenants = 16;
  fc.tenant_windows_per_tick = 0;  // no rate limit: let the backlog build
  fc.overload_queue_depth = 4;
  fc.shed_batch = 8;
  fc.queue_capacity = 1 << 10;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  std::uint64_t next_tenant = 0;
  for (int round = 0; round < 12; ++round) {
    // Fill the active cap with fresh ids; their queued windows already
    // exceed the overload threshold, so the tick sheds half the fleet.
    while (service.active_tenants() < fc.max_tenants) {
      submit_window(service, engine, next_tenant++, rng);
    }
    ASSERT_GT(service.backlog(), fc.overload_queue_depth);
    service.tick(kml_now_ns());
    EXPECT_EQ(service.active_tenants(), fc.max_tenants - fc.shed_batch);
    // Clear the backlog so the next tick reopens admissions.
    service.drain(kml_now_ns());
    service.tick(kml_now_ns());
    ASSERT_TRUE(service.admissions_open());
    EXPECT_LE(service.tenant_table_size(), fc.max_tenants);
  }
  // ~100 unique tenants churned through a 16-slot table: the bound held
  // only because shed entries were evicted to make room.
  EXPECT_GT(next_tenant, 3 * static_cast<std::uint64_t>(fc.max_tenants));
  EXPECT_LE(service.tenant_table_size(), fc.max_tenants);
  EXPECT_GT(service.stats().bias_evicted, 0u);
}

TEST(FleetService, PerTenantBiasFlipsADivergentTenant) {
  runtime::Engine engine = make_engine();
  fleet::FleetConfig fc;
  fc.bias_lr = 0.5;
  fc.bias_max = 8.0;
  fc.tenant_windows_per_tick = 0;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);
  fleet::FleetWorkloadConfig wc;

  // A divergent tenant: its windows look like class `shared` to the model,
  // but its observed outcome is a different class — only the per-tenant
  // output bias can close that gap without touching the shared weights.
  const std::uint64_t tenant = 3;
  const int shared = fleet::true_class_of(tenant, engine.num_classes());
  const int observed = (shared + 1) % engine.num_classes();

  int flipped_at = -1;
  for (int round = 0; round < 32; ++round) {
    double f[fleet::kMaxFleetFeatures] = {};
    fleet::make_window(f, engine.num_features(), shared, wc.noise, rng);
    ASSERT_EQ(service.submit(tenant, f, engine.num_features()),
              fleet::SubmitResult::kQueued);
    ASSERT_EQ(service.drain(kml_now_ns()), 1u);
    if (service.last_class(tenant) == observed) {
      flipped_at = round;
      break;
    }
    service.record_outcome(tenant, observed);
  }
  EXPECT_GE(flipped_at, 1) << "bias never flipped the decision";
  EXPECT_GT(service.stats().biased_flips, 0u);

  // Another tenant with the same feature pattern is untouched — the
  // adaptation is per-tenant, not global.
  double f[fleet::kMaxFleetFeatures] = {};
  fleet::make_window(f, engine.num_features(), shared, wc.noise, rng);
  ASSERT_EQ(service.submit(77, f, engine.num_features()),
            fleet::SubmitResult::kQueued);
  service.drain(kml_now_ns());
  EXPECT_EQ(service.last_class(77), shared);
}

TEST(FleetService, HealthFleetSignalTripsOnQueueCollapse) {
  observe::reset_all();
  runtime::Engine engine = make_engine();

  runtime::HealthConfig hc;
  hc.fleet_queue_depth_degrade = 16;
  runtime::HealthMonitor monitor(hc);

  fleet::FleetConfig fc;
  fc.tenant_windows_per_tick = 0;
  fc.overload_queue_depth = 1 << 20;  // service-side control out of the way
  fc.health = &monitor;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  // Decide some windows so "fleet.windows" advances (the signal is gated on
  // progress), then build a backlog deeper than the threshold and publish.
  for (std::uint64_t t = 0; t < 8; ++t) submit_window(service, engine, t, rng);
  service.drain(kml_now_ns());
  for (int i = 0; i < 64; ++i) submit_window(service, engine, 1, rng);
  service.tick(kml_now_ns());  // publishes fleet.queue_depth = 64

  monitor.observe_registry();  // primes baselines
  // Advance the windows counter, keep the backlog deep, poll again.
  for (std::uint64_t t = 0; t < 8; ++t) submit_window(service, engine, t, rng);
  service.drain(kml_now_ns());
  for (int i = 0; i < 64; ++i) submit_window(service, engine, 1, rng);
  service.tick(kml_now_ns());
  monitor.observe_registry();

  EXPECT_EQ(monitor.state(), runtime::HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().fleet_trips, 1u);

  // The service reacts to the verdict on its next tick: admissions close
  // and lowest-traffic tenants are shed.
  service.tick(kml_now_ns());
  EXPECT_FALSE(service.admissions_open());
  EXPECT_GT(service.stats().shed, 0u);
}

#if KML_OBSERVE_ENABLED

TEST(FleetService, SloBurnTripsHealthGuardWithFlightChain) {
  // End-to-end continuous-telemetry chain, deterministic: fleet stage
  // histograms -> time-series windows -> SLO burn evaluation -> health
  // signal (k) -> health.trip + health.transition in the flight dump.
  observe::reset_all();
  observe::timeseries_reset();
  observe::slo_reset();
  observe::flight_thaw();
  observe::flight_reset();
  observe::flight_set_enabled(true);
  constexpr std::uint64_t kSec = 1'000'000'000ull;

  runtime::Engine engine = make_engine();
  runtime::HealthConfig hc;
  hc.slo_burning_to_degrade = 1;
  hc.flight_dump_prefix = "fleet_slo_burn_flight";
  runtime::HealthMonitor monitor(hc);

  // Objective on the queue-wait stage: anything older than ~1 us is a bad
  // event. The spin below guarantees every window in this test waits far
  // longer, so each tick burns at 100% — both windows trip together.
  observe::SloObjective obj;
  obj.hist_name = observe::kMetricFleetStageQueueWaitNs;
  obj.threshold_ns = 1024;
  obj.objective_milli = 990;
  obj.fast_window_ticks = 1;
  obj.slow_window_ticks = 2;
  obj.fast_burn_trip_milli = 1000;
  obj.slow_burn_trip_milli = 1000;
  obj.min_window_records = 8;
  ASSERT_GE(observe::slo_register(obj), 0);

  fleet::FleetConfig fc;
  fc.health = &monitor;
  // Every window must land a queue-wait record (min_window_records = 8 out
  // of 16 per tick), so disable the 1-in-2^shift stage sampling.
  fc.stage_sample_shift = 0;
  fleet::FleetService service(engine, fc);
  math::Rng rng(kSeed);

  // One overloaded tick: submit, let the queue age past the threshold,
  // drain (records the stage histograms), then retain the tick. The sample
  // clock is virtual — only window membership matters here, not rates.
  const auto burn_tick = [&](std::uint64_t sample_ns) {
    for (std::uint64_t t = 0; t < 16; ++t) {
      ASSERT_EQ(submit_window(service, engine, t, rng),
                fleet::SubmitResult::kQueued);
    }
    const std::uint64_t start = kml_now_ns();
    while (kml_now_ns() - start < 4'000) {
    }
    ASSERT_EQ(service.drain(kml_now_ns()), 16u);
    observe::timeseries_sample(sample_ns);
  };

  burn_tick(1 * kSec);
  burn_tick(2 * kSec);
  monitor.observe_registry();  // primes baselines; never judges
  EXPECT_EQ(monitor.state(), runtime::HealthState::kHealthy);

  burn_tick(3 * kSec);  // sampler advanced: the next poll judges the burn
  monitor.observe_registry();

  EXPECT_EQ(monitor.state(), runtime::HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().slo_trips, 1u);

  // DEGRADED froze and dumped the flight ring; the causal chain — the burn
  // event, then the transition it caused — must be legible in the dump.
  std::ifstream txt("fleet_slo_burn_flight.txt");
  ASSERT_TRUE(txt.good());
  std::stringstream ss;
  ss << txt.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("health.trip"), std::string::npos);
  EXPECT_NE(dump.find("health.transition"), std::string::npos);
  std::remove("fleet_slo_burn_flight.txt");
  std::remove("fleet_slo_burn_flight.bin");

  // Leave the recorder recording for whatever test runs next.
  observe::flight_thaw();
  observe::slo_reset();
  observe::timeseries_reset();
}

#endif  // KML_OBSERVE_ENABLED

TEST(FleetService, RejectsModelWiderThanWindowFormat) {
  math::Rng rng(kSeed);
  nn::Network wide = nn::build_mlp_classifier(
      fleet::kMaxFleetFeatures + 1, 4, 2, rng);
  runtime::Engine engine(std::move(wide));
  engine.set_mode(runtime::Mode::kInference);
  fleet::FleetConfig fc;
  fleet::FleetService service(engine, fc);
  double f[fleet::kMaxFleetFeatures + 1] = {};
  EXPECT_EQ(service.submit(1, f, fleet::kMaxFleetFeatures + 1),
            fleet::SubmitResult::kRejected);
  EXPECT_EQ(service.drain(kml_now_ns()), 0u);
}

}  // namespace
