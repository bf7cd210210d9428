// Tests for the health-guard runtime (src/runtime/health): the monitor's
// state machine, the engine's validated train steps + checkpoint/rollback,
// and graceful degradation of the readahead tuners to vanilla readahead.
#include "kv/minikv.h"
#include "observe/flight_recorder.h"
#include "observe/metrics.h"
#include "observe/slo.h"
#include "observe/timeseries.h"
#include "portability/thread.h"
#include "readahead/file_tuner.h"
#include "readahead/pipeline.h"
#include "readahead/tuner.h"
#include "runtime/engine.h"
#include "runtime/health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

namespace kml::runtime {
namespace {

// Single-row classification through the engine's one inference entry.
int classify(Engine& engine, const double* features, int n) {
  int cls = -1;
  engine.infer_batch_scores(features, n, 1, nullptr, &cls);
  return cls;
}

HealthConfig fast_config() {
  HealthConfig config;
  config.warmup_steps = 4;
  config.strikes_to_degrade = 2;
  config.strikes_to_fail = 4;
  config.clean_steps_to_recover = 3;
  config.drop_window_min_records = 10;
  return config;
}

TEST(HealthMonitor, StartsHealthy) {
  HealthMonitor monitor;
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_TRUE(monitor.healthy());
}

TEST(HealthMonitor, StateNamesAreStable) {
  EXPECT_STREQ(health_state_name(HealthState::kHealthy), "HEALTHY");
  EXPECT_STREQ(health_state_name(HealthState::kDegraded), "DEGRADED");
  EXPECT_STREQ(health_state_name(HealthState::kFailed), "FAILED");
}

TEST(HealthMonitor, NonFiniteLossFailsImmediately) {
  HealthMonitor monitor(fast_config());
  monitor.observe_train_step(std::numeric_limits<double>::quiet_NaN(), false);
  EXPECT_EQ(monitor.state(), HealthState::kFailed);
  EXPECT_EQ(monitor.stats().non_finite_events, 1u);
  EXPECT_EQ(monitor.stats().failures, 1u);
}

TEST(HealthMonitor, DivergenceStrikesDegradeThenFail) {
  HealthMonitor monitor(fast_config());
  // Establish a baseline around loss = 1.0.
  for (int i = 0; i < 8; ++i) monitor.observe_train_step(1.0, true);
  ASSERT_EQ(monitor.state(), HealthState::kHealthy);

  monitor.observe_train_step(50.0, true);  // strike 1
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  monitor.observe_train_step(50.0, true);  // strike 2 -> DEGRADED
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  monitor.observe_train_step(50.0, true);  // strike 3
  monitor.observe_train_step(50.0, true);  // strike 4 -> FAILED
  EXPECT_EQ(monitor.state(), HealthState::kFailed);
  EXPECT_EQ(monitor.stats().divergence_strikes, 4u);
}

TEST(HealthMonitor, DivergentLossDoesNotPolluteTheBaseline) {
  HealthMonitor monitor(fast_config());
  for (int i = 0; i < 8; ++i) monitor.observe_train_step(1.0, true);
  const double baseline = monitor.stats().loss_ewma;
  monitor.observe_train_step(1000.0, true);  // strike; EWMA must not absorb
  EXPECT_DOUBLE_EQ(monitor.stats().loss_ewma, baseline);
}

TEST(HealthMonitor, CleanStreakRecoversFromDegraded) {
  HealthMonitor monitor(fast_config());
  for (int i = 0; i < 8; ++i) monitor.observe_train_step(1.0, true);
  monitor.observe_train_step(50.0, true);
  monitor.observe_train_step(50.0, true);
  ASSERT_EQ(monitor.state(), HealthState::kDegraded);

  // clean_steps_to_recover = 3 consecutive sane steps.
  monitor.observe_train_step(1.0, true);
  monitor.observe_train_step(1.0, true);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  monitor.observe_train_step(1.0, true);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().recoveries, 1u);
}

TEST(HealthMonitor, FailedDoesNotRecoverWithoutRollback) {
  HealthMonitor monitor(fast_config());
  monitor.observe_train_step(std::numeric_limits<double>::infinity(), false);
  ASSERT_EQ(monitor.state(), HealthState::kFailed);
  for (int i = 0; i < 50; ++i) monitor.observe_train_step(1.0, true);
  EXPECT_EQ(monitor.state(), HealthState::kFailed);

  // Rollback opens the door: FAILED -> DEGRADED, then a clean streak heals.
  monitor.notify_rollback();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  for (int i = 0; i < 10; ++i) monitor.observe_train_step(1.0, true);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().rollbacks_seen, 1u);
}

TEST(HealthMonitor, WatchdogNeverTripsBeforeFirstHeartbeat) {
  HealthMonitor monitor(fast_config());
  EXPECT_FALSE(monitor.check_watchdog(1'000'000'000'000ull));
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

TEST(HealthMonitor, WatchdogTripsOnStalledTrainer) {
  HealthConfig config = fast_config();
  config.heartbeat_timeout_ns = 1000;
  HealthMonitor monitor(config);
  monitor.heartbeat(10'000);
  EXPECT_FALSE(monitor.check_watchdog(10'500));  // within budget
  EXPECT_TRUE(monitor.check_watchdog(12'000));   // stalled
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().watchdog_timeouts, 1u);

  // A resumed heartbeat plus a clean streak recovers.
  monitor.heartbeat(12'500);
  EXPECT_FALSE(monitor.check_watchdog(13'000));
  for (int i = 0; i < 8; ++i) monitor.observe_train_step(1.0, true);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

TEST(HealthMonitor, DropRateTripDegrades) {
  HealthMonitor monitor(fast_config());  // threshold 0.5, window >= 10
  monitor.observe_buffer(100, 0);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  // Next delta window: 100 more submissions, 80 dropped.
  monitor.observe_buffer(200, 80);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().drop_rate_trips, 1u);
}

TEST(HealthMonitor, SmallDropWindowsAreNotJudged) {
  HealthMonitor monitor(fast_config());  // drop_window_min_records = 10
  monitor.observe_buffer(4, 4);  // 100% drop rate but only 4 records
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

#if KML_OBSERVE_ENABLED

// Registry-sourced signals: the monitor pulls drop-rate and inference-p99
// straight from the global metrics registry instead of being hand-fed.
// These tests drive the same counters/histograms the instrumented code
// bumps; deltas-based judging makes them robust to whatever other tests in
// this process contributed before the priming call.
TEST(HealthMonitor, RegistryDropRateTripDegrades) {
  observe::Counter& push =
      observe::get_counter(observe::kMetricBufferPush);
  observe::Counter& drop =
      observe::get_counter(observe::kMetricBufferDrop);
  HealthMonitor monitor(fast_config());  // threshold 0.5, window >= 10
  monitor.observe_registry();            // primes baselines
  push.add(100);
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  push.add(20);
  drop.add(80);  // 80% of this window's 100 submissions dropped
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().drop_rate_trips, 1u);
}

TEST(HealthMonitor, RegistryInferenceLatencyTripDegrades) {
  observe::Histogram& hist =
      observe::get_histogram(observe::kMetricInferenceNs);
  hist.reset();  // cumulative p99 — clear whatever this process recorded
  HealthConfig config = fast_config();
  config.inference_p99_degrade_ns = 1'000'000;  // budget: 1 ms
  HealthMonitor monitor(config);
  monitor.observe_registry();  // primes baselines
  for (int i = 0; i < 100; ++i) hist.record(50'000'000);  // 50 ms each
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().latency_trips, 1u);

  // Quiesced model: no new inferences -> the (cumulative) histogram must
  // not re-trip the guard on stale history.
  monitor.reset();
  monitor.observe_registry();  // re-prime after reset
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().latency_trips, 0u);
}

// (i) cache hit-rate collapse: the eviction case study's safety net. A
// mis-actuated policy shows up as a collapsed hit rate over the judged
// window; the monitor trips DEGRADED and the cache tuner pins vanilla LRU.
TEST(HealthMonitor, RegistryCacheHitRateCollapseDegrades) {
  observe::Counter& hits = observe::get_counter(observe::kMetricCacheHit);
  observe::Counter& misses = observe::get_counter(observe::kMetricCacheMiss);
  HealthConfig config = fast_config();
  config.cache_hit_rate_degrade_milli = 500;  // floor: 50% hit rate
  config.cache_min_accesses = 100;
  HealthMonitor monitor(config);
  monitor.observe_registry();  // primes baselines
  hits.add(90);
  misses.add(10);  // 90% window: healthy
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  hits.add(10);
  misses.add(90);  // 10% window: collapse
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().cache_trips, 1u);
}

TEST(HealthMonitor, RegistryCacheWindowBelowMinAccessesNotJudged) {
  observe::Counter& misses = observe::get_counter(observe::kMetricCacheMiss);
  HealthConfig config = fast_config();
  config.cache_hit_rate_degrade_milli = 500;
  config.cache_min_accesses = 1'000'000'000;  // nothing reaches the window
  HealthMonitor monitor(config);
  monitor.observe_registry();
  misses.add(500);  // all misses, but below the judgement window
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().cache_trips, 0u);
}

TEST(HealthMonitor, RegistryCacheSignalDisabledByDefault) {
  observe::Counter& misses = observe::get_counter(observe::kMetricCacheMiss);
  HealthMonitor monitor(fast_config());  // cache_hit_rate_degrade_milli = 0
  monitor.observe_registry();
  misses.add(100'000);
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().cache_trips, 0u);
}

TEST(HealthMonitor, RegistryLatencySignalDisabledByDefault) {
  observe::Histogram& hist =
      observe::get_histogram(observe::kMetricInferenceNs);
  HealthMonitor monitor(fast_config());  // inference_p99_degrade_ns = 0
  monitor.observe_registry();
  for (int i = 0; i < 100; ++i) hist.record(50'000'000);
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().latency_trips, 0u);
}

// Verdicts judge recent windows, never the process lifetime: a fresh burst
// must not hide under a long healthy tail, a slow period that has ended
// must stop tripping, and a registry reset must not blind a progress gate.
TEST(HealthMonitor, WindowedP99SeesFreshBurst) {
  observe::Histogram& hist =
      observe::get_histogram(observe::kMetricInferenceNs);
  hist.reset();
  HealthConfig config = fast_config();
  config.inference_p99_degrade_ns = 1'000'000;  // budget: 1 ms
  HealthMonitor monitor(config);
  for (int i = 0; i < 10'000; ++i) hist.record(10'000);  // 10 us each
  monitor.observe_registry();  // primes baselines
  // 0.5% of the lifetime, below its p99; all of the fresh window.
  for (int i = 0; i < 50; ++i) hist.record(50'000'000);  // 50 ms each
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().latency_trips, 1u);
}

TEST(HealthMonitor, WindowedP99StopsTrippingAfterBurst) {
  observe::Histogram& hist =
      observe::get_histogram(observe::kMetricInferenceNs);
  hist.reset();
  HealthConfig config = fast_config();
  config.inference_p99_degrade_ns = 1'000'000;
  HealthMonitor monitor(config);
  monitor.observe_registry();  // primes baselines
  for (int i = 0; i < 10'000; ++i) hist.record(50'000'000);
  monitor.observe_registry();
  ASSERT_EQ(monitor.state(), HealthState::kDegraded);
  ASSERT_EQ(monitor.stats().latency_trips, 1u);

  // Heal (+1: the first step primes the EWMA baseline), then a fast window:
  // the slow period is over, so the guard must stay HEALTHY.
  for (std::uint32_t i = 0; i <= config.clean_steps_to_recover; ++i) {
    monitor.observe_train_step(1.0, true);
  }
  ASSERT_EQ(monitor.state(), HealthState::kHealthy);
  for (int i = 0; i < 1'000; ++i) hist.record(10'000);
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().latency_trips, 1u);
}

TEST(HealthMonitor, ProgressGateSurvivesRegistryReset) {
  observe::Counter& steps = observe::get_counter(observe::kMetricTrainSteps);
  observe::Gauge& grad = observe::get_gauge(observe::kMetricGradNormMilli);
  HealthConfig config = fast_config();
  config.grad_norm_degrade_milli = 5'000;
  HealthMonitor monitor(config);
  steps.add(1'000);
  grad.set(1'000);
  monitor.observe_registry();  // primes baselines
  steps.add(1);
  monitor.observe_registry();  // judged once: a healthy gradient
  ASSERT_EQ(monitor.state(), HealthState::kHealthy);

  observe::reset_all();  // the step counter drops below its baseline
  steps.add(3);
  grad.set(80'000);
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.stats().grad_trips, 1u);
}

struct Poller {
  HealthMonitor* monitor;
  std::atomic<int>* running;
};

void poller_main(void* arg) {
  const Poller* p = static_cast<const Poller*>(arg);
  for (int i = 0; i < 20'000; ++i) p->monitor->observe_registry();
  p->running->fetch_sub(1, std::memory_order_release);
}

// A trainer thread and a fleet host may both poll one monitor. A reading
// taken before the other poller moved the baseline sits below it and would
// pass as a registry reset, judging the counter's whole lifetime as one
// window; reads happen under the monitor's lock so that cannot occur.
TEST(HealthMonitor, ConcurrentPollersNeverMistakeAStaleReadingForAReset) {
  observe::Counter& recoveries =
      observe::get_counter(observe::kMetricKvRecoveries);
  recoveries.add(1'000'000'000'000);  // a lifetime far above any window
  HealthConfig config = fast_config();
  config.kv_recoveries_to_degrade = 100'000'000;  // above any real window
  HealthMonitor monitor(config);
  monitor.observe_registry();  // primes baselines

  std::atomic<int> running{2};
  Poller poller{&monitor, &running};
  KmlThread* threads[2] = {};
  for (KmlThread*& t : threads) {
    t = kml_thread_create(poller_main, &poller, "health-poller");
    ASSERT_NE(t, nullptr);
  }
  while (running.load(std::memory_order_acquire) > 0) recoveries.add(1);
  for (KmlThread* t : threads) kml_thread_join(t);

  EXPECT_EQ(monitor.stats().kv_recovery_trips, 0u);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

// --- The rule table, row by row ---------------------------------------------

constexpr char kSloHist[] = "health_test.slo_ns";

void reset_flight() {
  observe::flight_thaw();
  observe::flight_set_enabled(true);
  observe::flight_reset();
}

// The calling thread's flight events, oldest first.
std::vector<observe::TraceEvent> own_events() {
  const auto self = static_cast<std::uint32_t>(kml_thread_self());
  const observe::FlightSnapshot snap = observe::flight_snapshot();
  for (const observe::FlightThreadDump& t : snap.threads) {
    if (t.thread_id == self) return t.events;
  }
  return {};
}

bool is(const observe::TraceEvent& e, observe::EventId id) {
  return e.event_id == static_cast<std::uint16_t>(id);
}

void record_slow(const char* hist) {
  for (int i = 0; i < 100; ++i) {
    observe::get_histogram(hist).record(50'000'000);
  }
}

// One row of health.cpp's table: the threshold that enables it, the stats
// field it trips, and a drive that pushes its metric past the threshold
// while advancing its progress by at least the row's minimum window.
struct RuleCase {
  const char* name;
  HealthRule rule;
  std::uint64_t HealthConfig::*threshold;
  std::uint64_t threshold_value;
  std::uint64_t HealthStats::*trips;
  void (*drive)();
};

const RuleCase kRuleCases[] = {
    {"drop_share", HealthRule::kDropShare,
     &HealthConfig::drop_rate_degrade_milli, 500,
     &HealthStats::drop_rate_trips,
     [] {  // 80 of 100 submissions dropped; fast_config's window is 10
       observe::get_counter(observe::kMetricBufferPush).add(20);
       observe::get_counter(observe::kMetricBufferDrop).add(80);
     }},
    {"inference_p99", HealthRule::kInferenceP99,
     &HealthConfig::inference_p99_degrade_ns, 1'000'000,
     &HealthStats::latency_trips,
     [] { record_slow(observe::kMetricInferenceNs); }},
    {"grad_norm", HealthRule::kGradNorm,
     &HealthConfig::grad_norm_degrade_milli, 5'000,
     &HealthStats::grad_trips,
     [] {
       observe::get_counter(observe::kMetricTrainSteps).add(1);
       observe::get_gauge(observe::kMetricGradNormMilli).set(80'000);
     }},
    {"drift", HealthRule::kDrift, &HealthConfig::drift_z_degrade_milli,
     1'000, &HealthStats::drift_trips,
     [] {  // the sample count is a gauge that only counts up
       observe::Gauge& samples =
           observe::get_gauge(observe::kMetricDriftSamples);
       samples.set(samples.value() + 64);
       observe::get_gauge(observe::kMetricDriftZMilli).set(10'000);
     }},
    {"kv_recovery", HealthRule::kKvRecovery,
     &HealthConfig::kv_recoveries_to_degrade, 1,
     &HealthStats::kv_recovery_trips,
     [] { observe::get_counter(observe::kMetricKvRecoveries).add(1); }},
    {"cache_hit_share", HealthRule::kCacheHitShare,
     &HealthConfig::cache_hit_rate_degrade_milli, 500,
     &HealthStats::cache_trips,
     [] {  // a window of cache_min_accesses (1024) misses
       observe::get_counter(observe::kMetricCacheMiss).add(1024);
     }},
    {"fleet_queue_depth", HealthRule::kFleetQueueDepth,
     &HealthConfig::fleet_queue_depth_degrade, 16,
     &HealthStats::fleet_trips,
     [] {
       observe::get_counter(observe::kMetricFleetWindows).add(1);
       observe::get_gauge(observe::kMetricFleetQueueDepth).set(64);
     }},
    {"fleet_decision_p99", HealthRule::kFleetDecisionP99,
     &HealthConfig::fleet_decision_p99_degrade_ns, 1'000'000,
     &HealthStats::fleet_trips,
     [] { record_slow(observe::kMetricFleetDecisionNs); }},
    {"slo_burning", HealthRule::kSloBurning,
     &HealthConfig::slo_burning_to_degrade, 1, &HealthStats::slo_trips,
     [] {  // one ring sample in which every record is bad
       static std::uint64_t tick = 0;
       for (int i = 0; i < 16; ++i) {
         observe::get_histogram(kSloHist).record(1'000'000);
       }
       observe::timeseries_sample(++tick * 1'000'000'000ull);
     }},
};

constexpr std::uint64_t HealthStats::*kTripFields[] = {
    &HealthStats::drop_rate_trips,   &HealthStats::latency_trips,
    &HealthStats::grad_trips,        &HealthStats::drift_trips,
    &HealthStats::kv_recovery_trips, &HealthStats::cache_trips,
    &HealthStats::fleet_trips,       &HealthStats::slo_trips,
};

class RuleRow : public ::testing::TestWithParam<RuleCase> {
 protected:
  void SetUp() override {
    observe::reset_all();
    observe::timeseries_reset();
    observe::slo_reset();
    observe::SloObjective obj;  // every record above 1 us is bad
    obj.hist_name = kSloHist;
    obj.threshold_ns = 1024;
    obj.objective_milli = 990;
    obj.fast_window_ticks = 1;
    obj.slow_window_ticks = 2;
    obj.fast_burn_trip_milli = 1000;
    obj.slow_burn_trip_milli = 1000;
    obj.min_window_records = 8;
    ASSERT_GE(observe::slo_register(obj), 0);
    reset_flight();
  }
  void TearDown() override {
    observe::flight_thaw();
    observe::slo_reset();
    observe::timeseries_reset();
  }
  static HealthConfig config(std::uint64_t threshold) {
    HealthConfig c = fast_config();
    c.*GetParam().threshold = threshold;
    return c;
  }
};

TEST_P(RuleRow, TripsOnlyItsOwnFieldAndRecordsWhy) {
  const RuleCase& row = GetParam();
  HealthMonitor monitor(config(row.threshold_value));
  monitor.observe_registry();  // primes baselines
  row.drive();
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  const HealthStats stats = monitor.stats();
  for (const auto field : kTripFields) {
    EXPECT_EQ(stats.*field, field == row.trips ? 1u : 0u);
  }

  // The trip names its row, and lands before the transition it causes.
  bool tripped = false;
  bool transition_after_trip = false;
  for (const observe::TraceEvent& e : own_events()) {
    if (is(e, observe::EventId::kHealthTrip)) {
      EXPECT_EQ(e.arg0, static_cast<std::uint64_t>(row.rule));
      tripped = true;
    } else if (is(e, observe::EventId::kHealthTransition) && tripped) {
      transition_after_trip = true;
    }
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(transition_after_trip);
}

TEST_P(RuleRow, NoProgressMeansNoJudgement) {
  const RuleCase& row = GetParam();
  HealthMonitor monitor(config(row.threshold_value));
  row.drive();                 // sick history, all before the first reading
  monitor.observe_registry();  // primes baselines
  monitor.observe_registry();
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().*row.trips, 0u);
}

TEST_P(RuleRow, ZeroThresholdDisablesTheRule) {
  const RuleCase& row = GetParam();
  HealthMonitor monitor(config(0));
  monitor.observe_registry();
  row.drive();
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().*row.trips, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    HealthRules, RuleRow, ::testing::ValuesIn(kRuleCases),
    [](const ::testing::TestParamInfo<RuleCase>& row) {
      return std::string(row.param.name);
    });

// observe_buffer() judges through the registry's drop-share row.
TEST(HealthMonitor, BufferDropShareTripsThroughTheDropRow) {
  reset_flight();
  HealthMonitor monitor(fast_config());
  monitor.observe_buffer(200, 180);
  EXPECT_EQ(monitor.stats().drop_rate_trips, 1u);
  bool tripped = false;
  for (const observe::TraceEvent& e : own_events()) {
    if (!is(e, observe::EventId::kHealthTrip)) continue;
    EXPECT_EQ(e.arg0, static_cast<std::uint64_t>(HealthRule::kDropShare));
    EXPECT_EQ(e.arg1, 900u);  // 180 of 200 dropped, milli
    tripped = true;
  }
  EXPECT_TRUE(tripped);
  observe::flight_thaw();
}

#endif  // KML_OBSERVE_ENABLED

TEST(HealthMonitor, ResetReturnsToPristine) {
  HealthMonitor monitor(fast_config());
  monitor.observe_train_step(std::numeric_limits<double>::quiet_NaN(), false);
  ASSERT_EQ(monitor.state(), HealthState::kFailed);
  monitor.reset();
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().train_steps, 0u);
}

// --- Engine integration ------------------------------------------------------

nn::Network make_net(std::uint64_t seed = 5) {
  math::Rng rng(seed);
  nn::Network net = nn::build_mlp_classifier(2, 4, 2, rng);
  net.normalizer().import_moments({0.0, 0.0}, {1.0, 1.0});
  return net;
}

struct TrainSetup {
  matrix::MatD x{8, 2};
  matrix::MatD y{8, 2};
  nn::CrossEntropyLoss loss;
  nn::SGD opt{0.1, 0.0};

  explicit TrainSetup(Engine& engine) {
    math::Rng rng(23);
    for (int i = 0; i < 8; ++i) {
      const int cls = i % 2;
      x.at(i, 0) = rng.normal(cls == 0 ? -1.0 : 1.0, 0.2);
      x.at(i, 1) = rng.normal(cls == 0 ? 1.0 : -1.0, 0.2);
      y.at(i, cls) = 1.0;
    }
    opt.attach(engine.network().params());
  }
};

TEST(EngineHealth, ValidStepsCheckpointAndFeedMonitor) {
  HealthMonitor monitor(fast_config());
  Engine engine(make_net());
  engine.attach_health(&monitor);
  engine.set_mode(Mode::kTraining);
  TrainSetup t(engine);

  EXPECT_FALSE(engine.has_checkpoint());
  engine.train_batch(t.x, t.y, t.loss, t.opt);
  EXPECT_TRUE(engine.has_checkpoint());
  EXPECT_EQ(engine.stats().checkpoints, 1u);
  EXPECT_EQ(engine.stats().invalid_train_steps, 0u);
  EXPECT_EQ(monitor.stats().train_steps, 1u);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

TEST(EngineHealth, PoisonedWeightsFailTheMonitorAndRollbackRestores) {
  HealthMonitor monitor(fast_config());
  Engine engine(make_net());
  engine.attach_health(&monitor);
  engine.set_mode(Mode::kTraining);
  TrainSetup t(engine);

  // A few good steps to establish the checkpoint.
  for (int i = 0; i < 3; ++i) engine.train_batch(t.x, t.y, t.loss, t.opt);
  ASSERT_TRUE(engine.has_checkpoint());
  ASSERT_TRUE(engine.weights_finite());

  engine.set_mode(Mode::kInference);
  const double probe[2] = {0.4, -0.6};
  const int before = classify(engine, probe, 2);

  // Poison one weight: the next train step sees non-finite weights.
  auto params = engine.network().params();
  params[0].value->at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  ASSERT_FALSE(engine.weights_finite());

  engine.set_mode(Mode::kTraining);
  engine.train_batch(t.x, t.y, t.loss, t.opt);
  EXPECT_GE(engine.stats().invalid_train_steps, 1u);
  EXPECT_EQ(monitor.state(), HealthState::kFailed);

  // Rollback to last-known-good: weights finite again, health on probation,
  // and the restored model must infer exactly as it did pre-poisoning...
  ASSERT_TRUE(engine.rollback());
  // Optimizer state still carries NaN from the poisoned step (0 * NaN is
  // NaN, so even zero momentum keeps it); re-attach to zero the buffers —
  // the documented post-rollback step.
  t.opt.attach(engine.network().params());
  EXPECT_TRUE(engine.weights_finite());
  EXPECT_EQ(engine.stats().rollbacks, 1u);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);

  engine.set_mode(Mode::kInference);
  EXPECT_EQ(classify(engine, probe, 2), before);

  // ...and clean training afterwards recovers full health.
  engine.set_mode(Mode::kTraining);
  for (int i = 0; i < 8; ++i) engine.train_batch(t.x, t.y, t.loss, t.opt);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

TEST(EngineHealth, RollbackWithoutCheckpointFails) {
  Engine engine(make_net());
  EXPECT_FALSE(engine.has_checkpoint());
  EXPECT_FALSE(engine.rollback());
}

}  // namespace
}  // namespace kml::runtime

// --- Tuner degradation -------------------------------------------------------

namespace kml::readahead {
namespace {

ExperimentConfig tiny_experiment() {
  ExperimentConfig config;
  config.num_keys = 100000;
  config.cache_pages = 2048;
  return config;
}

TEST(TunerDegradation, UnhealthyMonitorRevertsToVanillaAndResumes) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  kv::MiniKV db(stack, make_kv_config(tiny_experiment()));

  runtime::HealthMonitor monitor(runtime::HealthConfig{});
  TunerConfig config;
  config.class_ra_kb = {512, 16, 256, 32};
  config.health = &monitor;
  config.vanilla_ra_kb = 128;
  int predictions = 0;
  ReadaheadTuner tuner(
      stack,
      [&predictions](const FeatureVector&) {
        ++predictions;
        return 1;
      },
      config);

  // Healthy window: the class-1 table entry (16 KB) is actuated.
  for (std::uint64_t k = 0; k < 50; ++k) db.get(k * 977);
  tuner.on_tick(sim::kNsPerSec + 1);
  ASSERT_EQ(stack.block_layer().readahead_kb(), 16u);
  ASSERT_EQ(predictions, 1);
  EXPECT_FALSE(tuner.timeline().back().degraded);

  // Training blows up -> FAILED. The next window must revert to vanilla and
  // skip inference entirely.
  monitor.observe_train_step(std::numeric_limits<double>::quiet_NaN(), false);
  ASSERT_EQ(monitor.state(), runtime::HealthState::kFailed);
  for (std::uint64_t k = 0; k < 50; ++k) db.get(k * 1033);
  tuner.on_tick(2 * sim::kNsPerSec + 1);
  EXPECT_EQ(stack.block_layer().readahead_kb(), 128u);
  EXPECT_EQ(predictions, 1);  // no inference while quarantined
  EXPECT_TRUE(tuner.timeline().back().degraded);
  EXPECT_EQ(tuner.degraded_windows(), 1u);

  // Stays vanilla while FAILED.
  for (std::uint64_t k = 0; k < 50; ++k) db.get(k * 1051);
  tuner.on_tick(3 * sim::kNsPerSec + 1);
  EXPECT_EQ(stack.block_layer().readahead_kb(), 128u);
  EXPECT_EQ(tuner.degraded_windows(), 2u);

  // Rollback + clean streak -> HEALTHY; actuation resumes.
  monitor.notify_rollback();
  // +1: the first post-rollback step re-primes the EWMA baseline.
  for (std::uint32_t i = 0; i <= monitor.config().clean_steps_to_recover;
       ++i) {
    monitor.observe_train_step(1.0, true);
  }
  ASSERT_EQ(monitor.state(), runtime::HealthState::kHealthy);
  for (std::uint64_t k = 0; k < 50; ++k) db.get(k * 1087);
  tuner.on_tick(4 * sim::kNsPerSec + 1);
  EXPECT_EQ(stack.block_layer().readahead_kb(), 16u);
  EXPECT_EQ(predictions, 2);
  EXPECT_FALSE(tuner.timeline().back().degraded);
  EXPECT_EQ(tuner.degraded_windows(), 2u);  // no new degraded windows
}

TEST(TunerDegradation, NullHealthMeansAlwaysActuate) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  kv::MiniKV db(stack, make_kv_config(tiny_experiment()));
  ReadaheadTuner tuner(
      stack, [](const FeatureVector&) { return 1; }, TunerConfig{});
  db.get(1);
  tuner.on_tick(sim::kNsPerSec + 1);
  EXPECT_EQ(tuner.degraded_windows(), 0u);
  EXPECT_FALSE(tuner.timeline().back().degraded);
}

TEST(TunerDegradation, PerFileTunerRestoresActuatedInodes) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  kv::MiniKV db(stack, make_kv_config(tiny_experiment()));

  runtime::HealthMonitor monitor;
  TunerConfig config;
  config.class_ra_kb = {512, 16, 256, 32};
  config.health = &monitor;
  config.vanilla_ra_kb = 128;
  PerFileTuner tuner(
      stack, [](const FeatureVector&) { return 1; }, config,
      /*min_events=*/1);

  for (std::uint64_t k = 0; k < 200; ++k) db.get(k * 977);
  tuner.on_tick(sim::kNsPerSec + 1);
  ASSERT_FALSE(tuner.last_window_decisions().empty());
  const std::uint64_t inode = tuner.last_window_decisions()[0].inode;
  ASSERT_EQ(stack.block_layer().file_readahead_kb(inode), 16u);

  // FAILED: the tuned inode reverts to vanilla; no decisions are made.
  monitor.observe_train_step(std::numeric_limits<double>::quiet_NaN(), false);
  for (std::uint64_t k = 0; k < 200; ++k) db.get(k * 1033);
  tuner.on_tick(2 * sim::kNsPerSec + 1);
  EXPECT_EQ(stack.block_layer().file_readahead_kb(inode), 128u);
  EXPECT_TRUE(tuner.last_window_decisions().empty());
  EXPECT_EQ(tuner.degraded_windows(), 1u);
}

TEST(TunerDegradation, ClosedLoopReportsDegradedWindowsAndRecovers) {
  // Acceptance scenario: a closed-loop run with divergence injected partway
  // through falls back to vanilla, then resumes after a rollback.
  runtime::HealthMonitor monitor;
  TunerConfig tuner_config;
  tuner_config.health = &monitor;

  const std::uint64_t seconds = 8;
  bool poisoned = false;
  bool rolled_back = false;
  const auto inject = [&](std::uint64_t now_ns) {
    if (!poisoned && now_ns >= 3 * sim::kNsPerSec) {
      poisoned = true;  // trainer diverges at t=3s
      monitor.observe_train_step(
          std::numeric_limits<double>::quiet_NaN(), false);
    }
    if (!rolled_back && now_ns >= 6 * sim::kNsPerSec) {
      rolled_back = true;  // operator/engine rolls back at t=6s
      monitor.notify_rollback();
      for (std::uint32_t i = 0;
           i <= monitor.config().clean_steps_to_recover; ++i) {
        monitor.observe_train_step(1.0, true);
      }
    }
  };

  const EvalOutcome outcome = evaluate_closed_loop(
      tiny_experiment(), workloads::WorkloadType::kReadRandom,
      [](const FeatureVector&) { return 1; }, tuner_config, seconds, inject);

  ASSERT_TRUE(poisoned);
  ASSERT_TRUE(rolled_back);
  // Roughly seconds 3..6 are degraded; at least one window on each side of
  // the fault must be healthy (fallback engaged AND recovery resumed).
  EXPECT_GT(outcome.degraded_windows, 0u);
  EXPECT_LT(outcome.degraded_windows, outcome.timeline.size());
  bool saw_degraded = false;
  bool saw_healthy_after = false;
  for (const TimelinePoint& p : outcome.timeline) {
    if (p.degraded) saw_degraded = true;
    if (saw_degraded && !p.degraded) saw_healthy_after = true;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_healthy_after);
  EXPECT_GT(outcome.vanilla_ops_per_sec, 0.0);
  EXPECT_GT(outcome.kml_ops_per_sec, 0.0);
}

}  // namespace
}  // namespace kml::readahead
