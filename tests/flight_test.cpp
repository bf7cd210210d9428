// Tests for the flight recorder and its consumers: ring wraparound and
// freeze/thaw semantics, concurrent-writer stress through the portability
// thread seam, the fault -> invalid step -> FAILED -> rollback -> DEGRADED
// causal chain (including the post-mortem dump files), introspection-ring
// determinism, the registry-sourced gradient/drift health signals, and a
// round-trip of the Chrome trace / introspection JSON exports through a
// minimal parser.
//
// The flight rings and the metrics registry are process-global; every test
// resets (and, at exit, thaws) the recorder so order of execution within
// one binary run does not matter.
#include "observe/export.h"
#include "observe/flight_recorder.h"
#include "observe/introspect.h"
#include "observe/metrics.h"

#include "nn/network.h"
#include "portability/fault.h"
#include "portability/thread.h"
#include "portability/threadpool.h"
#include "runtime/engine.h"
#include "runtime/health.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace kml {
namespace {

using observe::EventId;
using observe::FlightSnapshot;
using observe::TraceEvent;

// Single-row classification through the engine's one inference entry.
int classify(runtime::Engine& engine, const double* features, int n) {
  int cls = -1;
  engine.infer_batch_scores(features, n, 1, nullptr, &cls);
  return cls;
}

#if !KML_OBSERVE_ENABLED

// Compiled-out build: the whole surface must stub to inert no-ops.
TEST(FlightDisabled, StubsAreInert) {
  EXPECT_FALSE(observe::flight_recording());
  KML_EVENT(EventId::kTunerDecision, 1, 2);
  observe::flight_freeze();
  EXPECT_FALSE(observe::flight_frozen());
  EXPECT_EQ(observe::flight_total_events(), 0u);
  const FlightSnapshot snap = observe::flight_snapshot();
  EXPECT_TRUE(snap.threads.empty());
  EXPECT_FALSE(observe::format_chrome_trace(snap).empty());
}

#else  // KML_OBSERVE_ENABLED

// Fresh recorder: enabled, thawed, rings cleared.
void reset_flight() {
  observe::set_enabled(true);
  observe::flight_thaw();
  observe::flight_set_enabled(true);
  observe::flight_reset();
}

// The calling thread's ring dump, or nullptr if it never recorded.
const observe::FlightThreadDump* own_dump(const FlightSnapshot& snap) {
  const std::uint32_t self = static_cast<std::uint32_t>(kml_thread_self());
  for (const auto& t : snap.threads) {
    if (t.thread_id == self) return &t;
  }
  return nullptr;
}

// True when `ids` appears as an ordered (not necessarily contiguous)
// subsequence of the dump, with each match also satisfying `accept`.
bool contains_in_order(const std::vector<TraceEvent>& events,
                       const std::vector<EventId>& ids,
                       bool (*accept)(const TraceEvent&) = nullptr) {
  std::size_t want = 0;
  for (const TraceEvent& e : events) {
    if (want == ids.size()) break;
    if (e.event_id != static_cast<std::uint16_t>(ids[want])) continue;
    if (accept != nullptr && !accept(e)) continue;
    ++want;
  }
  return want == ids.size();
}

// --- ring mechanics ----------------------------------------------------------

TEST(FlightRing, WraparoundKeepsNewestEventsInOrder) {
  reset_flight();
  const std::uint64_t n = observe::kFlightEventsPerThread + 100;
  for (std::uint64_t i = 0; i < n; ++i) {
    observe::flight_record(EventId::kTunerDecision, i, 0);
  }
  EXPECT_EQ(observe::flight_total_events(), n);

  const FlightSnapshot snap = observe::flight_snapshot();
  const auto* mine = own_dump(snap);
  ASSERT_NE(mine, nullptr);
  // The ring holds exactly the newest kFlightEventsPerThread events,
  // oldest first: arg0 must run [100, n) contiguously.
  ASSERT_EQ(mine->events.size(), observe::kFlightEventsPerThread);
  for (std::size_t i = 0; i < mine->events.size(); ++i) {
    EXPECT_EQ(mine->events[i].arg0, 100 + i) << "slot " << i;
    EXPECT_EQ(mine->events[i].event_id,
              static_cast<std::uint16_t>(EventId::kTunerDecision));
  }
  EXPECT_EQ(snap.total_recorded, n);
}

TEST(FlightRing, FreezeStopsRecordingAndThawResumes) {
  reset_flight();
  for (int i = 0; i < 3; ++i) {
    observe::flight_record(EventId::kEngineCheckpoint, i, 0);
  }
  observe::flight_freeze();
  EXPECT_TRUE(observe::flight_frozen());
  EXPECT_FALSE(observe::flight_recording());
  KML_EVENT(EventId::kEngineCheckpoint, 99, 0);  // must be dropped
  observe::flight_record(EventId::kEngineCheckpoint, 99, 0);
  EXPECT_EQ(observe::flight_total_events(), 3u);

  FlightSnapshot snap = observe::flight_snapshot();
  EXPECT_TRUE(snap.frozen);
  const auto* mine = own_dump(snap);
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->events.size(), 3u);

  observe::flight_thaw();
  EXPECT_FALSE(observe::flight_frozen());
  KML_EVENT(EventId::kEngineCheckpoint, 4, 0);
  EXPECT_EQ(observe::flight_total_events(), 4u);
}

TEST(FlightRing, RuntimeKillSwitchGatesTheMacro) {
  reset_flight();
  observe::flight_set_enabled(false);
  EXPECT_FALSE(observe::flight_recording());
  KML_EVENT(EventId::kBufferDrop, 1, 0);
  EXPECT_EQ(observe::flight_total_events(), 0u);
  observe::flight_set_enabled(true);
  KML_EVENT(EventId::kBufferDrop, 1, 0);
  EXPECT_EQ(observe::flight_total_events(), 1u);
}

// --- concurrent writers ------------------------------------------------------

struct WriterArgs {
  std::uint64_t tag = 0;
  std::uint64_t count = 0;
};

void writer_main(void* arg) {
  const WriterArgs* a = static_cast<const WriterArgs*>(arg);
  for (std::uint64_t i = 0; i < a->count; ++i) {
    observe::flight_record(EventId::kPoolDispatch, i, a->tag);
  }
}

TEST(FlightStress, ConcurrentWritersKeepPerThreadOrder) {
  reset_flight();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50'000;

  WriterArgs args[kWriters];
  KmlThread* threads[kWriters] = {};
  for (int w = 0; w < kWriters; ++w) {
    args[w].tag = 1000 + static_cast<std::uint64_t>(w);
    args[w].count = kPerWriter;
    threads[w] = kml_thread_create(writer_main, &args[w], "flight-writer");
    ASSERT_NE(threads[w], nullptr);
  }
  for (int w = 0; w < kWriters; ++w) kml_thread_join(threads[w]);

  EXPECT_EQ(observe::flight_total_events(), kWriters * kPerWriter);
  EXPECT_EQ(observe::flight_lost_thread_events(), 0u);

  // Each writer's ring must hold the newest kFlightEventsPerThread of its
  // own events, in order — SPSC rings cannot interleave across threads.
  const FlightSnapshot snap = observe::flight_snapshot();
  int seen_writers = 0;
  for (const auto& t : snap.threads) {
    if (t.events.empty() || t.events[0].arg1 < 1000) continue;
    ++seen_writers;
    ASSERT_EQ(t.events.size(), observe::kFlightEventsPerThread);
    const std::uint64_t first = kPerWriter - observe::kFlightEventsPerThread;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      ASSERT_EQ(t.events[i].arg0, first + i)
          << "thread " << t.thread_id << " slot " << i;
      ASSERT_EQ(t.events[i].arg1, t.events[0].arg1);  // one writer per ring
    }
  }
  EXPECT_EQ(seen_writers, kWriters);
}

// --- the causal chain --------------------------------------------------------

nn::Network small_net(std::uint64_t seed) {
  math::Rng rng(seed);
  nn::Network net = nn::build_mlp_classifier(4, 8, 3, rng);
  net.normalizer().import_moments({10.0, 10.0, 10.0, 10.0},
                                  {2.0, 2.0, 2.0, 2.0});
  return net;
}

bool is_enter_failed(const TraceEvent& e) {
  return e.arg1 == static_cast<std::uint64_t>(runtime::HealthState::kFailed);
}

TEST(FlightCausalChain, FaultToRollbackIsCapturedAndFrozen) {
  reset_flight();
  std::remove("flight_test_dump.bin");
  std::remove("flight_test_dump.txt");

  runtime::Engine engine(small_net(7));
  engine.set_mode(runtime::Mode::kTraining);
  runtime::HealthConfig hc;
  hc.flight_dump_prefix = "flight_test_dump";
  runtime::HealthMonitor monitor(hc);
  engine.attach_health(&monitor);

  nn::CrossEntropyLoss loss;
  nn::SGD opt(0.01, 0.0);
  opt.attach(engine.network().params());
  matrix::MatD x(1, 4);
  matrix::MatD y(1, 3);
  for (int j = 0; j < 4; ++j) x.at(0, j) = 0.5 * j;
  y.at(0, 1) = 1.0;

  for (int i = 0; i < 4; ++i) engine.train_batch(x, y, loss, opt);
  ASSERT_TRUE(engine.has_checkpoint());
  ASSERT_EQ(monitor.state(), runtime::HealthState::kHealthy);

  kml_fault_arm_nth(FaultSite::kTrainStep, 1, 1);
  engine.train_batch(x, y, loss, opt);  // the injected invalid step
  kml_fault_disarm(FaultSite::kTrainStep);
  EXPECT_EQ(monitor.state(), runtime::HealthState::kFailed);
  // FAILED must NOT freeze: the rollback that follows is part of the story.
  EXPECT_FALSE(observe::flight_frozen());

  EXPECT_TRUE(engine.rollback());
  EXPECT_EQ(monitor.state(), runtime::HealthState::kDegraded);
  // Entering DEGRADED freezes the rings and writes the configured dump.
  EXPECT_TRUE(observe::flight_frozen());

  const FlightSnapshot snap = observe::flight_snapshot();
  EXPECT_TRUE(snap.frozen);
  const auto* mine = own_dump(snap);
  ASSERT_NE(mine, nullptr);
  EXPECT_TRUE(contains_in_order(
      mine->events,
      {EventId::kFaultInjected, EventId::kEngineTrainStep,
       EventId::kEngineInvalidStep, EventId::kHealthTransition,
       EventId::kEngineRollback, EventId::kHealthTransition}));
  // The first health transition in the chain is specifically -> FAILED.
  EXPECT_TRUE(contains_in_order(mine->events, {EventId::kHealthTransition},
                                is_enter_failed));

  // The post-mortem files landed next to the test.
  std::FILE* bin = std::fopen("flight_test_dump.bin", "rb");
  ASSERT_NE(bin, nullptr);
  std::fseek(bin, 0, SEEK_END);
  const long bin_size = std::ftell(bin);
  std::fclose(bin);
  EXPECT_GT(bin_size, 0);
  EXPECT_EQ(static_cast<std::size_t>(bin_size) % sizeof(TraceEvent), 0u);
  std::FILE* txt = std::fopen("flight_test_dump.txt", "r");
  ASSERT_NE(txt, nullptr);
  std::fclose(txt);
  std::remove("flight_test_dump.bin");
  std::remove("flight_test_dump.txt");

  // The text dump names the events (stable names are part of the format).
  const std::string text = observe::format_flight_text(snap);
  EXPECT_NE(text.find("fault.injected"), std::string::npos);
  EXPECT_NE(text.find("engine.rollback"), std::string::npos);
  EXPECT_NE(text.find("health.transition"), std::string::npos);

  observe::flight_thaw();
}

// --- introspection -----------------------------------------------------------

TEST(Introspect, RingIsDeterministicAtFixedThreadCount) {
  kml_pool_set_threads(2);
  const auto run_once = [] {
    observe::introspect_reset();
    runtime::Engine engine(small_net(11));
    engine.set_mode(runtime::Mode::kTraining);
    nn::CrossEntropyLoss loss;
    nn::SGD opt(0.05, 0.0);
    opt.attach(engine.network().params());
    matrix::MatD x(2, 4);
    matrix::MatD y(2, 3);
    for (int r = 0; r < 2; ++r) {
      for (int j = 0; j < 4; ++j) x.at(r, j) = 10.0 + 0.25 * (r + j);
      y.at(r, r) = 1.0;
    }
    for (int i = 0; i < 12; ++i) engine.train_batch(x, y, loss, opt);
    return observe::introspect_snapshot();
  };

  const observe::IntrospectSnapshot a = run_once();
  const observe::IntrospectSnapshot b = run_once();
  ASSERT_EQ(a.steps.size(), 12u);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.total_recorded, b.total_recorded);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const observe::StepSample& sa = a.steps[i];
    const observe::StepSample& sb = b.steps[i];
    EXPECT_EQ(sa.step, sb.step) << "step " << i;
    EXPECT_EQ(sa.loss_milli, sb.loss_milli) << "step " << i;
    EXPECT_EQ(sa.num_layers, sb.num_layers) << "step " << i;
    EXPECT_EQ(sa.valid, 1u) << "step " << i;
    for (unsigned l = 0; l < observe::kIntrospectLayers; ++l) {
      EXPECT_EQ(sa.grad_norm_milli[l], sb.grad_norm_milli[l])
          << "step " << i << " layer " << l;
      EXPECT_EQ(sa.wdelta_norm_milli[l], sb.wdelta_norm_milli[l])
          << "step " << i << " layer " << l;
    }
  }
  // A 3-layer MLP reports per-layer norms, and training gradients are
  // non-trivial (all-zero norms would mean the probe is disconnected).
  EXPECT_EQ(a.steps.back().num_layers, 3u);
  EXPECT_GT(a.steps.back().grad_norm_milli[0] +
                a.steps.back().grad_norm_milli[1] +
                a.steps.back().grad_norm_milli[2],
            0);
}

TEST(Introspect, RingKeepsNewestCapacitySteps) {
  observe::introspect_reset();
  const std::uint64_t n = observe::kIntrospectCapacity + 17;
  observe::StepSample s;
  for (std::uint64_t i = 1; i <= n; ++i) {
    s.step = i;
    s.loss_milli = static_cast<std::int64_t>(i);
    observe::introspect_record(s);
  }
  const observe::IntrospectSnapshot snap = observe::introspect_snapshot();
  EXPECT_EQ(snap.total_recorded, n);
  ASSERT_EQ(snap.steps.size(), observe::kIntrospectCapacity);
  EXPECT_EQ(snap.steps.front().step, 18u);  // oldest surviving
  EXPECT_EQ(snap.steps.back().step, n);     // newest
  observe::introspect_reset();
}

// --- registry-sourced health signals ----------------------------------------

TEST(HealthSignals, InputDriftTripsDegraded) {
  reset_flight();
  runtime::Engine engine(small_net(13));
  ASSERT_TRUE(engine.drift().active());

  runtime::HealthConfig hc;
  hc.drift_z_degrade_milli = 1000;  // |z| > 1.0 is sick
  runtime::HealthMonitor monitor(hc);

  // Baseline mean 10, std 2; constant 30s are a z of 10 per feature. The
  // gauge publishes every 64 samples (past the tracker's 32-sample floor).
  const double shifted[4] = {30.0, 30.0, 30.0, 30.0};
  for (int i = 0; i < 128; ++i) classify(engine, shifted, 4);
  EXPECT_GE(engine.drift().max_z_milli(), 1000);

  monitor.observe_registry();  // primes baselines only
  EXPECT_EQ(monitor.state(), runtime::HealthState::kHealthy);

  for (int i = 0; i < 64; ++i) classify(engine, shifted, 4);
  monitor.observe_registry();  // sample count advanced -> judge the gauge
  EXPECT_EQ(monitor.state(), runtime::HealthState::kDegraded);
  EXPECT_GE(monitor.stats().drift_trips, 1u);
  EXPECT_TRUE(observe::flight_frozen());  // DEGRADED froze the recorder
  observe::flight_thaw();
}

TEST(HealthSignals, GradientExplosionTripsDegraded) {
  reset_flight();
  runtime::HealthConfig hc;
  hc.grad_norm_degrade_milli = 5'000;  // worst-layer L2 norm > 5.0 is sick
  runtime::HealthMonitor monitor(hc);

  observe::get_counter(observe::kMetricTrainSteps).add(1);
  observe::get_gauge(observe::kMetricGradNormMilli).set(80'000);
  monitor.observe_registry();  // primes
  EXPECT_EQ(monitor.state(), runtime::HealthState::kHealthy);

  observe::get_counter(observe::kMetricTrainSteps).add(1);  // steps advance
  monitor.observe_registry();  // now the gauge is judged
  EXPECT_EQ(monitor.state(), runtime::HealthState::kDegraded);
  EXPECT_GE(monitor.stats().grad_trips, 1u);
  observe::flight_thaw();
}

TEST(HealthSignals, QuiescedGaugeNeverTrips) {
  reset_flight();
  runtime::HealthConfig hc;
  hc.grad_norm_degrade_milli = 5'000;
  runtime::HealthMonitor monitor(hc);

  // A stale huge gauge with a non-advancing step counter must not trip:
  // the model is not training, so the reading is history, not news.
  observe::get_gauge(observe::kMetricGradNormMilli).set(999'000);
  monitor.observe_registry();  // primes
  monitor.observe_registry();  // counter unchanged -> no judgement
  monitor.observe_registry();
  EXPECT_EQ(monitor.state(), runtime::HealthState::kHealthy);
  EXPECT_EQ(monitor.stats().grad_trips, 0u);
}

// --- export round-trip -------------------------------------------------------

// Minimal recursive-descent JSON parser: accepts exactly the RFC 8259
// grammar the exporters are allowed to emit, no extensions. parse() is true
// only when the whole document is one valid value.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}
  bool parse() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip();
      if (!string()) return false;
      skip();
      if (peek() != ':') return false;
      ++pos_;
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Export, ChromeTraceRoundTripsThroughParser) {
  reset_flight();
  observe::flight_record(EventId::kTrainBatchBegin, 1, 32);
  observe::flight_record(EventId::kTunerDecision, 2, 256);
  observe::flight_record(EventId::kTrainBatchEnd, 1, 32);
  observe::flight_record(EventId::kTrainBatchBegin, 2, 32);  // unpaired

  const std::string json =
      observe::format_chrome_trace(observe::flight_snapshot());
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // The begin/end pair stitched into one duration span; the decision and
  // the unpaired begin degrade to instants.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("trainer.batch"), std::string::npos);
  EXPECT_NE(json.find("tuner.decision"), std::string::npos);
}

TEST(Export, EmptyTraceIsStillValidJson) {
  reset_flight();
  const std::string json =
      observe::format_chrome_trace(observe::flight_snapshot());
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Export, IntrospectJsonRoundTripsThroughParser) {
  observe::introspect_reset();
  observe::StepSample s;
  s.step = 1;
  s.loss_milli = 693;  // ln(2) in milli
  s.num_layers = 2;
  s.valid = 1;
  s.grad_norm_milli[0] = 120;
  s.grad_norm_milli[1] = -7;  // format is signed; exercise it
  observe::introspect_record(s);

  const std::string json =
      observe::format_introspect_json(observe::introspect_snapshot());
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"schema\":\"kml.introspect.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"loss_milli\":693"), std::string::npos);
  EXPECT_NE(json.find("-7"), std::string::npos);
  observe::introspect_reset();
}

TEST(Export, MetricsJsonRoundTripsThroughParser) {
  observe::get_counter("test.flight.export.counter").add(3);
  const std::string json = observe::format_json(observe::snapshot());
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\"schema\":\"kml.metrics.v1\""), std::string::npos);
}

#endif  // KML_OBSERVE_ENABLED

}  // namespace
}  // namespace kml
