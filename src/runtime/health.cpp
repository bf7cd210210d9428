#include "runtime/health.h"

#include "observe/flight_recorder.h"
#include "observe/slo.h"
#include "observe/timeseries.h"
#include "portability/log.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace kml::runtime {

namespace {

// kHealthTransition args are (old_state, new_state) as integers.
inline void emit_transition(HealthState from, HealthState to) {
  (void)from;  // unused when KML_OBSERVE=OFF compiles the event away
  (void)to;
  KML_EVENT(observe::EventId::kHealthTransition,
            static_cast<std::uint64_t>(from), static_cast<std::uint64_t>(to));
}

// How a rule reduces its window to one observed value, and which side of
// the threshold is sick. All integer: the registry path keeps no double.
enum class Reduce : std::uint8_t {
  kShareAbove,  // source 0's share of the window, milli; sick above
  kShareBelow,  // the same share; sick below
  kP99,         // p99 of the histogram records in the window; sick above
  kGauge,       // the gauge at judgement; sick above
  kAdvance,     // the window itself, sources summed; sick at or above
  kSloBurning,  // objectives burning at judgement; sick at or above
};

// A row's window is the summed advance of its progress sources since it
// was last judged: its counters, or (kP99) its histogram's buckets, or
// (kSloBurning) the time-series sample count.
struct Rule {
  Reduce reduce;
  const char* metric;     // the gauge or histogram judged
  const char* source[2];  // progress counters; (g) counts with a gauge
  std::uint64_t HealthConfig::*threshold;   // 0 disables the row
  std::uint64_t HealthConfig::*min_window;  // nullptr: any progress
  std::uint64_t HealthStats::*trips;
};

// Rows in HealthRule order. Why each signal exists is on its HealthConfig
// field; DESIGN §7 tabulates them.
constexpr Rule kRules[] = {
    {Reduce::kShareAbove, nullptr,  // (d)
     {observe::kMetricBufferDrop, observe::kMetricBufferPush},
     &HealthConfig::drop_rate_degrade_milli,
     &HealthConfig::drop_window_min_records, &HealthStats::drop_rate_trips},
    {Reduce::kP99, observe::kMetricInferenceNs, {},  // (e)
     &HealthConfig::inference_p99_degrade_ns, nullptr,
     &HealthStats::latency_trips},
    {Reduce::kGauge, observe::kMetricGradNormMilli,  // (f)
     {observe::kMetricTrainSteps}, &HealthConfig::grad_norm_degrade_milli,
     nullptr, &HealthStats::grad_trips},
    {Reduce::kGauge, observe::kMetricDriftZMilli,  // (g)
     {observe::kMetricDriftSamples}, &HealthConfig::drift_z_degrade_milli,
     nullptr, &HealthStats::drift_trips},
    {Reduce::kAdvance, nullptr,  // (h)
     {observe::kMetricKvRecoveries, observe::kMetricKvTornManifests},
     &HealthConfig::kv_recoveries_to_degrade, nullptr,
     &HealthStats::kv_recovery_trips},
    {Reduce::kShareBelow, nullptr,  // (i)
     {observe::kMetricCacheHit, observe::kMetricCacheMiss},
     &HealthConfig::cache_hit_rate_degrade_milli,
     &HealthConfig::cache_min_accesses, &HealthStats::cache_trips},
    {Reduce::kGauge, observe::kMetricFleetQueueDepth,  // (j) backlog
     {observe::kMetricFleetWindows}, &HealthConfig::fleet_queue_depth_degrade,
     nullptr, &HealthStats::fleet_trips},
    {Reduce::kP99, observe::kMetricFleetDecisionNs, {},  // (j) latency
     &HealthConfig::fleet_decision_p99_degrade_ns, nullptr,
     &HealthStats::fleet_trips},
    {Reduce::kSloBurning, nullptr, {},  // (k)
     &HealthConfig::slo_burning_to_degrade, nullptr, &HealthStats::slo_trips},
};
static_assert(std::size(kRules) ==
              static_cast<std::size_t>(HealthRule::kCount));

#if KML_OBSERVE_ENABLED
std::uint64_t gauge_value(const char* name) {
  const observe::Gauge* g = observe::find_gauge(name);
  const std::int64_t v = g != nullptr ? g->value() : 0;
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

// Reads `rule`'s progress sources into `reading`; returns how many.
std::size_t read_sources(const Rule& rule, std::uint64_t* reading) {
  if (rule.reduce == Reduce::kP99) {
    const observe::Histogram* h = observe::find_histogram(rule.metric);
    for (unsigned b = 0; b < observe::Histogram::kNumBuckets; ++b) {
      reading[b] = h != nullptr ? h->bucket_count(b) : 0;
    }
    return observe::Histogram::kNumBuckets;
  }
  if (rule.reduce == Reduce::kSloBurning) {
    reading[0] = observe::timeseries_samples();
    return 1;
  }
  for (std::size_t k = 0; k < 2; ++k) {
    reading[k] = 0;
    const char* name = rule.source[k];
    if (name == nullptr) continue;
    if (const observe::Counter* c = observe::find_counter(name)) {
      reading[k] = c->value();
    } else if (rule.reduce == Reduce::kGauge) {
      reading[k] = gauge_value(name);  // (g) counts samples in a gauge
    }
  }
  return 2;
}
#endif  // KML_OBSERVE_ENABLED

}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "HEALTHY";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kFailed: return "FAILED";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {}

void HealthMonitor::enter_degraded() {
  if (state() == HealthState::kDegraded) return;
  KML_WARN("health: %s -> DEGRADED", health_state_name(state()));
  emit_transition(state(), HealthState::kDegraded);
  state_.store(static_cast<int>(HealthState::kDegraded),
               std::memory_order_release);
  stats_.degradations += 1;
  clean_streak_ = 0;
  // Preserve the events that led here (the transition itself included).
  freeze_flight();
}

void HealthMonitor::enter_failed() {
  if (state() == HealthState::kFailed) return;
  KML_WARN("health: %s -> FAILED", health_state_name(state()));
  emit_transition(state(), HealthState::kFailed);
  state_.store(static_cast<int>(HealthState::kFailed),
               std::memory_order_release);
  stats_.failures += 1;
  clean_streak_ = 0;
  // No freeze here — see the header: the imminent rollback and
  // FAILED->DEGRADED probation transition complete the causal chain, and
  // entering DEGRADED freezes with all of it on record.
}

void HealthMonitor::enter_healthy() {
  if (state() == HealthState::kHealthy) return;
  KML_INFO("health: %s -> HEALTHY", health_state_name(state()));
  emit_transition(state(), HealthState::kHealthy);
  state_.store(static_cast<int>(HealthState::kHealthy),
               std::memory_order_release);
  stats_.recoveries += 1;
  strikes_ = 0;
  clean_streak_ = 0;
  // Recovered: resume recording so the next incident gets a fresh window.
  observe::flight_thaw();
}

void HealthMonitor::freeze_flight() {
  if (observe::flight_frozen()) return;
  observe::flight_freeze();
  if (config_.flight_dump_prefix != nullptr) {
    observe::flight_dump_files(observe::flight_snapshot(),
                               config_.flight_dump_prefix);
  }
}

void HealthMonitor::observe_train_step(double loss, bool valid) {
  std::lock_guard<std::mutex> guard(lock_);
  stats_.train_steps += 1;

  // (a) Non-finite loss/weights: the model is garbage right now; only a
  // rollback can start recovery.
  if (!valid || !std::isfinite(loss)) {
    stats_.non_finite_events += 1;
    enter_failed();
    return;
  }

  // (b) EWMA divergence. The baseline warms up unconditionally, then only
  // absorbs non-diverged steps.
  if (!ewma_primed_) {
    stats_.loss_ewma = loss;
    ewma_primed_ = true;
    return;
  }
  const bool warmed = stats_.train_steps > config_.warmup_steps;
  const double baseline = stats_.loss_ewma;
  const bool diverged =
      warmed && loss > config_.divergence_ratio * baseline &&
      loss > 1e-12;  // a spike over a ~zero baseline is numeric noise
  if (diverged) {
    strikes_ += 1;
    stats_.divergence_strikes += 1;
    clean_streak_ = 0;
    if (strikes_ >= config_.strikes_to_fail) {
      enter_failed();
    } else if (strikes_ >= config_.strikes_to_degrade) {
      enter_degraded();
    }
    return;
  }

  stats_.loss_ewma += config_.ewma_alpha * (loss - stats_.loss_ewma);
  clean_streak_ += 1;
  if (clean_streak_ >= config_.clean_steps_to_recover &&
      state() == HealthState::kDegraded) {
    enter_healthy();
  }
}

void HealthMonitor::heartbeat(std::uint64_t now_ns) {
  last_heartbeat_ns_.store(now_ns, std::memory_order_release);
  std::lock_guard<std::mutex> guard(lock_);
  stats_.heartbeats += 1;
  heartbeat_seen_ = true;
}

bool HealthMonitor::check_watchdog(std::uint64_t now_ns) {
  std::lock_guard<std::mutex> guard(lock_);
  if (!heartbeat_seen_) return false;
  const std::uint64_t last = last_heartbeat_ns_.load(std::memory_order_acquire);
  if (now_ns <= last || now_ns - last <= config_.heartbeat_timeout_ns) {
    return false;
  }
  stats_.watchdog_timeouts += 1;
  // A stalled trainer means stale — not garbage — predictions: degrade.
  enter_degraded();
  return true;
}

void HealthMonitor::observe_buffer(std::uint64_t submitted_total,
                                   std::uint64_t dropped_total) {
  std::lock_guard<std::mutex> guard(lock_);
  const std::uint64_t pushed =
      submitted_total - std::min(submitted_total, dropped_total);
  std::uint64_t reading[2] = {dropped_total, pushed};  // (d)'s sources
  judge(HealthRule::kDropShare, windows_.buffer_base, reading, 2);
}

void HealthMonitor::observe_registry() {
#if KML_OBSERVE_ENABLED
  // Read under the lock: with two pollers (the trainer thread, a fleet
  // host), a reading taken before the other's judgement would sit below the
  // moved baseline and pass as a registry reset.
  std::lock_guard<std::mutex> guard(lock_);
  std::uint64_t reading[observe::Histogram::kNumBuckets];
  std::size_t p99_rows = 0;
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const Rule& rule = kRules[i];
    std::uint64_t* base = rule.reduce == Reduce::kP99
                              ? windows_.p99_base[p99_rows++]
                              : windows_.base[i];
    if (config_.*rule.threshold == 0) continue;
    const std::size_t n = read_sources(rule, reading);
    if (!windows_.primed) std::copy_n(reading, n, base);  // an empty window
    judge(static_cast<HealthRule>(i), base, reading, n);
  }
  windows_.primed = true;
#endif  // KML_OBSERVE_ENABLED
}

void HealthMonitor::judge(HealthRule id, std::uint64_t* base,
                          std::uint64_t* reading, std::size_t n) {
  const Rule& rule = kRules[static_cast<std::size_t>(id)];
  const std::uint64_t threshold = config_.*rule.threshold;
  if (threshold == 0) return;
  // The time-series sampler's rule: a reading below its baseline means the
  // registry was reset, so that source's window restarts from zero.
  std::uint64_t progress = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (reading[k] < base[k]) base[k] = 0;
    reading[k] -= base[k];  // now the window
    progress += reading[k];
  }
  const std::uint64_t min_window =
      rule.min_window != nullptr ? config_.*rule.min_window : 1;
  if (progress == 0 || progress < min_window) return;
  for (std::size_t k = 0; k < n; ++k) base[k] += reading[k];

  const std::uint64_t share = reading[0] * 1000;
  std::uint64_t observed = 0;
  bool sick = false;
  switch (rule.reduce) {
    case Reduce::kShareAbove:
    case Reduce::kShareBelow:
      // Cross-multiplied, so the comparison is exact: share(milli) > t
      // <=> part * 1000 > t * window.
      observed = share / progress;
      sick = rule.reduce == Reduce::kShareAbove ? share > threshold * progress
                                                : share < threshold * progress;
      break;
    case Reduce::kAdvance:
      observed = progress;
      sick = observed >= threshold;
      break;
#if KML_OBSERVE_ENABLED
    case Reduce::kP99:
      observed = observe::Histogram::percentile_from_counts(reading, 99);
      sick = observed > threshold;
      break;
    case Reduce::kGauge:
      observed = gauge_value(rule.metric);
      sick = observed > threshold;
      break;
    case Reduce::kSloBurning:
      for (std::size_t i = 0; i < observe::slo_count(); ++i) {
        observed += observe::slo_evaluate(i).burning ? 1 : 0;
      }
      sick = observed >= threshold;
      break;
#else
    default:  // registry-only reductions; no registry when compiled out
      break;
#endif
  }
  if (sick) trip(id, observed);
}

// `observed` is unused when KML_OBSERVE=OFF compiles the event away.
void HealthMonitor::trip(HealthRule id,
                         [[maybe_unused]] std::uint64_t observed) {
  stats_.*kRules[static_cast<std::size_t>(id)].trips += 1;
  KML_EVENT(observe::EventId::kHealthTrip, static_cast<std::uint64_t>(id),
            observed);
  enter_degraded();
}

void HealthMonitor::notify_rollback() {
  std::lock_guard<std::mutex> guard(lock_);
  stats_.rollbacks_seen += 1;
  strikes_ = 0;
  // Restart the divergence baseline: post-rollback losses come from the
  // checkpointed weights, not the diverged ones.
  ewma_primed_ = false;
  if (state() == HealthState::kFailed) enter_degraded();
}

void HealthMonitor::reset() {
  std::lock_guard<std::mutex> guard(lock_);
  state_.store(static_cast<int>(HealthState::kHealthy),
               std::memory_order_release);
  stats_ = HealthStats{};
  strikes_ = 0;
  clean_streak_ = 0;
  ewma_primed_ = false;
  heartbeat_seen_ = false;
  last_heartbeat_ns_.store(0, std::memory_order_release);
  windows_ = RuleWindows{};
  // New model deployed: resume flight recording for its first incident.
  observe::flight_thaw();
}

HealthStats HealthMonitor::stats() const {
  std::lock_guard<std::mutex> guard(lock_);
  return stats_;
}

}  // namespace kml::runtime
