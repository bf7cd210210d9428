#include "eviction/tuner.h"

#include "observe/flight_recorder.h"
#include "observe/metrics.h"
#include "portability/kml_lib.h"
#include "portability/log.h"

#include <cstdio>

namespace kml::eviction {
namespace {

// Per-phase decision counter ("cache.decision.<phase>"); registry copies
// the name at registration.
void count_cache_decision(int cls) {
  if (cls < 0 || cls >= kNumCachePhases) return;
  char name[48];
  std::snprintf(name, sizeof(name), "cache.decision.%s",
                cache_phase_name(static_cast<CachePhase>(cls)));
  observe::counter_add(name);
}

}  // namespace

std::array<PolicyChoice, kNumCachePhases> default_policy_table() {
  std::array<PolicyChoice, kNumCachePhases> table;
  table[static_cast<int>(CachePhase::kShifting)] = {
      sim::EvictionPolicyType::kLru, sim::EvictionParams{}};
  sim::EvictionParams scan_resistant;
  scan_resistant.gclock_insert_weight = 0;
  scan_resistant.gclock_hit_weight = 2;
  scan_resistant.gclock_max_weight = 8;
  table[static_cast<int>(CachePhase::kScanMix)] = {
      sim::EvictionPolicyType::kGclock, scan_resistant};
  table[static_cast<int>(CachePhase::kZipfHot)] = {
      sim::EvictionPolicyType::kClock, sim::EvictionParams{}};
  return table;
}

CacheTuner::CacheTuner(sim::StorageStack& stack, PredictFn predict,
                       const CacheTunerConfig& config)
    : stack_(stack),
      predict_(std::move(predict)),
      config_(config),
      buffer_(config.buffer_capacity, config.buffer_shards),
      next_boundary_(stack.clock().now_ns() + config.period_ns) {
  // Collection hook on the per-access tracepoints (hit/miss/writeback) —
  // the eviction study's mask, disjoint windows from the readahead mask's
  // insert stream.
  hook_handle_ = stack_.tracepoints().register_hook(
      [this](const sim::TraceEvent& ev) {
        buffer_.push(data::TraceRecord{
            ev.inode, ev.pgoff, ev.time_ns,
            static_cast<std::uint8_t>(ev.type)});
      },
      sim::kCacheStudyTracepoints);
}

CacheTuner::~CacheTuner() {
  stack_.tracepoints().unregister(hook_handle_);
}

void CacheTuner::on_tick(std::uint64_t now_ns) {
  data::TraceRecord rec;
  while (buffer_.pop(rec)) window_.push_back(rec);
  buffer_.publish_metrics();
  while (now_ns >= next_boundary_) {
    close_window();
    next_boundary_ += config_.period_ns;
  }
}

bool CacheTuner::health_allows_actuation() {
  if (config_.health == nullptr) return true;
  const runtime::HealthState state = config_.health->state();
  if (state == runtime::HealthState::kHealthy) {
    degraded_active_ = false;
    return true;
  }
  if (!degraded_active_) {
    degraded_active_ = true;
    stack_.cache().set_policy(config_.vanilla.type, config_.vanilla.params);
    KML_WARN("cache_tuner: health %s — reverting to %s eviction",
             runtime::health_state_name(state),
             sim::eviction_policy_name(config_.vanilla.type));
  }
  return false;
}

void CacheTuner::close_window() {
  std::vector<data::TraceRecord> window;
  window.swap(window_);

  CacheTimelinePoint point;
  point.window = timeline_.size();
  point.events = window.size();
  point.policy = stack_.cache().policy_type();

  observe::counter_add(observe::kMetricCacheTunerWindows);

  if (!health_allows_actuation()) {
    point.predicted_class = -1;
    point.policy = stack_.cache().policy_type();
    point.degraded = true;
    degraded_windows_ += 1;
    observe::counter_add(observe::kMetricCacheTunerDegraded);
    timeline_.push_back(point);
    return;
  }

  if (window.empty()) {
    // Idle second: keep the current policy.
    point.predicted_class = -1;
    timeline_.push_back(point);
    return;
  }

  // Per-stage attribution (telemetry v3), mirroring the readahead tuner:
  // coalesce = feature extraction, infer = model call, decide = policy
  // actuation. Wall clock (the tuner's own CPU cost), once per window.
  const bool obs = observe::enabled();
  const std::uint64_t t0 = obs ? kml_now_ns() : 0;
  const CacheFeatureVector features =
      extractor_.extract(window, stack_.cache().stats());
  const std::uint64_t t1 = obs ? kml_now_ns() : 0;
  int cls = -1;
  if (config_.batch_predict) {
    config_.batch_predict(&features, 1, &cls);
  } else {
    cls = predict_(features);
  }
  stack_.charge_cpu_ns(config_.inference_cpu_ns);
  const std::uint64_t t2 = obs ? kml_now_ns() : 0;

  if (cls >= 0 && cls < kNumCachePhases) {
    const PolicyChoice& choice =
        config_.class_policy[static_cast<std::size_t>(cls)];
    point.switched = stack_.cache().set_policy(choice.type, choice.params);
    count_cache_decision(cls);
    KML_EVENT(observe::EventId::kCacheTunerDecision,
              static_cast<std::uint64_t>(cls),
              static_cast<std::uint64_t>(choice.type));
  }
  if (obs) {
    observe::hist_record(observe::kMetricCacheStageCoalesceNs, t1 - t0);
    observe::hist_record(observe::kMetricCacheStageInferNs, t2 - t1);
    observe::hist_record(observe::kMetricCacheStageDecideNs,
                         kml_now_ns() - t2);
  }
  point.predicted_class = cls;
  point.policy = stack_.cache().policy_type();
  timeline_.push_back(point);
}

CacheTuner::PredictFn make_cache_engine_predictor(runtime::Engine& engine) {
  return [&engine](const CacheFeatureVector& features) {
    int cls = -1;
    engine.infer_batch_scores(features.data(), kNumCacheFeatures, 1, nullptr,
                              &cls);
    return cls;
  };
}

CacheBatchPredictFn make_cache_engine_batch_predictor(
    runtime::Engine& engine) {
  static_assert(sizeof(CacheFeatureVector) ==
                kNumCacheFeatures * sizeof(double));
  return [&engine](const CacheFeatureVector* features, int count,
                   int* classes_out) {
    if (features == nullptr || count <= 0) return;
    engine.infer_batch_scores(features->data(), kNumCacheFeatures, count,
                              nullptr, classes_out);
  };
}

readahead::RlConfig cache_rl_config(std::uint64_t seed) {
  readahead::RlConfig config;
  // Actions are table indices, not KB values. The set is tiny, so uniform
  // exploration converges fast and local_exploration stays off.
  config.actions_kb = {0, 1, 2};
  config.seed = seed;
  return config;
}

readahead::QLearningTuner::Actuator make_policy_actuator(
    sim::StorageStack& stack,
    const std::array<PolicyChoice, kNumCachePhases>& table) {
  return [&stack, table](std::uint32_t action) {
    if (action >= table.size()) return;
    const PolicyChoice& choice = table[action];
    stack.cache().set_policy(choice.type, choice.params);
  };
}

}  // namespace kml::eviction
