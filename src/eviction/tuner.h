// tuner.h — the closed loop of Figure 1 (readahead/closed_loop.h), pointed
// at the reclaim policy: per-access cache tracepoints feed the windows,
// which are featurized against the cache's own accounting, and the tuner
// actuates by switching the page cache's EvictionPolicy (and its knobs)
// instead of writing ra_pages. Changing the policy changes future hits,
// which changes future features: the same closed circuit, second case
// study.
//
// Safety mirrors readahead: while the health monitor reports DEGRADED or
// FAILED (including the cache hit-rate-collapse signal the monitor now
// carries), the tuner pins the cache back to plain LRU — the vanilla
// kernel-approximating policy — and stops trusting the model.
#pragma once

#include "eviction/features.h"
#include "readahead/closed_loop.h"
#include "readahead/rl_tuner.h"
#include "runtime/engine.h"

#include <array>
#include <functional>
#include <vector>

namespace kml::eviction {

// One actuation table entry: the policy (and knob values) a predicted
// phase maps to.
struct PolicyChoice {
  sim::EvictionPolicyType type = sim::EvictionPolicyType::kLru;
  sim::EvictionParams params;
};

// Phase -> policy mapping from the §4-style study in bench_cache:
//   shifting -> LRU, scanmix -> scan-resistant GCLOCK, zipfhot -> CLOCK.
std::array<PolicyChoice, kNumCachePhases> default_policy_table();

// Batched classifier over contiguous feature rows (same contract as
// readahead::BatchPredictFn, different feature width).
using CacheBatchPredictFn = std::function<void(
    const CacheFeatureVector* features, int count, int* classes_out)>;

struct CacheTunerConfig {
  std::array<PolicyChoice, kNumCachePhases> class_policy =
      default_policy_table();
  std::uint64_t period_ns = sim::kNsPerSec;
  std::size_t buffer_capacity = 1 << 16;
  // Per-window inference cost on the virtual clock (same budget as the
  // readahead model; the network is the same shape).
  std::uint64_t inference_cpu_ns = 21'000;
  // Graceful degradation: DEGRADED/FAILED pins `vanilla`, predictions stop
  // actuating. nullptr = always trust the model.
  const runtime::HealthMonitor* health = nullptr;
  PolicyChoice vanilla;  // default-constructed: plain LRU
  CacheBatchPredictFn batch_predict;
};

struct CacheTimelinePoint {
  std::uint64_t window;
  int predicted_class;            // -1 for idle/degraded windows
  sim::EvictionPolicyType policy; // policy in force after actuation
  std::uint64_t events;
  bool switched = false;          // this window's actuation changed policy
  bool degraded = false;
};

// The reclaim-policy knob: one feature row per window, one PolicyChoice.
class CacheApp {
 protected:
  using Features = CacheFeatureVector;
  using Config = CacheTunerConfig;
  using Point = CacheTimelinePoint;
  // Collection hook on the per-access tracepoints (hit/miss/writeback) —
  // the eviction study's mask, disjoint windows from the readahead mask's
  // insert stream.
  static constexpr std::uint32_t kTracepoints = sim::kCacheStudyTracepoints;
  static constexpr readahead::LoopMetrics kMetrics{
      observe::kMetricCacheTunerWindows, observe::kMetricCacheTunerDegraded,
      "cache.decision", observe::kMetricCacheStageCoalesceNs,
      observe::kMetricCacheStageInferNs, observe::kMetricCacheStageDecideNs};
  static const char* class_name(int cls) {
    return cache_phase_name(static_cast<CachePhase>(cls));
  }

  CacheApp(sim::StorageStack& stack, const CacheTunerConfig& config)
      : stack_(stack), config_(config) {}

  void begin_window(Point& point) {
    point.policy = stack_.cache().policy_type();
  }
  void fall_back(runtime::HealthState state);
  void featurize(const std::vector<data::TraceRecord>& window,
                 std::vector<Features>& rows) {
    rows.push_back(extractor_.extract(window, stack_.cache().stats()));
  }
  void actuate(std::size_t row, int cls, Point& point);

  sim::StorageStack& stack_;
  CacheTunerConfig config_;

 private:
  CacheFeatureExtractor extractor_;
};

using CacheTuner = readahead::ClosedLoopTuner<CacheApp>;

// --- Engine adapters ---------------------------------------------------------

inline CacheTuner::PredictFn make_cache_engine_predictor(
    runtime::Engine& engine) {
  return readahead::engine_predictor<CacheFeatureVector>(engine);
}
inline CacheBatchPredictFn make_cache_engine_batch_predictor(
    runtime::Engine& engine) {
  return readahead::engine_batch_predictor<CacheFeatureVector>(engine);
}

// --- RL variant --------------------------------------------------------------
//
// The readahead Q-learning agent with a policy actuator: actions are
// indices into `table`, the reward stream is cumulative cache hits (pass
// stats().hits as `ops_completed` on tick). No labels, no offline model.
readahead::RlConfig cache_rl_config(std::uint64_t seed = 17);
readahead::QLearningTuner::Actuator make_policy_actuator(
    sim::StorageStack& stack,
    const std::array<PolicyChoice, kNumCachePhases>& table);

}  // namespace kml::eviction
