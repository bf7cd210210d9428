#include "eviction/tuner.h"

#include "observe/flight_recorder.h"
#include "portability/log.h"

namespace kml::eviction {

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

void CacheApp::fall_back(runtime::HealthState state) {
  stack_.cache().set_policy(config_.vanilla.type, config_.vanilla.params);
  KML_WARN("cache_tuner: health %s — reverting to %s eviction",
           runtime::health_state_name(state),
           sim::eviction_policy_name(config_.vanilla.type));
}

void CacheApp::actuate(std::size_t, int cls, Point& point) {
  point.predicted_class = cls;
  if (cls >= 0 && cls < kNumCachePhases) {
    const PolicyChoice& choice =
        config_.class_policy[static_cast<std::size_t>(cls)];
    point.switched = stack_.cache().set_policy(choice.type, choice.params);
    KML_EVENT(observe::EventId::kCacheTunerDecision,
              static_cast<std::uint64_t>(cls),
              static_cast<std::uint64_t>(choice.type));
  }
  point.policy = stack_.cache().policy_type();
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
