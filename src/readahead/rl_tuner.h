// rl_tuner.h — reinforcement-learning readahead tuning (§3.2).
//
// "In-kernel training also allows OS developers to build ML solutions using
// reinforcement learning... we can build a feedback system in the kernel
// and transform our readahead neural network model to a reinforcement
// learning model." This is that feedback system: a tabular Q-learning agent
// that needs *no offline training and no labels* — its state is a coarse
// discretization of the same trace features, its actions are readahead
// sizes, and its reward is the throughput the system actually delivered in
// the last window. It discovers the per-workload optimum online and adapts
// when the workload changes.
#pragma once

#include "math/rng.h"
#include "readahead/closed_loop.h"
#include "readahead/features.h"

#include <cstdint>
#include <vector>

namespace kml::readahead {

struct RlConfig {
  // Action set. For the readahead case study these are readahead sizes in
  // KB; with a custom actuator (see QLearningTuner ctor) they are whatever
  // knob values the actuator interprets — e.g., writeback thresholds for
  // the page-cache case study.
  std::vector<std::uint32_t> actions_kb{8, 16, 32, 64, 128, 256, 512, 1024};
  double alpha = 0.25;          // learning rate
  double gamma = 0.2;           // near-bandit: windows are weakly coupled
  double epsilon = 0.4;         // initial exploration rate
  double epsilon_decay = 0.95;  // per-window multiplicative decay
  double epsilon_min = 0.02;
  // Safe exploration: when true, epsilon-exploration only moves to an
  // action adjacent to the current greedy choice instead of uniformly over
  // the whole set. Matters when some actions are *catastrophic* (e.g., a
  // writeback threshold beyond cache capacity) — the §3.3 stability
  // concern applied to online RL.
  bool local_exploration = false;
  std::uint64_t period_ns = sim::kNsPerSec;
  std::size_t buffer_capacity = 1 << 16;
  std::uint64_t seed = 17;
};

struct RlTimelinePoint {
  std::uint64_t window;
  int state;
  int action;           // index into actions_kb; -1 for idle windows
  std::uint32_t ra_kb;
  double reward;        // ops completed in the window
  double epsilon;
};

class QLearningTuner {
 public:
  // Applies the chosen action value to the system. The default actuator
  // sets the readahead size through the block layer; other case studies
  // (e.g., writeback-threshold tuning) install their own.
  using Actuator = std::function<void(std::uint32_t value)>;

  QLearningTuner(sim::StorageStack& stack, const RlConfig& config);
  QLearningTuner(sim::StorageStack& stack, const RlConfig& config,
                 Actuator actuate);

  QLearningTuner(const QLearningTuner&) = delete;
  QLearningTuner& operator=(const QLearningTuner&) = delete;

  // Drive from the workload tick. `ops_completed` is the cumulative op
  // count (the harness's counter); the per-window delta is the reward.
  void on_tick(std::uint64_t now_ns, std::uint64_t ops_completed);

  const std::vector<RlTimelinePoint>& timeline() const { return timeline_; }

  // Q(state, action) table, row-major (state_count() x action count).
  const std::vector<double>& q_table() const { return q_; }
  int state_count() const;
  int action_count() const { return static_cast<int>(config_.actions_kb.size()); }

  // Greedy action for a state (post-training inspection).
  int greedy_action(int state) const;

  // Feature discretization: log-scale mean|Δoffset| bucket x event-rate
  // bucket. Exposed for tests.
  static int discretize(const FeatureVector& features);

 private:
  // The Q-update step, once per closed window.
  void close_window(const std::vector<data::TraceRecord>& window);
  double& q_at(int state, int action);

  sim::StorageStack& stack_;
  RlConfig config_;
  Actuator actuate_;
  FeatureExtractor extractor_;
  math::Rng rng_;
  std::vector<double> q_;
  std::vector<std::uint32_t> visits_;  // per (state, action) sample count
  std::uint64_t ops_completed_ = 0;    // as of the current tick
  std::uint64_t prev_ops_total_ = 0;
  int prev_state_ = -1;
  int prev_action_ = -1;
  double epsilon_;
  std::vector<RlTimelinePoint> timeline_;
  LiveCollection collection_;  // last: its hook goes first
};

// Closed-loop evaluation: vanilla vs the Q-learning agent (no pretrained
// model). The agent learns during the run; `warmup_seconds` are excluded
// from the reported throughput so the comparison reflects the converged
// policy (the learning transient is visible in the timeline).
struct RlEvalOutcome {
  double vanilla_ops_per_sec = 0.0;
  double rl_ops_per_sec = 0.0;       // post-warmup
  double rl_ops_per_sec_all = 0.0;   // including the learning transient
  double speedup = 0.0;              // post-warmup rl / vanilla
  std::vector<RlTimelinePoint> timeline;
};

// evaluate_rl_closed_loop() lives in pipeline.h (it needs ExperimentConfig).

}  // namespace kml::readahead
