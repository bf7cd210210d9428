#include "readahead/rl_tuner.h"

#include "math/approx.h"
#include "observe/flight_recorder.h"
#include "observe/metrics.h"

#include <cassert>

namespace kml::readahead {
namespace {

// State grid: 5 pattern buckets x 3 rate buckets (log-domain features).
constexpr int kPatternBuckets = 5;
constexpr int kRateBuckets = 3;

int pattern_bucket(double log_meandiff) {
  if (log_meandiff < 1.0) return 0;   // strictly sequential
  if (log_meandiff < 3.0) return 1;   // block-local (reverse-style)
  if (log_meandiff < 6.0) return 2;   // strided / mixed
  if (log_meandiff < 9.0) return 3;   // random-ish
  return 4;                           // very scattered
}

int rate_bucket(double log_count) {
  if (log_count < 10.0) return 0;
  if (log_count < 12.0) return 1;
  return 2;
}

}  // namespace

QLearningTuner::QLearningTuner(sim::StorageStack& stack,
                               const RlConfig& config)
    : QLearningTuner(stack, config, [&stack](std::uint32_t kb) {
        stack.block_layer().set_readahead_kb(kb);
      }) {}

QLearningTuner::QLearningTuner(sim::StorageStack& stack,
                               const RlConfig& config, Actuator actuate)
    : stack_(stack),
      config_(config),
      actuate_(std::move(actuate)),
      rng_(config.seed),
      q_(static_cast<std::size_t>(kPatternBuckets * kRateBuckets) *
             config.actions_kb.size(),
         0.0),
      visits_(q_.size(), 0),
      epsilon_(config.epsilon),
      collection_(stack, sim::kKmlCollectionTracepoints,
                  config.buffer_capacity, config.period_ns,
                  [this](std::uint64_t,
                         const std::vector<data::TraceRecord>& window) {
                    close_window(window);
                  }) {
  assert(!config_.actions_kb.empty());
}

int QLearningTuner::state_count() const {
  return kPatternBuckets * kRateBuckets;
}

int QLearningTuner::discretize(const FeatureVector& features) {
  // features[2] = log mean |Δoffset| (pattern), features[0] = log rate.
  return pattern_bucket(features[2]) * kRateBuckets +
         rate_bucket(features[0]);
}

double& QLearningTuner::q_at(int state, int action) {
  return q_[static_cast<std::size_t>(state) * config_.actions_kb.size() +
            static_cast<std::size_t>(action)];
}

int QLearningTuner::greedy_action(int state) const {
  const std::size_t base =
      static_cast<std::size_t>(state) * config_.actions_kb.size();
  int best = 0;
  for (std::size_t a = 1; a < config_.actions_kb.size(); ++a) {
    if (q_[base + a] > q_[base + static_cast<std::size_t>(best)]) {
      best = static_cast<int>(a);
    }
  }
  return best;
}

void QLearningTuner::on_tick(std::uint64_t now_ns,
                             std::uint64_t ops_completed) {
  ops_completed_ = ops_completed;
  collection_.on_tick(now_ns);
}

void QLearningTuner::close_window(
    const std::vector<data::TraceRecord>& window) {
  const double reward =
      static_cast<double>(ops_completed_ - prev_ops_total_);
  prev_ops_total_ = ops_completed_;

  RlTimelinePoint point;
  point.window = timeline_.size();
  point.reward = reward;
  point.epsilon = epsilon_;

  if (window.empty()) {
    point.state = -1;
    point.action = -1;
    point.ra_kb = stack_.block_layer().readahead_kb();
    timeline_.push_back(point);
    return;
  }

  const FeatureVector features = extractor_.extract_selected(
      window, stack_.block_layer().readahead_kb());
  const int state = discretize(features);

  // Q update for the transition that just finished: the action taken last
  // window earned `reward` and landed us in `state`. The first visit to a
  // (state, action) pair installs the observed return directly — with
  // zero-initialized Q and incremental updates, a single early sample of a
  // mediocre action would otherwise dominate the table forever.
  if (prev_state_ >= 0 && prev_action_ >= 0) {
    const double best_next = q_at(state, greedy_action(state));
    const double target = reward + config_.gamma * best_next;
    double& q = q_at(prev_state_, prev_action_);
    std::uint32_t& visits = visits_[static_cast<std::size_t>(prev_state_) *
                                        config_.actions_kb.size() +
                                    static_cast<std::size_t>(prev_action_)];
    if (visits == 0) {
      q = target;
    } else {
      q += config_.alpha * (target - q);
    }
    ++visits;
  }

  // Action selection: forced exploration of never-tried actions in this
  // state first, then epsilon-greedy.
  int action = -1;
  for (std::size_t a = 0; a < config_.actions_kb.size(); ++a) {
    if (visits_[static_cast<std::size_t>(state) * config_.actions_kb.size() +
                a] == 0) {
      action = static_cast<int>(a);
      break;
    }
  }
  if (action < 0) {
    const int greedy = greedy_action(state);
    if (rng_.next_double() < epsilon_) {
      if (config_.local_exploration) {
        // Step to a neighbour of the greedy action (clamped at the ends).
        const int dir = rng_.next_below(2) == 0 ? -1 : 1;
        action = greedy + dir;
        if (action < 0) action = 1;
        if (action >= action_count()) action = action_count() - 2;
        if (action < 0) action = 0;  // single-action degenerate set
      } else {
        action =
            static_cast<int>(rng_.next_below(config_.actions_kb.size()));
      }
    } else {
      action = greedy;
    }
  }
  epsilon_ = math::kml_max(epsilon_ * config_.epsilon_decay,
                           config_.epsilon_min);

  const std::uint32_t ra_kb =
      config_.actions_kb[static_cast<std::size_t>(action)];
  actuate_(ra_kb);
  observe::counter_add("readahead.rl.actuations");
  observe::gauge_set(observe::kMetricRaSetKb, ra_kb);
  KML_EVENT(observe::EventId::kRlTunerDecision,
            static_cast<std::uint64_t>(action), ra_kb);
  stack_.charge_cpu_ns(2'000);  // table lookup + update: cheap

  prev_state_ = state;
  prev_action_ = action;
  point.state = state;
  point.action = action;
  point.ra_kb = ra_kb;
  timeline_.push_back(point);
}

}  // namespace kml::readahead
