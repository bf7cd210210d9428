// closed_loop.h — the closed loop of Figure 1, once, for every application.
//
// Execution flow per §3.3: (1) data-collection hooks on the memory-
// management tracepoints push records into the lock-free circular buffer;
// (2) once per second the records are windowed, processed, and normalized;
// (3-4) the features go to the KML engine for inference; (5) the KML
// application actuates its knob. Changing the knob changes future cache
// behaviour, which changes future features — the closed circuit the paper
// describes. Only the feature extraction and the actuation differ between
// applications; everything else is here (DESIGN.md §4 "One loop").
#pragma once

#include "data/circular_buffer.h"
#include "data/windower.h"
#include "observe/metrics.h"
#include "portability/kml_lib.h"
#include "runtime/engine.h"
#include "runtime/health.h"
#include "sim/stack.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace kml::readahead {

inline data::TraceRecord to_record(const sim::TraceEvent& ev) {
  return data::TraceRecord{ev.inode, ev.pgoff, ev.time_ns,
                           static_cast<std::uint8_t>(ev.type)};
}

// The data-collection hook, and the one owner of hook registration in src/
// outside the simulator (repo_hygiene.sh): the inline, lock-free, FPU-free
// part of the loop. It only converts the tracepoint payload and hands it
// to `sink`; destruction unregisters it.
class TraceHook {
 public:
  template <typename Sink>
  TraceHook(sim::TracepointRegistry& tracepoints, std::uint32_t mask,
            Sink sink)
      : tracepoints_(tracepoints),
        handle_(tracepoints.register_hook(
            [sink](const sim::TraceEvent& ev) { sink(to_record(ev)); },
            mask)) {}
  ~TraceHook() { tracepoints_.unregister(handle_); }
  TraceHook(const TraceHook&) = delete;
  TraceHook& operator=(const TraceHook&) = delete;

 private:
  sim::TracepointRegistry& tracepoints_;
  int handle_;
};

// Live collection: hook -> ring -> per-tick drain into a Windower whose
// boundaries are anchored at the stack's clock at construction.
class LiveCollection {
 public:
  LiveCollection(sim::StorageStack& stack, std::uint32_t mask,
                 std::size_t capacity, std::uint64_t period_ns,
                 data::Windower::WindowFn on_window)
      : ring_(capacity),
        windower_(period_ns, std::move(on_window), stack.clock().now_ns()),
        hook_(stack.tracepoints(), mask,
              [this](const data::TraceRecord& rec) { ring_.push(rec); }) {}
  LiveCollection(const LiveCollection&) = delete;
  LiveCollection& operator=(const LiveCollection&) = delete;

  // Continuous drain — the role of the asynchronous training thread in a
  // kernel deployment. Keeping up with the producer per tick is what lets
  // a modest circular buffer survive hundreds of thousands of records per
  // second without drops.
  void on_tick(std::uint64_t now_ns) {
    data::TraceRecord rec;
    while (ring_.pop(rec)) windower_.add(rec);
    ring_.publish_metrics();
    windower_.advance_to(now_ns);
  }

  std::uint64_t dropped() const { return ring_.dropped(); }

 private:
  data::CircularBuffer<data::TraceRecord> ring_;
  data::Windower windower_;
  TraceHook hook_;  // last: registered after, unregistered before, the ring
};

// Engine adapters. A feature row is a padding-free std::array of doubles,
// so `count` rows in a row form exactly the row-major (count x width)
// block Engine::infer_batch_scores expects: one forward pass per window.
template <typename Features>
std::function<void(const Features*, int, int*)> engine_batch_predictor(
    runtime::Engine& engine) {
  constexpr int kWidth = static_cast<int>(std::tuple_size_v<Features>);
  static_assert(sizeof(Features) == kWidth * sizeof(double));
  return [&engine](const Features* rows, int count, int* classes) {
    if (rows == nullptr || count <= 0) return;
    engine.infer_batch_scores(rows->data(), kWidth, count, nullptr, classes);
  };
}

template <typename Features>
std::function<int(const Features&)> engine_predictor(runtime::Engine& engine) {
  return [batch = engine_batch_predictor<Features>(engine)](
             const Features& row) {
    int cls = -1;
    batch(&row, 1, &cls);
    return cls;
  };
}

// Registry names of one application's loop. Stages: coalesce = feature
// extraction over the window, infer = the model call, decide = actuation.
struct LoopMetrics {
  const char* windows;
  const char* degraded_windows;
  const char* decisions;  // per-class counter "<decisions>.<class name>"
  const char* coalesce_ns;
  const char* infer_ns;
  const char* decide_ns;
};

// The loop, deriving from the application App it runs. App provides, as
// protected members: types Features, Config, Point; kTracepoints, kMetrics
// and class_name(cls) (nullptr when out of range); `stack_` and `config_`;
// a constructor (stack, config, extra...); and the hooks
//   begin_window(Point&)                 record the setting in force,
//   fall_back(runtime::HealthState)      pin the vanilla setting,
//   featurize(window, rows)              append the rows to classify,
//   actuate(row, cls, Point&)            apply one row's class.
template <typename App>
class ClosedLoopTuner : public App {
 public:
  using Features = typename App::Features;
  using Config = typename App::Config;
  using Point = typename App::Point;
  // Classifier: raw (un-normalized) features -> class id.
  using PredictFn = std::function<int(const Features&)>;
  using BatchPredictFn =
      std::function<void(const Features* rows, int count, int* classes)>;

  // A per-sample `predict` is wrapped into the batch signature once, here,
  // unless config.batch_predict is set.
  template <typename... AppArgs>
  ClosedLoopTuner(sim::StorageStack& stack, PredictFn predict,
                  const Config& config, AppArgs&&... app_args)
      : App(stack, config, std::forward<AppArgs>(app_args)...),
        predict_(config.batch_predict
                     ? config.batch_predict
                     : [predict](const Features* rows, int count,
                                 int* classes) {
                         for (int i = 0; i < count; ++i) {
                           classes[i] = predict(rows[i]);
                         }
                       }),
        collection_(stack, App::kTracepoints, config.buffer_capacity,
                    config.period_ns,
                    [this](std::uint64_t,
                           const std::vector<data::TraceRecord>& window) {
                      close_window(window);
                    }) {}
  ClosedLoopTuner(const ClosedLoopTuner&) = delete;
  ClosedLoopTuner& operator=(const ClosedLoopTuner&) = delete;

  // Drive from the workload's per-op tick; closes windows and actuates on
  // every period boundary crossed.
  void on_tick(std::uint64_t now_ns) { collection_.on_tick(now_ns); }

  const std::vector<Point>& timeline() const { return timeline_; }
  std::uint64_t windows() const { return timeline_.size(); }
  std::uint64_t dropped_records() const { return collection_.dropped(); }
  // Windows spent in the vanilla fallback (health guard active) — the
  // safety-net dwell time evaluate_closed_loop reports.
  std::uint64_t degraded_windows() const { return degraded_windows_; }

 private:
  // The vanilla revert is done once on entry to DEGRADED/FAILED so an
  // operator (or test) poking the knob mid-degradation is not fought every
  // window.
  bool health_allows_actuation() {
    if (this->config_.health == nullptr) return true;
    const runtime::HealthState state = this->config_.health->state();
    if (state == runtime::HealthState::kHealthy) {
      degraded_active_ = false;
      return true;
    }
    if (!degraded_active_) {
      degraded_active_ = true;
      this->fall_back(state);
    }
    return false;
  }

  void close_window(const std::vector<data::TraceRecord>& window) {
    Point point{};
    point.window = timeline_.size();
    point.predicted_class = -1;
    point.events = window.size();
    observe::counter_add(App::kMetrics.windows);
    const bool healthy = health_allows_actuation();
    this->begin_window(point);
    if (!healthy) {
      // Model quarantined: no inference, no CPU charge, vanilla setting in
      // force. The window's records are discarded (the extractor would
      // only feed a model nobody trusts right now).
      point.degraded = true;
      degraded_windows_ += 1;
      observe::counter_add(App::kMetrics.degraded_windows);
    } else if (!window.empty()) {  // an idle second keeps the setting
      // Per-stage attribution (telemetry v3), same taxonomy as the fleet
      // pipeline. Once-per-window clock reads and by-name registry lookups
      // on a cold path. Wall clock, not the simulator's virtual clock — this
      // measures the tuner's own CPU cost.
      const bool obs = observe::enabled();
      const std::uint64_t t0 = obs ? kml_now_ns() : 0;
      rows_.clear();
      this->featurize(window, rows_);
      const std::uint64_t t1 = obs ? kml_now_ns() : 0;
      classes_.assign(rows_.size(), -1);
      if (!rows_.empty()) {
        predict_(rows_.data(), static_cast<int>(rows_.size()),
                 classes_.data());
      }
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        this->stack_.charge_cpu_ns(this->config_.inference_cpu_ns);
      }
      const std::uint64_t t2 = obs ? kml_now_ns() : 0;
      for (std::size_t i = 0; i < classes_.size(); ++i) {
        this->actuate(i, classes_[i], point);
        count_decision(classes_[i]);
      }
      if (obs) {
        observe::hist_record(App::kMetrics.coalesce_ns, t1 - t0);
        observe::hist_record(App::kMetrics.infer_ns, t2 - t1);
        observe::hist_record(App::kMetrics.decide_ns, kml_now_ns() - t2);
      }
    }
    timeline_.push_back(point);
  }

  // The registry copies the counter name at registration, so the stack
  // buffer is fine.
  static void count_decision(int cls) {
    const char* name = App::class_name(cls);
    if (name == nullptr) return;
    char counter[48];
    std::snprintf(counter, sizeof(counter), "%s.%s", App::kMetrics.decisions,
                  name);
    observe::counter_add(counter);
  }

  BatchPredictFn predict_;
  // Window-scoped staging, reused across windows: feature rows (contiguous,
  // ready for one batched inference) and the class ids coming back.
  std::vector<Features> rows_;
  std::vector<int> classes_;
  std::vector<Point> timeline_;
  std::uint64_t degraded_windows_ = 0;
  bool degraded_active_ = false;  // vanilla fallback currently pinned
  LiveCollection collection_;     // last: its hook goes first
};

}  // namespace kml::readahead
