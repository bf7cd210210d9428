// tuner.h — the readahead application of the closed loop (Figure 1).
//
// The KML application sets the new readahead size through the block
// layer, which updates ra_pages in every open struct file (§3.3 step 5).
// The loop itself — collection, windowing, health latch, inference, stage
// stamps, timeline — is readahead/closed_loop.h; this file supplies only
// the extractor, the actuator and the vanilla fallback.
#pragma once

#include "readahead/closed_loop.h"
#include "readahead/features.h"
#include "workloads/drivers.h"

#include <array>
#include <functional>
#include <vector>

namespace kml::readahead {

// Batched classifier: `count` raw (un-normalized) feature rows, contiguous
// in memory, classified in one pass; class ids land in classes_out. The
// per-file tuner collects every eligible inode's features in a window and
// classifies them with a single call (one network forward pass instead of
// one per file); pipeline.h::make_engine_batch_predictor adapts a runtime
// Engine to this signature.
using BatchPredictFn =
    std::function<void(const FeatureVector* features, int count,
                       int* classes_out)>;

struct TunerConfig {
  // Actuation table: predicted class -> readahead KB. Built per device from
  // the §4 workload study (pipeline.h::best_ra_table).
  std::array<std::uint32_t, workloads::kNumTrainingClasses> class_ra_kb{
      1024, 16, 1024, 32};
  std::uint64_t period_ns = sim::kNsPerSec;  // paper: inference once per sec
  std::size_t buffer_capacity = 1 << 16;
  // Inference cost charged to the virtual clock per classified row — the
  // paper measures 21 us per inference.
  std::uint64_t inference_cpu_ns = 21'000;
  // Graceful degradation: while `health` reports DEGRADED or FAILED the
  // tuner stops actuating model predictions and pins the readahead back to
  // `vanilla_ra_kb` (the paper's control arm — the stock kernel heuristic
  // at the device default). nullptr = always trust the model. The monitor
  // must outlive the tuner.
  const runtime::HealthMonitor* health = nullptr;
  std::uint32_t vanilla_ra_kb = 128;
  // Optional batched classifier. When set, tuners prefer it over the
  // per-sample PredictFn; the virtual-clock CPU charge stays per-sample
  // (inference_cpu_ns each), so timelines are identical either way.
  BatchPredictFn batch_predict;
};

struct TimelinePoint {
  std::uint64_t window;        // virtual second index
  int predicted_class;         // -1 when the window had no events
  std::uint32_t ra_kb;         // readahead in force after actuation
  std::uint64_t events;        // trace records in the window
  bool degraded = false;       // health guard held the vanilla fallback
};

// Registry names of the readahead loops (global and per-file).
inline constexpr LoopMetrics kReadaheadLoopMetrics{
    observe::kMetricRaWindows, observe::kMetricRaDegradedWindows,
    "readahead.decision", observe::kMetricRaStageCoalesceNs,
    observe::kMetricRaStageInferNs, observe::kMetricRaStageDecideNs};

// The global readahead knob: one feature row per window, one ra_kb.
class ReadaheadApp {
 public:
  // Training class -> workload name; nullptr when out of range.
  static const char* class_name(int cls);

 protected:
  using Features = FeatureVector;
  using Config = TunerConfig;
  using Point = TimelinePoint;
  static constexpr std::uint32_t kTracepoints =
      sim::kKmlCollectionTracepoints;
  static constexpr LoopMetrics kMetrics = kReadaheadLoopMetrics;

  ReadaheadApp(sim::StorageStack& stack, const TunerConfig& config)
      : stack_(stack), config_(config) {}

  void begin_window(Point& point) {
    point.ra_kb = stack_.block_layer().readahead_kb();
  }
  void fall_back(runtime::HealthState state);
  void featurize(const std::vector<data::TraceRecord>& window,
                 std::vector<Features>& rows) {
    rows.push_back(extractor_.extract_selected(
        window, stack_.block_layer().readahead_kb()));
  }
  void actuate(std::size_t row, int cls, Point& point);

  sim::StorageStack& stack_;
  TunerConfig config_;

 private:
  FeatureExtractor extractor_;
};

using ReadaheadTuner = ClosedLoopTuner<ReadaheadApp>;

}  // namespace kml::readahead
