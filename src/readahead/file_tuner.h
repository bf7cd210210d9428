// file_tuner.h — per-file readahead tuning.
//
// The paper's actuation path updates "ra_pages for open files" (Figure 1) —
// per-file state, not one global knob. That granularity is what saves mixed
// tenants: when a sequential scan and a random-read workload share the
// machine, any single readahead value must sacrifice one of them. The
// PerFileTuner runs the same closed loop (closed_loop.h) as the global
// tuner, demultiplexes each window by inode, classifies every busy file in
// one batched call, and actuates each struct file independently.
#pragma once

#include "readahead/features.h"
#include "readahead/tuner.h"

#include <unordered_map>
#include <vector>

namespace kml::readahead {

struct FileDecision {
  std::uint64_t inode;
  int predicted_class;
  std::uint32_t ra_kb;
  std::uint64_t events;
};

class PerFileApp {
 public:
  // Decisions made in the most recently closed window.
  const std::vector<FileDecision>& last_window_decisions() const {
    return decisions_;
  }

  // Inodes with per-file state. A deleted file's state is dropped when the
  // next window is featurized (inode numbers are never reused), so this
  // tracks the live files the tuner has seen, not every file ever read.
  std::size_t tracked_files() const { return files_.size(); }

 protected:
  using Features = FeatureVector;
  using Config = TunerConfig;
  // The timeline records the global readahead in force; per-file choices
  // are in last_window_decisions().
  using Point = TimelinePoint;
  static constexpr std::uint32_t kTracepoints =
      sim::kKmlCollectionTracepoints;
  static constexpr LoopMetrics kMetrics = kReadaheadLoopMetrics;
  static const char* class_name(int cls) {
    return ReadaheadApp::class_name(cls);
  }

  // `min_events`: files with fewer records in a window are left alone
  // (too little signal; also skips cold/incidental files like the WAL
  // between group commits).
  PerFileApp(sim::StorageStack& stack, const TunerConfig& config,
             std::uint64_t min_events = 64)
      : stack_(stack), config_(config), min_events_(min_events) {}

  void begin_window(Point& point) {
    decisions_.clear();
    point.ra_kb = stack_.block_layer().readahead_kb();
  }
  void fall_back(runtime::HealthState state);
  void featurize(const std::vector<data::TraceRecord>& window,
                 std::vector<Features>& rows);
  void actuate(std::size_t row, int cls, Point& point);

  sim::StorageStack& stack_;
  TunerConfig config_;

 private:
  struct FileState {
    FeatureExtractor extractor;
    std::vector<data::TraceRecord> window;  // reused, cleared in place
    bool actuated = false;  // we changed this inode's ra from the default
  };

  std::uint64_t min_events_;
  std::unordered_map<std::uint64_t, FileState> files_;
  std::vector<FileDecision> decisions_;  // one per feature row
};

using PerFileTuner = ClosedLoopTuner<PerFileApp>;

}  // namespace kml::readahead
