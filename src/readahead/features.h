// features.h — the readahead model's feature pipeline (§4).
//
// "We tried a total of eight features which we selected based on our domain
// expertise... We then experimentally narrowed them down to just five
// features that had the most predictive accuracy, also confirmed using
// Pearson correlation analysis."
//
// Candidate features (window = one second of trace records):
//   0 number of tracepoints in the window              (selected)
//   1 cumulative moving average of page offsets        (selected)
//   2 cumulative moving standard deviation of offsets
//   3 mean |Δ page offset| between consecutive records (selected)
//   4 current readahead value, KB                      (selected)
//   5 fraction of write (writeback_dirty_page) records
//   6 distinct inodes touched in the window            (selected)
//   7 maximum |Δ page offset| in the window
//
// "Cumulative" statistics run from extractor creation (module load), not
// per window — the paper's CMA/CMSD features. Z-scoring happens later (the
// normalizer ships inside the model file).
//
// Reproduction deviation (documented in DESIGN.md): the paper's selected
// five are {0,1,2,3,4}. Re-running the selection analysis on the simulated
// stack keeps the distinct-inode count (6) and drops the cumulative stddev
// (2): the stddev is nearly collinear with the mean, while the inode count
// is the only *scale-invariant, bounded* signal separating write-mixed
// workloads (which also touch the WAL file) from read-only random ones —
// the write fraction (5) has near-zero variance in training, so its
// z-scores explode on unseen write intensities.
#pragma once

#include "data/windower.h"
#include "math/stats.h"

#include <array>
#include <cstdint>
#include <vector>

namespace kml::readahead {

inline constexpr int kNumCandidateFeatures = 8;
inline constexpr int kNumSelectedFeatures = 5;

using CandidateVector = std::array<double, kNumCandidateFeatures>;
using FeatureVector = std::array<double, kNumSelectedFeatures>;

class FeatureExtractor {
 public:
  // Compute the candidate vector for one window and fold the window into
  // the cumulative state.
  CandidateVector extract(const std::vector<data::TraceRecord>& window,
                          std::uint32_t current_ra_kb);

  // Reduce candidates to the selected five, in model-input order:
  //   [0] event count, [1] cumulative offset mean, [2] mean |Δ offset|,
  //   [3] distinct inodes, [4] current readahead KB.
  static FeatureVector select(const CandidateVector& all);

  // log(1+x) on the heavy-tailed candidates (all but the write fraction).
  // Event counts and offset statistics span an order of magnitude between
  // NVMe and SATA for the same workload; without this compression a model
  // trained on NVMe does not transfer to SATA (the paper's key evaluation
  // protocol) — bench_ablation quantifies the difference.
  static CandidateVector log_compress(const CandidateVector& all);

  // The model-input pipeline: extract -> log-compress -> select.
  FeatureVector extract_selected(const std::vector<data::TraceRecord>& window,
                                 std::uint32_t current_ra_kb) {
    return select(log_compress(extract(window, current_ra_kb)));
  }

  // Forget all cumulative state (fresh module load).
  void reset();

 private:
  math::RunningStats cumulative_offsets_;
  bool have_prev_ = false;
  std::uint64_t prev_pgoff_ = 0;
  // Distinct inodes of the current window, sorted; scratch reused across
  // calls so a warmed extractor does not allocate.
  std::vector<std::uint64_t> window_inodes_;
};

}  // namespace kml::readahead
