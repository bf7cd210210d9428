#include "readahead/features.h"

#include "math/approx.h"

#include <algorithm>

namespace kml::readahead {

CandidateVector FeatureExtractor::extract(
    const std::vector<data::TraceRecord>& window,
    std::uint32_t current_ra_kb) {
  CandidateVector f{};

  std::uint64_t writes = 0;
  double abs_diff_sum = 0.0;
  double abs_diff_max = 0.0;
  std::uint64_t diff_count = 0;
  window_inodes_.clear();
  const data::TraceRecord* prev_rec = nullptr;

  for (const data::TraceRecord& rec : window) {
    cumulative_offsets_.add(static_cast<double>(rec.pgoff));
    if (rec.kind != 0) ++writes;
    // Consecutive records mostly share an inode (readahead inserts whole
    // windows of one file), so only a change of inode searches the list.
    if (prev_rec == nullptr || rec.inode != prev_rec->inode) {
      const auto it = std::lower_bound(window_inodes_.begin(),
                                       window_inodes_.end(), rec.inode);
      if (it == window_inodes_.end() || *it != rec.inode) {
        window_inodes_.insert(it, rec.inode);
      }
    }
    prev_rec = &rec;
    if (have_prev_) {
      const double d = math::kml_abs(static_cast<double>(rec.pgoff) -
                                     static_cast<double>(prev_pgoff_));
      abs_diff_sum += d;
      abs_diff_max = math::kml_max(abs_diff_max, d);
      ++diff_count;
    }
    prev_pgoff_ = rec.pgoff;
    have_prev_ = true;
  }

  f[0] = static_cast<double>(window.size());
  f[1] = cumulative_offsets_.mean();
  f[2] = cumulative_offsets_.stddev();
  f[3] = diff_count == 0 ? 0.0
                         : abs_diff_sum / static_cast<double>(diff_count);
  f[4] = static_cast<double>(current_ra_kb);
  f[5] = window.empty()
             ? 0.0
             : static_cast<double>(writes) / static_cast<double>(window.size());
  f[6] = static_cast<double>(window_inodes_.size());
  f[7] = abs_diff_max;
  return f;
}

FeatureVector FeatureExtractor::select(const CandidateVector& all) {
  return FeatureVector{all[0], all[1], all[3], all[6], all[4]};
}

CandidateVector FeatureExtractor::log_compress(const CandidateVector& all) {
  CandidateVector out = all;
  for (int i = 0; i < kNumCandidateFeatures; ++i) {
    if (i == 5) continue;  // write fraction is already in [0, 1]
    out[static_cast<std::size_t>(i)] =
        math::kml_log(1.0 + out[static_cast<std::size_t>(i)]);
  }
  return out;
}

void FeatureExtractor::reset() {
  cumulative_offsets_.reset();
  have_prev_ = false;
  prev_pgoff_ = 0;
}

}  // namespace kml::readahead
