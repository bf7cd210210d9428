#include "readahead/file_tuner.h"

#include "observe/flight_recorder.h"
#include "portability/log.h"

namespace kml::readahead {

void PerFileApp::fall_back(runtime::HealthState state) {
  // Model quarantined: restore every inode we ever actuated back to the
  // vanilla default.
  KML_WARN("file_tuner: health %s — reverting %zu tuned files to vanilla "
           "readahead (%u KB)",
           runtime::health_state_name(state), files_.size(),
           config_.vanilla_ra_kb);
  for (auto& [inode, file] : files_) {
    if (file.actuated && stack_.files().exists(inode)) {
      stack_.block_layer().set_file_readahead_kb(inode,
                                                 config_.vanilla_ra_kb);
    }
    file.actuated = false;
  }
}

void PerFileApp::featurize(const std::vector<data::TraceRecord>& window,
                           std::vector<Features>& rows) {
  for (const data::TraceRecord& rec : window) {
    files_[rec.inode].window.push_back(rec);
  }
  // One feature row per busy, live inode, staged contiguously so the whole
  // window is classified in one batched inference (one network forward
  // pass) instead of one per file.
  for (auto it = files_.begin(); it != files_.end();) {
    const std::uint64_t inode = it->first;
    FileState& file = it->second;
    if (!stack_.files().exists(inode)) {  // compacted away
      it = files_.erase(it);
      continue;
    }
    if (file.window.size() >= min_events_) {
      const std::uint32_t ra_kb = stack_.block_layer().file_readahead_kb(inode);
      rows.push_back(file.extractor.extract_selected(file.window, ra_kb));
      decisions_.push_back(FileDecision{inode, -1, ra_kb, file.window.size()});
    }
    file.window.clear();
    ++it;
  }
}

void PerFileApp::actuate(std::size_t row, int cls, Point&) {
  FileDecision& decision = decisions_[row];
  decision.predicted_class = cls;
  if (cls < 0 || cls >= workloads::kNumTrainingClasses) return;
  decision.ra_kb = config_.class_ra_kb[static_cast<std::size_t>(cls)];
  stack_.block_layer().set_file_readahead_kb(decision.inode, decision.ra_kb);
  files_[decision.inode].actuated = true;
  observe::counter_add("readahead.file.actuations");
  KML_EVENT(observe::EventId::kFileTunerDecision,
            static_cast<std::uint64_t>(cls), decision.ra_kb);
}

}  // namespace kml::readahead
