#include "readahead/tuner.h"

#include "observe/flight_recorder.h"
#include "portability/log.h"

namespace kml::readahead {

const char* ReadaheadApp::class_name(int cls) {
  if (cls < 0 || cls >= workloads::kNumTrainingClasses) return nullptr;
  return workloads::workload_name(static_cast<workloads::WorkloadType>(cls));
}

void ReadaheadApp::fall_back(runtime::HealthState state) {
  stack_.block_layer().set_readahead_kb(config_.vanilla_ra_kb);
  KML_WARN("tuner: health %s — reverting to vanilla readahead (%u KB)",
           runtime::health_state_name(state), config_.vanilla_ra_kb);
}

void ReadaheadApp::actuate(std::size_t, int cls, Point& point) {
  point.predicted_class = cls;
  if (cls < 0 || cls >= workloads::kNumTrainingClasses) return;
  const std::uint32_t ra_kb =
      config_.class_ra_kb[static_cast<std::size_t>(cls)];
  stack_.block_layer().set_readahead_kb(ra_kb);
  observe::gauge_set(observe::kMetricRaSetKb, ra_kb);
  KML_EVENT(observe::EventId::kTunerDecision, static_cast<std::uint64_t>(cls),
            ra_kb);
  point.ra_kb = ra_kb;
}

}  // namespace kml::readahead
