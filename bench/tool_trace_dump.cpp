// tool_trace_dump — export the flight recorder as Chrome trace-event JSON.
//
// Drives a short instrumented run (closed-loop tuner windows, a
// training-thread burst, engine train steps with an injected fault so the
// rollback/health causal chain appears), then exports every flight-recorder
// ring through the C API. The JSON loads directly in chrome://tracing or
// https://ui.perfetto.dev: trainer batches render as duration spans, every
// other seam as instant events, one track per recording thread.
//
// Usage: tool_trace_dump [eval-seconds] [--out trace.json] [--text]
//   --out   output path (default kml_trace.json)
//   --text  additionally dump the human-readable form next to it (.txt)
#include "bench_common.h"

#include "capi/kml_api.h"
#include "observe/export.h"
#include "observe/flight_recorder.h"
#include "portability/fault.h"
#include "runtime/engine.h"
#include "runtime/training_thread.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace kml;

nn::Network make_readahead_shaped_net() {
  math::Rng rng(7);
  nn::Network net = nn::build_mlp_classifier(
      readahead::kNumSelectedFeatures, 16, workloads::kNumTrainingClasses,
      rng);
  std::vector<double> means(readahead::kNumSelectedFeatures, 10.0);
  std::vector<double> stds(readahead::kNumSelectedFeatures, 2.0);
  net.normalizer().import_moments(means, stds);
  return net;
}

void count_records(void* user, const data::TraceRecord*, std::size_t n) {
  *static_cast<std::uint64_t*>(user) += n;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t eval_seconds = 2;
  const char* out_path = "kml_trace.json";
  bool text = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--text") == 0) {
      text = true;
    } else {
      const std::uint64_t s = std::strtoull(argv[i], nullptr, 10);
      if (s > 0) eval_seconds = s;
    }
  }

  if (kml_metrics_enabled() == 0) {
    std::printf("kml::observe is compiled out (KML_OBSERVE=OFF) or "
                "disabled; nothing to trace\n");
    return 0;
  }

  // Closed loop: tuner decisions + buffer publishes + inference seams.
  readahead::ExperimentConfig config;
  config.cache_pages = 8'192;
  config.num_keys = 200'000;

  runtime::Engine engine(make_readahead_shaped_net());
  runtime::HealthMonitor monitor;
  engine.attach_health(&monitor);
  const readahead::ReadaheadTuner::PredictFn predictor =
      readahead::make_engine_predictor(engine);
  readahead::TunerConfig tuner_config;
  tuner_config.health = &monitor;
  std::printf("running closed loop (%llu virtual seconds, readrandom)...\n",
              static_cast<unsigned long long>(eval_seconds));
  readahead::evaluate_closed_loop(config,
                                  workloads::WorkloadType::kReadRandom,
                                  predictor, tuner_config, eval_seconds);

  // Training-thread burst: begin/end span pairs on the trainer track.
  {
    std::uint64_t seen = 0;
    runtime::TrainingThread trainer(1 << 12, 128, count_records, &seen);
    for (std::uint64_t i = 0; i < 20'000; ++i) {
      trainer.submit(data::TraceRecord{1, i, i, 0});
    }
  }

  // Engine train steps with one injected fault: the full causal chain
  // (fault -> invalid step -> FAILED -> rollback -> DEGRADED) lands in the
  // trace, and the monitor freezes the rings at the DEGRADED transition so
  // the export below sees exactly that window.
  {
    engine.set_mode(runtime::Mode::kTraining);
    nn::CrossEntropyLoss loss;
    nn::SGD opt(0.01, 0.0);
    opt.attach(engine.network().params());
    matrix::MatD x(1, readahead::kNumSelectedFeatures);
    matrix::MatD y(1, workloads::kNumTrainingClasses);
    for (int j = 0; j < readahead::kNumSelectedFeatures; ++j) {
      x.at(0, j) = 0.5 * j;
    }
    y.at(0, 1) = 1.0;
    for (int i = 0; i < 8; ++i) engine.train_batch(x, y, loss, opt);
    kml_fault_arm_nth(FaultSite::kTrainStep, 1, 1);
    engine.train_batch(x, y, loss, opt);  // the injected invalid step
    kml_fault_disarm(FaultSite::kTrainStep);
    engine.rollback();
  }

  std::printf("flight recorder: %llu events recorded, frozen=%d\n",
              kml_trace_event_count(), kml_trace_frozen());

  const observe::FlightSnapshot snap = observe::flight_snapshot();
  const std::string trace = observe::format_chrome_trace(snap);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(trace.data(), 1, trace.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes, %zu thread track(s)) — load in "
              "chrome://tracing or ui.perfetto.dev\n",
              out_path, trace.size(), snap.threads.size());

  if (text) {
    std::string txt_path = std::string(out_path) + ".txt";
    const std::string txt = observe::format_flight_text(snap);
    std::FILE* tf = std::fopen(txt_path.c_str(), "w");
    if (tf != nullptr) {
      std::fwrite(txt.data(), 1, txt.size(), tf);
      std::fclose(tf);
      std::printf("wrote %s\n", txt_path.c_str());
    }
  }
  return 0;
}
