// pipeline.h — end-to-end experiment harness for the readahead case study.
//
// Everything §4 does, as reusable functions:
//   * collect_training_data — run the four training workloads on NVMe under
//     several readahead settings, window the traces, extract features
//     (the user-space training path of §3.3);
//   * readahead_sweep / best_ra_table — the "Studying the problem" study:
//     throughput for each (workload, readahead, device), and the per-class
//     optimum mapping the tuner actuates;
//   * evaluate_closed_loop — vanilla vs KML-tuned runs of any workload on
//     any device, with per-second series for the Figure 2 timeline.
#pragma once

#include "data/dataset.h"
#include "readahead/file_tuner.h"
#include "readahead/rl_tuner.h"
#include "readahead/tuner.h"
#include "runtime/engine.h"
#include "sim/trace_io.h"
#include "workloads/drivers.h"

#include <vector>

namespace kml::readahead {

// --- Engine -> classifier adapters -------------------------------------------

// Per-sample classifier over a runtime Engine (must be in inference mode
// and outlive the returned function).
inline ReadaheadTuner::PredictFn make_engine_predictor(
    runtime::Engine& engine) {
  return engine_predictor<FeatureVector>(engine);
}

// Batched classifier over Engine::infer_batch_scores: a whole window of
// feature rows classified in one forward pass. Plug into
// TunerConfig::batch_predict.
inline BatchPredictFn make_engine_batch_predictor(runtime::Engine& engine) {
  return engine_batch_predictor<FeatureVector>(engine);
}

// Shared experiment scale. The defaults are chosen so that the database is
// ~16x the page cache (misses dominate for uniform-random reads) while runs
// stay fast enough to sweep.
struct ExperimentConfig {
  sim::DeviceConfig device = sim::nvme_config();
  std::uint64_t cache_pages = 32'768;  // 128 MiB
  std::uint64_t num_keys = 2'000'000;  // x 1 KiB entries = ~2 GiB database
  std::uint32_t entry_bytes = 1024;
  std::uint32_t block_pages = 16;      // 64 KiB data blocks
  std::uint64_t seed = 7;
};

kv::KVConfig make_kv_config(const ExperimentConfig& config);
sim::StackConfig make_stack_config(const ExperimentConfig& config);

// --- Training-data collection ------------------------------------------------

struct TraceGenConfig {
  ExperimentConfig base;  // device should stay NVMe: the paper trains on
                          // NVMe only and evaluates transfer to SATA
  std::vector<std::uint32_t> ra_values_kb{8, 32, 64, 128, 256, 512};
  std::uint64_t seconds_per_run = 12;
  bool skip_first_window = true;  // cold-cache second is atypical
  // Emit all 8 candidate features instead of the paper's selected 5
  // (feature-selection ablation; see bench_ablation).
  bool all_candidate_features = false;
  // log(1+x) compression of heavy-tailed features (the default model-input
  // pipeline); disable only for the ablation.
  bool log_features = true;
};

// Labels are workloads::WorkloadType casts (0..3). Features are the paper's
// five selected features, un-normalized.
data::Dataset collect_training_data(const TraceGenConfig& config);

// Offline feature extraction from a trace capture — the paper's actual
// LTTng flow: record tracepoints to a file during the run, window and
// featurize later in user space. `ra_kb` is the readahead setting in force
// during the capture (trace files carry access records only), `label` the
// workload class. Consumes the reader from its current position.
data::Dataset dataset_from_trace(sim::TraceReader& reader, int label,
                                 std::uint32_t ra_kb,
                                 std::uint64_t period_ns = sim::kNsPerSec,
                                 bool skip_first_window = true);

// --- Sequence datasets (for the RNN/LSTM future-work experiment) -------------

// Labeled fixed-length sequences of sub-second feature vectors: the input
// the paper's planned RNN/LSTM models (§6) would consume. Each sequence is
// (steps x kNumSelectedFeatures), un-normalized.
struct SequenceDataset {
  std::vector<matrix::MatD> sequences;
  std::vector<int> labels;

  int size() const { return static_cast<int>(labels.size()); }
};

struct SequenceGenConfig {
  ExperimentConfig base;
  std::vector<std::uint32_t> ra_values_kb{64, 128};
  std::uint64_t sub_window_ms = 200;  // finer than the 1 s tuner window
  int steps_per_sequence = 5;         // 5 x 200 ms = one tuner period
  std::uint64_t seconds_per_run = 12;
};

SequenceDataset collect_sequence_data(const SequenceGenConfig& config);

// --- The readahead study (§4 "Studying the problem") -------------------------

struct SweepPoint {
  workloads::WorkloadType workload;
  std::uint32_t ra_kb;
  double ops_per_sec;
};

// The paper's 20 readahead sizes, 8..1024 KB.
std::vector<std::uint32_t> paper_ra_values();

std::vector<SweepPoint> readahead_sweep(
    const ExperimentConfig& config,
    const std::vector<workloads::WorkloadType>& workload_list,
    const std::vector<std::uint32_t>& ra_values_kb, std::uint64_t seconds);

// Best readahead per training class, extracted from sweep points.
std::array<std::uint32_t, workloads::kNumTrainingClasses> best_ra_table(
    const std::vector<SweepPoint>& sweep);

// --- Closed-loop evaluation (Table 2 / Figure 2) -----------------------------

struct EvalOutcome {
  double vanilla_ops_per_sec = 0.0;
  double kml_ops_per_sec = 0.0;
  double speedup = 0.0;  // kml / vanilla
  std::vector<double> vanilla_per_second;  // ops completed in each second
  std::vector<double> kml_per_second;
  std::vector<TimelinePoint> timeline;     // tuner decisions (KML run)
  std::uint64_t dropped_records = 0;
  // Windows the tuner spent in the vanilla fallback because the health
  // guard reported DEGRADED/FAILED (0 unless tuner_config.health is set).
  std::uint64_t degraded_windows = 0;
};

// `kml_extra_tick`, when set, is invoked with the virtual clock after the
// tuner's own tick during the KML run only — the hook tests and benches use
// to inject faults (e.g. flip the health monitor to FAILED at second N,
// roll back at second M) while the closed loop runs.
EvalOutcome evaluate_closed_loop(const ExperimentConfig& config,
                                 workloads::WorkloadType workload,
                                 const ReadaheadTuner::PredictFn& predictor,
                                 const TunerConfig& tuner_config,
                                 std::uint64_t seconds,
                                 const workloads::TickFn& kml_extra_tick = {});

// --- Mixed tenants: global vs per-file actuation ------------------------------

// Two databases share the storage stack: tenant A runs a sequential scan,
// tenant B uniform-random point reads. Any single readahead value must
// sacrifice one of them; per-file actuation (Figure 1's "update ra_pages
// for open files") serves both. This experiment measures each tenant's
// throughput under the three tuning modes.
enum class TuningMode { kVanilla, kGlobal, kPerFile };

// Throughputs are normalized by the virtual time each tenant itself
// consumed (ops per second *of that tenant's own I/O+CPU time*) — in an
// interleaved loop the raw wall rates of the two tenants are locked
// together, so per-tenant efficiency is the observable that exposes the
// global-knob tradeoff.
struct MixedTenantResult {
  double scan_entries_per_sec = 0.0;  // per scan-consumed second
  double get_ops_per_sec = 0.0;       // per get-consumed second
  double combined_ops_per_sec = 0.0;  // loop iterations per wall second
};

MixedTenantResult evaluate_mixed_tenants(
    const ExperimentConfig& config,
    const ReadaheadTuner::PredictFn& predictor,
    const TunerConfig& tuner_config, TuningMode mode, std::uint64_t seconds);

// Vanilla vs the online Q-learning agent (no pretrained model, §3.2's
// reinforcement-learning mode). Reported RL throughput excludes the first
// `warmup_seconds` (the exploration transient stays visible in timeline).
RlEvalOutcome evaluate_rl_closed_loop(const ExperimentConfig& config,
                                      workloads::WorkloadType workload,
                                      const RlConfig& rl_config,
                                      std::uint64_t seconds,
                                      std::uint64_t warmup_seconds);

}  // namespace kml::readahead
