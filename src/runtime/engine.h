// engine.h — the KML engine: mode switching and instrumented inference (§3.3).
//
// "KML can do either training or inference in user or kernel spaces. Also,
// one can switch between training and inference modes as needed." The engine
// wraps a Network with an explicit mode, the fitted normalizer, and latency/
// count instrumentation (the paper reports 21 µs per inference and 51 µs per
// training iteration for the readahead model; bench_overheads reproduces the
// measurement through these counters).
#pragma once

#include "nn/network.h"
#include "nn/serialize.h"
#include "runtime/health.h"
#include "runtime/workspace.h"

#include <cstdint>
#include <vector>

namespace kml::runtime {

enum class Mode { kTraining, kInference };

struct EngineStats {
  std::uint64_t inferences = 0;
  std::uint64_t train_iterations = 0;
  std::uint64_t inference_ns_total = 0;
  std::uint64_t train_ns_total = 0;
  // Failure accounting (the health-guard's raw material).
  std::uint64_t invalid_train_steps = 0;  // non-finite loss or weights
  std::uint64_t checkpoints = 0;          // last-known-good snapshots taken
  std::uint64_t rollbacks = 0;            // snapshots restored

  double avg_inference_us() const {
    return inferences == 0
               ? 0.0
               : static_cast<double>(inference_ns_total) / inferences / 1e3;
  }
  double avg_train_us() const {
    return train_iterations == 0
               ? 0.0
               : static_cast<double>(train_ns_total) / train_iterations / 1e3;
  }
};

class Engine {
 public:
  explicit Engine(nn::Network net);

  // Load a deployed model from the KML file format.
  static bool from_file(Engine& out, const char* path);

  Mode mode() const { return mode_; }
  // Mode switching also flips the network's train/eval flag: inference mode
  // disables every backward-pass cache, which is what makes the steady-state
  // inference path allocation-free.
  void set_mode(Mode m) {
    mode_ = m;
    net_.set_training(m == Mode::kTraining);
  }

  // The engine's one inference entry: classify `count` raw (un-normalized)
  // feature rows in one forward pass; a single sample is count == 1.
  // `features` is row-major (count x n). Applies the model's Z-score
  // normalizer, runs the network, and writes
  //   * scores_out (row-major, count x num_classes()): each row of the
  //     final layer's output before the argmax — the fleet service applies
  //     a per-tenant output bias on top of these without a second pass;
  //   * classes_out[i]: the argmax of row i.
  // Either output may be nullptr, but not both. Only legal in inference
  // mode. Returns the number of rows classified: count, or 0 on bad
  // arguments (including n != num_features()). One matmul over the whole window amortizes the per-call
  // fixed costs that dominate tiny models. After the first call at a given
  // batch size (or after warm_up), repeat calls perform zero heap
  // allocations (enforced by a ctest guard).
  int infer_batch_scores(const double* features, int n, int count,
                         double* scores_out, int* classes_out);

  // Output width of the model (classes for a classifier); 0 when the
  // network has no shaped layers.
  int num_classes();

  // Input width of the model; 0 when the network has no shaped layers.
  int num_features() { return model_in_features(); }

  // Presize every hot-path buffer — the network's forward/backward scratch,
  // the engine's input staging slot, and the checkpoint shadow — for
  // batches of up to `max_batch_rows` rows, so even the *first* inference
  // or training step allocates nothing. The §3.3 "reserve before use"
  // discipline, applied at model build/load time.
  void warm_up(int max_batch_rows);

  // One SGD iteration on a batch (training mode only). Returns the loss.
  //
  // The step is *validated*: if the loss and every weight are finite, the
  // engine checkpoints the weights as last-known-good; otherwise it counts
  // an invalid step and keeps the previous checkpoint. Either way the
  // outcome is reported to the attached HealthMonitor (if any).
  double train_batch(const matrix::MatD& x, const matrix::MatD& y,
                     nn::Loss& loss, nn::Optimizer& opt);

  // Health-guard integration: outcomes of train_batch feed `monitor`
  // (observe_train_step), and rollback() notifies it. Pass nullptr to
  // detach. The monitor must outlive the engine.
  void attach_health(HealthMonitor* monitor) { health_ = monitor; }
  HealthMonitor* health() const { return health_; }

  // Last-known-good weight management. checkpoint() snapshots the current
  // weights unconditionally (called automatically after validated train
  // steps); rollback() restores the snapshot and returns false when none
  // exists. A successful rollback informs the attached monitor.
  //
  // Rollback restores *weights only*: optimizer state (momentum/Adam
  // moments) lives in the caller's Optimizer and still holds values from
  // the bad step — re-attach() the optimizer after a rollback, which
  // recreates its state buffers zeroed.
  void checkpoint();
  bool has_checkpoint() const { return has_checkpoint_; }
  bool rollback();

  // True when every parameter of the network is finite.
  bool weights_finite();

  // Input-drift tracking: infer_batch_scores feeds every raw feature row
  // into this tracker, whose baseline is the normalizer's (frozen)
  // training-time moments. The max |z| is published to the registry
  // ("data.drift.max_z_milli") so the health monitor can watch it.
  const data::DriftTracker& drift() const { return drift_; }
  // Re-adopt the normalizer's current moments (e.g. after a refit).
  void rebaseline_drift();

  nn::Network& network() { return net_; }
  Workspace& workspace() { return ws_; }
  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

 private:
  // Workspace slot of the count x n input staging.
  static constexpr int kSlotBatchIn = 0;

  int model_in_features();

  // Per-step model introspection (loss + per-layer gradient/weight-delta
  // norms) into the observe ring; no-op when observe is disabled. Must stay
  // allocation-free: it reads params_/good_params_ and the cached
  // param_layer_ map only.
  void record_introspection(double loss, bool valid, std::uint64_t ts_ns);
  // Drift bookkeeping for one raw feature row.
  void observe_drift_row(const double* features, int n);
  // Top-2 output margin of `row`, milli-scaled, recorded as the
  // prediction-confidence histogram.
  static std::int64_t confidence_milli(const matrix::MatD& out, int row);

  nn::Network net_;
  Mode mode_ = Mode::kInference;
  EngineStats stats_;
  // Input staging pool; reshaped in place on the hot path.
  Workspace ws_;
  // net_.params() materializes a fresh vector per call; cached once here.
  // ParamRefs point into Layer-owned matrices, whose addresses survive
  // Network moves (layers are held by unique_ptr).
  std::vector<nn::ParamRef> params_;
  // Last-known-good parameter values, in params() order.
  std::vector<matrix::MatD> good_params_;
  bool has_checkpoint_ = false;
  HealthMonitor* health_ = nullptr;
  // params_[i] belongs to trainable layer param_layer_[i] (introspection
  // attribution; built once at construction).
  std::vector<int> param_layer_;
  int trainable_layers_ = 0;
  data::DriftTracker drift_;
};

}  // namespace kml::runtime
