#include "runtime/engine.h"

#include "observe/flight_recorder.h"
#include "observe/introspect.h"
#include "observe/metrics.h"
#include "portability/fault.h"
#include "portability/kml_lib.h"
#include "portability/log.h"
#include "portability/threadpool.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace kml::runtime {

namespace {

// Argmax over one output row — the allocation-free core of argmax_rows.
int argmax_row(const matrix::MatD& m, int row) {
  const double* r = m.row(row);
  int best = 0;
  for (int j = 1; j < m.cols(); ++j) {
    if (r[j] > r[best]) best = j;
  }
  return best;
}

// Milli-scale a double with saturation; the bridge from the FPU-using
// runtime layer into observe's integer-only channel.
std::int64_t to_milli(double v) {
  double m = v * 1000.0;
  if (m > 9e18) m = 9e18;
  if (m < -9e18) m = -9e18;
  return static_cast<std::int64_t>(m);
}

// How often the infer paths publish the drift gauge (power of two so the
// check is a mask).
constexpr std::uint64_t kDriftPublishEvery = 64;

}  // namespace

Engine::Engine(nn::Network net) : net_(std::move(net)) {
  params_ = net_.params();
  net_.set_training(mode_ == Mode::kTraining);
  // Attribute each flat param to its trainable layer once — Layer::params()
  // allocates, so the mapping must never be rebuilt on the train path.
  param_layer_.clear();
  trainable_layers_ = 0;
  for (int li = 0; li < net_.num_layers(); ++li) {
    const std::size_t k = net_.layer(li).params().size();
    if (k == 0) continue;
    for (std::size_t i = 0; i < k; ++i) param_layer_.push_back(trainable_layers_);
    ++trainable_layers_;
  }
  rebaseline_drift();
}

void Engine::rebaseline_drift() { drift_.set_baseline(net_.normalizer()); }

bool Engine::from_file(Engine& out, const char* path) {
  nn::Network net;
  if (!nn::load_model(net, path)) return false;
  out = Engine(std::move(net));
  return true;
}

int Engine::model_in_features() {
  for (int i = 0; i < net_.num_layers(); ++i) {
    const int in = net_.layer(i).in_features();
    if (in > 0) return in;
  }
  return 0;
}

void Engine::warm_up(int max_batch_rows) {
  if (max_batch_rows <= 0) return;
  net_.reserve_scratch(max_batch_rows);
  const int n = model_in_features();
  if (n > 0) ws_.warm(kSlotBatchIn, max_batch_rows, n);
  // Shadow copies for checkpoint() at the parameter shapes (contents are
  // garbage until the first real checkpoint; has_checkpoint_ stays false).
  good_params_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    good_params_[i].ensure_shape(params_[i].value->rows(),
                                 params_[i].value->cols());
  }
}

int Engine::num_classes() {
  for (int i = net_.num_layers() - 1; i >= 0; --i) {
    const int out = net_.layer(i).out_features();
    if (out > 0) return out;
  }
  return 0;
}

int Engine::infer_batch_scores(const double* features, int n, int count,
                               double* scores_out, int* classes_out) {
  assert(mode_ == Mode::kInference);
  if (features == nullptr || n <= 0 || n != model_in_features() ||
      count <= 0 || (scores_out == nullptr && classes_out == nullptr)) {
    return 0;
  }
  const std::uint64_t start = kml_now_ns();

  matrix::MatD& x = ws_.slot(kSlotBatchIn);
  x.ensure_shape(count, n);
  // Rows are staged/normalized and argmax'd independently, so both loops
  // partition across the pool (bit-identical at any thread count); the
  // forward pass parallelizes inside the matmul kernels. Grain keeps a few
  // thousand elements per chunk so small batches stay serial.
  const long row_grain = n > 0 ? (4096 + n - 1) / n : 1;
  parallel_for(count, row_grain, [&](long i0, long i1, int) {
    for (long i = i0; i < i1; ++i) {
      double* xrow = x.row(static_cast<int>(i));
      const double* frow = features + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) xrow[j] = frow[j];
      net_.normalizer().transform_row(xrow, n);
    }
  });

  // Drift sees raw rows (pre-normalization) on the consumer thread; the
  // tracker is not thread-safe so this stays outside the parallel region.
  for (int i = 0; i < count; ++i) {
    observe_drift_row(features + static_cast<std::size_t>(i) * n, n);
  }

  const matrix::MatD& out = net_.forward_scratch(x);
  const long out_grain =
      out.cols() > 0 ? (4096 + out.cols() - 1) / out.cols() : 1;
  parallel_for(count, out_grain, [&](long i0, long i1, int) {
    for (long i = i0; i < i1; ++i) {
      if (classes_out != nullptr) {
        classes_out[i] = argmax_row(out, static_cast<int>(i));
      }
      if (scores_out != nullptr) {
        const double* src = out.row(static_cast<int>(i));
        double* dst = scores_out + static_cast<std::size_t>(i) * out.cols();
        for (int j = 0; j < out.cols(); ++j) dst[j] = src[j];
      }
    }
  });
  if (observe::enabled()) {
    // Confidence is a distribution read via percentiles, so batches
    // stride-sample 1 row in 8: the top-2 margin scan plus a histogram
    // record per row was a measurable slice of fleet serving throughput,
    // and every batch still contributes its first row — so single-row
    // calls (count == 1) record every decision.
    for (int i = 0; i < count; i += 8) {
      KML_HIST_RECORD(observe::kMetricConfidenceMilli,
                      static_cast<std::uint64_t>(confidence_milli(out, i)));
    }
  }

  stats_.inferences += static_cast<std::uint64_t>(count);
  const std::uint64_t elapsed = kml_now_ns() - start;
  stats_.inference_ns_total += elapsed;
  KML_HIST_RECORD(observe::kMetricInferenceNs, elapsed);
  return count;
}

double Engine::train_batch(const matrix::MatD& x, const matrix::MatD& y,
                           nn::Loss& loss, nn::Optimizer& opt) {
  assert(mode_ == Mode::kTraining);
  const std::uint64_t start = kml_now_ns();
  const double l = net_.train_step(x, y, loss, opt);
  stats_.train_iterations += 1;
  const std::uint64_t end = kml_now_ns();
  stats_.train_ns_total += end - start;

  // Validate before the step's weights can become the rollback target: a
  // non-finite loss or any non-finite weight keeps the previous checkpoint.
  bool valid = std::isfinite(l) && weights_finite();
  // Fault-injection rehearsal: treat the step as invalid even though the
  // math succeeded, so the rollback/health/flight-recorder causal chain can
  // be exercised deterministically.
  if (kml_fault_should_fail(FaultSite::kTrainStep)) {
    KML_EVENT(observe::EventId::kFaultInjected,
              static_cast<std::uint64_t>(FaultSite::kTrainStep),
              kml_fault_injected(FaultSite::kTrainStep));
    valid = false;
  }
  KML_COUNTER_INC(observe::kMetricTrainSteps);
  KML_EVENT(observe::EventId::kEngineTrainStep, stats_.train_iterations,
            static_cast<std::uint64_t>(to_milli(l)));

  // Introspection samples the gradients and the weight motion *before*
  // checkpoint() overwrites good_params_ with this step's weights.
  record_introspection(l, valid, end);

  if (valid) {
    checkpoint();
  } else {
    stats_.invalid_train_steps += 1;
    KML_COUNTER_INC(observe::kMetricEngineInvalidSteps);
    KML_EVENT(observe::EventId::kEngineInvalidStep, stats_.train_iterations,
              static_cast<std::uint64_t>(to_milli(l)));
    KML_WARN("engine: invalid train step (loss=%f); checkpoint withheld", l);
  }
  if (health_ != nullptr) health_->observe_train_step(l, valid);
  return l;
}

void Engine::record_introspection(double loss, bool valid,
                                  std::uint64_t ts_ns) {
  if (!observe::enabled()) return;
  observe::StepSample s{};
  s.step = stats_.train_iterations;
  s.ts_ns = ts_ns;
  s.loss_milli = to_milli(loss);
  s.valid = valid ? 1 : 0;
  constexpr int kMaxLayers = static_cast<int>(observe::kIntrospectLayers);
  const int layers = trainable_layers_ < kMaxLayers ? trainable_layers_
                                                    : kMaxLayers;
  s.num_layers = static_cast<std::uint32_t>(layers);
  // Accumulate per-layer sums of squares in one flat pass over the params;
  // the layer attribution comes from the cached param_layer_ map.
  double grad_sq[observe::kIntrospectLayers] = {0.0};
  double delta_sq[observe::kIntrospectLayers] = {0.0};
  const bool have_prev =
      has_checkpoint_ && good_params_.size() == params_.size();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    // Layers beyond the sample's capacity fold into the last slot.
    int li = param_layer_[i];
    if (li >= kMaxLayers) li = kMaxLayers - 1;
    const matrix::MatD& g = *params_[i].grad;
    const double* gd = g.data();
    double acc = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) acc += gd[k] * gd[k];
    grad_sq[li] += acc;
    if (have_prev && params_[i].value->same_shape(good_params_[i])) {
      const double* va = params_[i].value->data();
      const double* vb = good_params_[i].data();
      double dacc = 0.0;
      for (std::size_t k = 0; k < params_[i].value->size(); ++k) {
        const double d = va[k] - vb[k];
        dacc += d * d;
      }
      delta_sq[li] += dacc;
    }
  }
  std::int64_t worst_grad_milli = 0;
  for (int li = 0; li < layers; ++li) {
    const std::int64_t gm = to_milli(std::sqrt(grad_sq[li]));
    s.grad_norm_milli[li] = gm;
    s.wdelta_norm_milli[li] = to_milli(std::sqrt(delta_sq[li]));
    if (gm > worst_grad_milli) worst_grad_milli = gm;
  }
  observe::introspect_record(s);
  // The health monitor's gradient-explosion signal reads this gauge, gated
  // on the train-step counter advancing.
  KML_GAUGE_SET(observe::kMetricGradNormMilli,
                static_cast<std::uint64_t>(worst_grad_milli));
}

void Engine::observe_drift_row(const double* features, int n) {
  if (!drift_.active()) return;
  drift_.observe_row(features, n);
  if ((drift_.samples() & (kDriftPublishEvery - 1)) != 0) return;
  const std::int64_t z = drift_.max_z_milli();
  (void)z;  // unused when KML_OBSERVE=OFF compiles the sinks away
  KML_GAUGE_SET(observe::kMetricDriftZMilli, static_cast<std::uint64_t>(z));
  KML_GAUGE_SET(observe::kMetricDriftSamples, drift_.samples());
  KML_EVENT(observe::EventId::kDriftSample, static_cast<std::uint64_t>(z),
            drift_.samples());
}

std::int64_t Engine::confidence_milli(const matrix::MatD& out, int row) {
  const double* r = out.row(row);
  const int cols = out.cols();
  if (cols == 1) return to_milli(r[0]);
  double best = r[0], second = r[1];
  if (second > best) {
    best = r[1];
    second = r[0];
  }
  for (int j = 2; j < cols; ++j) {
    if (r[j] > best) {
      second = best;
      best = r[j];
    } else if (r[j] > second) {
      second = r[j];
    }
  }
  // Top-2 margin: ~0 means the classifier was torn between two classes.
  std::int64_t m = to_milli(best - second);
  return m < 0 ? 0 : m;
}

bool Engine::weights_finite() {
  for (const nn::ParamRef& p : params_) {
    const matrix::MatD& m = *p.value;
    const double* data = m.data();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(data[i])) return false;
    }
  }
  return true;
}

void Engine::checkpoint() {
  good_params_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    // Deep copy into retained storage: after the first checkpoint (or a
    // warm_up), per-step snapshots never touch the allocator.
    good_params_[i].copy_from(*params_[i].value);
  }
  has_checkpoint_ = true;
  stats_.checkpoints += 1;
  KML_COUNTER_INC(observe::kMetricEngineCheckpoints);
  KML_EVENT(observe::EventId::kEngineCheckpoint, stats_.checkpoints,
            static_cast<std::uint64_t>(params_.size()));
}

bool Engine::rollback() {
  if (!has_checkpoint_) return false;
  if (params_.size() != good_params_.size()) return false;  // topology changed
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].value->same_shape(good_params_[i])) return false;
    params_[i].value->copy_from(good_params_[i]);
  }
  stats_.rollbacks += 1;
  KML_COUNTER_INC(observe::kMetricEngineRollbacks);
  KML_EVENT(observe::EventId::kEngineRollback, stats_.rollbacks,
            stats_.invalid_train_steps);
  KML_INFO("engine: rolled back to last-known-good weights");
  if (health_ != nullptr) health_->notify_rollback();
  return true;
}

}  // namespace kml::runtime
