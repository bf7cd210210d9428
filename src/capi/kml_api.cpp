#include "capi/kml_api.h"

#include "dtree/decision_tree.h"
#include "nn/serialize.h"
#include "observe/export.h"
#include "observe/flight_recorder.h"
#include "observe/introspect.h"
#include "observe/metrics.h"
#include "observe/timeseries.h"
#include "portability/threadpool.h"
#include "runtime/engine.h"
#include "runtime/health.h"
#include "sim/eviction_policy.h"

#include <climits>
#include <cstring>
#include <new>
#include <string>
#include <vector>

// Opaque handle definitions: thin wrappers over the C++ objects. All
// C-visible functions are noexcept by construction (no exception may cross
// the C boundary). Both network handles wrap a runtime Engine, so every C
// inference runs Engine::infer_batch_scores — the one forward path.
struct kml_model {
  kml::runtime::Engine engine;
  int in_features;
  int num_classes;
};

struct kml_engine {
  kml::runtime::Engine engine;
  int in_features;
  int num_classes;
};

struct kml_dtree {
  kml::dtree::DecisionTree tree;
};

struct kml_health {
  kml::runtime::HealthMonitor monitor;
};

namespace {

// Load a model file into a network handle; warm_rows > 0 presizes the
// engine's hot-path buffers for batches of that many rows.
template <typename Handle>
Handle* load_handle(const char* path, int warm_rows) {
  if (path == nullptr) return nullptr;
  kml::nn::Network net;
  if (!kml::nn::load_model(net, path)) return nullptr;
  auto* handle = new (std::nothrow)
      Handle{kml::runtime::Engine(std::move(net)), 0, 0};
  if (handle == nullptr) return nullptr;
  handle->in_features = handle->engine.num_features();
  handle->num_classes = handle->engine.num_classes();
  if (handle->in_features <= 0 || handle->num_classes <= 0) {
    delete handle;
    return nullptr;
  }
  handle->engine.warm_up(warm_rows);
  return handle;
}

// Classify `count` rows through the handle's engine; -1 on bad arguments.
template <typename Handle>
int infer_rows(const Handle* handle, const double* features, int n,
               int count, int* classes_out) {
  if (handle == nullptr || features == nullptr || classes_out == nullptr ||
      n != handle->in_features || count <= 0) {
    return -1;
  }
  return const_cast<Handle*>(handle)->engine.infer_batch_scores(
      features, n, count, nullptr, classes_out);
}

template <typename Handle>
int infer_one(const Handle* handle, const double* features, int n) {
  int cls = -1;
  return infer_rows(handle, features, n, 1, &cls) == 1 ? cls : -1;
}

}  // namespace

extern "C" {

void kml_set_threads(unsigned n) { kml::kml_pool_set_threads(n); }

unsigned kml_get_threads(void) { return kml::kml_pool_threads(); }

kml_model* kml_model_load(const char* path) {
  // The C API exposes no training entry points; the engine starts in
  // inference mode, which drops the backward-pass caches and makes
  // inference allocation-free at steady state.
  return load_handle<kml_model>(path, 0);
}

void kml_model_destroy(kml_model* model) { delete model; }

int kml_model_infer(const kml_model* model, const double* features, int n) {
  return infer_one(model, features, n);
}

int kml_model_num_features(const kml_model* model) {
  return model == nullptr ? -1 : model->in_features;
}

int kml_model_num_classes(const kml_model* model) {
  return model == nullptr ? -1 : model->num_classes;
}

size_t kml_model_weight_bytes(const kml_model* model) {
  return model == nullptr
             ? 0
             : const_cast<kml_model*>(model)->engine.network().param_bytes();
}

kml_engine* kml_engine_load(const char* path) {
  return load_handle<kml_engine>(path, KML_ENGINE_DEFAULT_BATCH);
}

void kml_engine_destroy(kml_engine* engine) { delete engine; }

int kml_engine_infer(const kml_engine* engine, const double* features,
                     int n) {
  return infer_one(engine, features, n);
}

int kml_engine_infer_batch(const kml_engine* engine, const double* features,
                           int n, int count, int* classes_out) {
  return infer_rows(engine, features, n, count, classes_out);
}

int kml_engine_num_features(const kml_engine* engine) {
  return engine == nullptr ? -1 : engine->in_features;
}

int kml_engine_num_classes(const kml_engine* engine) {
  return engine == nullptr ? -1 : engine->num_classes;
}

kml_health* kml_health_create(void) {
  return new (std::nothrow) kml_health{};
}

void kml_health_destroy(kml_health* health) { delete health; }

int kml_health_state(const kml_health* health) {
  if (health == nullptr) return -1;
  return static_cast<int>(health->monitor.state());
}

void kml_health_observe_train_step(kml_health* health, double loss,
                                   int valid) {
  if (health == nullptr) return;
  health->monitor.observe_train_step(loss, valid != 0);
}

void kml_health_heartbeat(kml_health* health, unsigned long long now_ns) {
  if (health == nullptr) return;
  health->monitor.heartbeat(now_ns);
}

int kml_health_check_watchdog(kml_health* health, unsigned long long now_ns) {
  if (health == nullptr) return 0;
  return health->monitor.check_watchdog(now_ns) ? 1 : 0;
}

void kml_health_observe_buffer(kml_health* health,
                               unsigned long long submitted_total,
                               unsigned long long dropped_total) {
  if (health == nullptr) return;
  health->monitor.observe_buffer(submitted_total, dropped_total);
}

void kml_health_notify_rollback(kml_health* health) {
  if (health == nullptr) return;
  health->monitor.notify_rollback();
}

int kml_metrics_enabled(void) {
#if KML_OBSERVE_ENABLED
  return kml::observe::enabled() ? 1 : 0;
#else
  return 0;
#endif
}

void kml_metrics_set_enabled(int on) {
  kml::observe::set_enabled(on != 0);
}

long long kml_metrics_counter(const char* name) {
#if KML_OBSERVE_ENABLED
  if (name == nullptr) return -1;
  // The overflow counter is synthetic (exported in snapshots but never
  // occupies a registry slot); serve it here so C consumers can read the
  // same name the JSON export shows.
  if (std::strcmp(name, kml::observe::kMetricRegistryOverflow) == 0) {
    const unsigned long long v = kml::observe::registry_overflow_count();
    return v > static_cast<unsigned long long>(LLONG_MAX)
               ? LLONG_MAX
               : static_cast<long long>(v);
  }
  kml::observe::Counter* c = kml::observe::find_counter(name);
  if (c == nullptr) return -1;
  const unsigned long long v = c->value();
  return v > static_cast<unsigned long long>(LLONG_MAX) ? LLONG_MAX
                                                        : static_cast<long long>(v);
#else
  (void)name;
  return -1;
#endif
}

long long kml_metrics_gauge(const char* name) {
#if KML_OBSERVE_ENABLED
  if (name == nullptr) return -1;
  kml::observe::Gauge* g = kml::observe::find_gauge(name);
  return g == nullptr ? -1 : static_cast<long long>(g->value());
#else
  (void)name;
  return -1;
#endif
}

long long kml_metrics_hist_count(const char* name) {
#if KML_OBSERVE_ENABLED
  if (name == nullptr) return -1;
  kml::observe::Histogram* h = kml::observe::find_histogram(name);
  if (h == nullptr) return -1;
  const unsigned long long v = h->count();
  return v > static_cast<unsigned long long>(LLONG_MAX) ? LLONG_MAX
                                                        : static_cast<long long>(v);
#else
  (void)name;
  return -1;
#endif
}

long long kml_metrics_hist_percentile(const char* name, int pct) {
#if KML_OBSERVE_ENABLED
  if (name == nullptr || pct < 0 || pct > 100) return -1;
  kml::observe::Histogram* h = kml::observe::find_histogram(name);
  if (h == nullptr) return -1;
  const unsigned long long v = h->percentile(static_cast<unsigned>(pct));
  return v > static_cast<unsigned long long>(LLONG_MAX) ? LLONG_MAX
                                                        : static_cast<long long>(v);
#else
  (void)name;
  (void)pct;
  return -1;
#endif
}

size_t kml_metrics_export(char* buf, size_t cap, int json) {
  if (buf == nullptr || cap == 0) return 0;
  const kml::observe::MetricsSnapshot snap = kml::observe::snapshot();
  const std::string out = json != 0 ? kml::observe::format_json(snap)
                                    : kml::observe::format_table(snap);
  const size_t n = out.size() < cap - 1 ? out.size() : cap - 1;
  std::memcpy(buf, out.data(), n);
  buf[n] = '\0';
  return out.size();
}

void kml_metrics_reset(void) { kml::observe::reset_all(); }

size_t kml_metrics_prom(char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  const std::string out = kml::observe::format_prometheus();
  const size_t n = out.size() < cap - 1 ? out.size() : cap - 1;
  std::memcpy(buf, out.data(), n);
  buf[n] = '\0';
  return out.size();
}

void kml_timeseries_sample(unsigned long long now_ns) {
  kml::observe::timeseries_sample(now_ns);
}

int kml_timeseries_poll(unsigned long long now_ns) {
  return kml::observe::timeseries_poll(now_ns) ? 1 : 0;
}

unsigned long long kml_timeseries_samples(void) {
  return kml::observe::timeseries_samples();
}

void kml_timeseries_reset(void) { kml::observe::timeseries_reset(); }

long long kml_fleet_tenants(void) {
  return kml_metrics_gauge(kml::observe::kMetricFleetTenants);
}

long long kml_fleet_queue_depth(void) {
  return kml_metrics_gauge(kml::observe::kMetricFleetQueueDepth);
}

long long kml_fleet_windows(void) {
  return kml_metrics_counter(kml::observe::kMetricFleetWindows);
}

long long kml_fleet_shed_total(void) {
  return kml_metrics_counter(kml::observe::kMetricFleetShedTotal);
}

long long kml_fleet_decision_p99_ns(void) {
  return kml_metrics_hist_percentile(kml::observe::kMetricFleetDecisionNs, 99);
}

namespace {

/* Shared snprintf-convention string exporter. */
size_t export_string(char* buf, size_t cap, const std::string& out) {
  if (buf == nullptr || cap == 0) return 0;
  const size_t n = out.size() < cap - 1 ? out.size() : cap - 1;
  std::memcpy(buf, out.data(), n);
  buf[n] = '\0';
  return out.size();
}

}  // namespace

int kml_trace_enabled(void) {
  return kml::observe::flight_recording() ? 1 : 0;
}

void kml_trace_set_enabled(int on) {
  kml::observe::flight_set_enabled(on != 0);
}

void kml_trace_freeze(void) { kml::observe::flight_freeze(); }

void kml_trace_thaw(void) { kml::observe::flight_thaw(); }

int kml_trace_frozen(void) { return kml::observe::flight_frozen() ? 1 : 0; }

void kml_trace_reset(void) { kml::observe::flight_reset(); }

unsigned long long kml_trace_event_count(void) {
  return kml::observe::flight_total_events();
}

size_t kml_trace_export(char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  return export_string(
      buf, cap,
      kml::observe::format_chrome_trace(kml::observe::flight_snapshot()));
}

int kml_trace_dump(const char* prefix) {
  if (prefix == nullptr) return 0;
  return kml::observe::flight_dump_files(kml::observe::flight_snapshot(),
                                         prefix)
             ? 1
             : 0;
}

unsigned long long kml_introspect_steps(void) {
  return kml::observe::introspect_steps();
}

void kml_introspect_reset(void) { kml::observe::introspect_reset(); }

size_t kml_introspect_export(char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  return export_string(buf, cap,
                       kml::observe::format_introspect_json(
                           kml::observe::introspect_snapshot()));
}

int kml_cache_policy_count(void) { return kml::sim::kNumEvictionPolicies; }

const char* kml_cache_policy_name(int policy) {
  if (policy < 0 || policy >= kml::sim::kNumEvictionPolicies) return nullptr;
  return kml::sim::eviction_policy_name(
      static_cast<kml::sim::EvictionPolicyType>(policy));
}

int kml_cache_policy_id(const char* name) {
  if (name == nullptr) return -1;
  for (int i = 0; i < kml::sim::kNumEvictionPolicies; ++i) {
    const char* candidate = kml_cache_policy_name(i);
    if (candidate != nullptr && std::strcmp(candidate, name) == 0) return i;
  }
  return -1;
}

kml_dtree* kml_dtree_load(const char* path) {
  if (path == nullptr) return nullptr;
  auto* handle = new (std::nothrow) kml_dtree{};
  if (handle == nullptr) return nullptr;
  if (!handle->tree.load(path)) {
    delete handle;
    return nullptr;
  }
  return handle;
}

void kml_dtree_destroy(kml_dtree* tree) { delete tree; }

int kml_dtree_infer(const kml_dtree* tree, const double* features, int n) {
  if (tree == nullptr || features == nullptr || !tree->tree.trained() ||
      n != tree->tree.num_features()) {
    return -1;
  }
  return tree->tree.predict(features, n);
}

int kml_dtree_node_count(const kml_dtree* tree) {
  return tree == nullptr ? -1 : tree->tree.node_count();
}

}  // extern "C"
