#include "fleet/service.h"

#include "observe/flight_recorder.h"
#include "observe/metrics.h"
#include "observe/timeseries.h"
#include "portability/kml_lib.h"

#include <algorithm>
#include <cstring>

namespace kml::fleet {

namespace {

// splitmix64 finalizer: full-avalanche mix so dense tenant-id ranges (fd
// numbers, inode counters) spread evenly over the shards instead of
// striding onto a few of them.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FleetService::FleetService(runtime::Engine& engine, const FleetConfig& config)
    : engine_(engine),
      config_(config),
      queue_(config.queue_capacity,
             std::min(std::max(config.shards, 1u),
                      data::ShardedBuffer<QueuedWindow>::kMaxShards)) {
  config_.shards = queue_.shard_count();
  if (config_.max_batch < 1) config_.max_batch = 1;
  stage_sample_mask_ =
      (std::uint64_t{1} << (config_.stage_sample_shift < 63
                                ? config_.stage_sample_shift
                                : 63)) -
      1;
  feature_dim_ = engine_.num_features();
  classes_ = engine_.num_classes();
  if (feature_dim_ < 1 || feature_dim_ > kMaxFleetFeatures ||
      classes_ < 1 || classes_ > kMaxFleetClasses) {
    KML_ERROR("FleetService: model shape %dx%d exceeds the fleet window "
              "format (max %dx%d); refusing all submissions",
              feature_dim_, classes_, kMaxFleetFeatures, kMaxFleetClasses);
    feature_dim_ = 0;
    classes_ = 0;
    return;
  }
  // Presize every steady-state buffer up front: the drain loop must not
  // allocate while the fleet is overloaded (that is exactly when it runs).
  pop_chunk_.resize(static_cast<std::size_t>(config_.max_batch) * 4);
  shard_staging_.resize(config_.shards);
  for (auto& s : shard_staging_) {
    s.reserve(pop_chunk_.size());
  }
  batch_features_.resize(static_cast<std::size_t>(config_.max_batch) *
                         feature_dim_);
  batch_scores_.resize(static_cast<std::size_t>(config_.max_batch) *
                       classes_);
  batch_classes_.resize(config_.max_batch);
  engine_.warm_up(config_.max_batch);
}

unsigned FleetService::shard_of(std::uint64_t tenant) const {
  return static_cast<unsigned>(mix64(tenant) % queue_.shard_count());
}

SubmitResult FleetService::submit(std::uint64_t tenant, const double* features,
                                  int n, std::uint32_t events) {
  stats_.submitted += 1;
  if (features == nullptr || n != feature_dim_ || feature_dim_ == 0) {
    stats_.rejected += 1;
    KML_COUNTER_INC(observe::kMetricFleetRejected);
    return SubmitResult::kRejected;
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second.active) {
    // Admission control. A shed tenant re-enters through the same gate and
    // keeps its learned bias while its table entry survives; a brand-new
    // tenant starts from the shared model.
    if (!admissions_open_ ||
        active_ >= config_.max_tenants) {
      stats_.rejected += 1;
      KML_COUNTER_INC(observe::kMetricFleetRejected);
      return SubmitResult::kRejected;
    }
    if (it == tenants_.end() && tenants_.size() >= config_.max_tenants) {
      // The table is full of active tenants plus shed entries kept for
      // their bias. active_ < max_tenants here, so an inactive entry must
      // exist — evict the least valuable one so the table stays bounded
      // by max_tenants even under shed/re-admit churn.
      evict_one_inactive();
    }
    TenantState& t = tenants_[tenant];
    t.active = true;
    t.tokens = config_.tenant_windows_per_tick;
    active_ += 1;
    stats_.admitted += 1;
    KML_COUNTER_INC(observe::kMetricFleetAdmitted);
    KML_EVENT(observe::EventId::kFleetAdmit, tenant, active_);
    it = tenants_.find(tenant);
  }
  TenantState& t = it->second;
  if (config_.tenant_windows_per_tick > 0) {
    if (t.tokens == 0) {
      stats_.rate_limited += 1;
      KML_COUNTER_INC(observe::kMetricFleetRateLimited);
      return SubmitResult::kRateLimited;
    }
    t.tokens -= 1;
  }
  QueuedWindow w;
  w.tenant = tenant;
  w.enqueue_ns = kml_now_ns();
  w.events = events;
  std::memcpy(w.features, features,
              static_cast<std::size_t>(n) * sizeof(double));
  if (!queue_.push(w, shard_of(tenant))) {
    stats_.queue_drops += 1;
    KML_COUNTER_INC(observe::kMetricFleetQueueDrops);
    return SubmitResult::kDropped;
  }
  return SubmitResult::kQueued;
}

std::size_t FleetService::drain(std::uint64_t now_ns) {
  if (feature_dim_ == 0) return 0;
  const std::uint64_t before = stats_.decided;
  const std::size_t chunk = pop_chunk_.size();
  // Stage attribution (telemetry v3): queue-wait is stamped per window at
  // pop time, the regroup walk below counts into the coalesce stage, and
  // decide_batch splits its own work into coalesce/infer/decide. Two clock
  // reads per chunk, all gated on one relaxed load when observe is off;
  // the three per-window records are sampled 1-in-2^stage_sample_shift
  // (see FleetConfig) so attribution never prices the drain itself.
  const bool obs = observe::enabled();
  for (;;) {
    const std::size_t n = queue_.pop_many(pop_chunk_.data(), chunk);
    if (n == 0) break;
    const std::uint64_t pop_ns = obs ? kml_now_ns() : 0;
    // Group by shard: the rings interleave tenants round-robin, so one
    // popped chunk carries every shard's traffic. Per-shard regrouping
    // keeps the ISSUE's coalescing unit — a shard's tenants share each
    // forward pass — while still walking the chunk once.
    for (std::size_t i = 0; i < n; ++i) {
      const QueuedWindow& w = pop_chunk_[i];
      auto it = tenants_.find(w.tenant);
      if (it == tenants_.end() || !it->second.active) {
        // Shed after enqueue: the tenant fell back to the vanilla
        // heuristic, so its stale windows must not burn batch slots.
        stats_.orphan_windows += 1;
        continue;
      }
      if (obs && ((stage_sample_tick_++ & stage_sample_mask_) == 0)) {
        const std::uint64_t wait =
            pop_ns > w.enqueue_ns ? pop_ns - w.enqueue_ns : 0;
        KML_HIST_RECORD(observe::kMetricFleetStageQueueWaitNs, wait);
        KML_HIST_RECORD(observe::kMetricFleetQueueAgeUs, wait / 1000);
        // Tenant-class rollup: three call sites, three cached handles.
        if (it->second.windows >= config_.hot_tenant_windows) {
          KML_HIST_RECORD(observe::kMetricFleetStageQueueWaitHotNs, wait);
        } else if (it->second.windows >= config_.warm_tenant_windows) {
          KML_HIST_RECORD(observe::kMetricFleetStageQueueWaitWarmNs, wait);
        } else {
          KML_HIST_RECORD(observe::kMetricFleetStageQueueWaitColdNs, wait);
        }
      }
      shard_staging_[shard_of(w.tenant)].push_back(w);
    }
    if (obs) {
      KML_HIST_RECORD(observe::kMetricFleetStageCoalesceNs,
                      kml_now_ns() - pop_ns);
    }
    for (auto& staged : shard_staging_) {
      std::size_t off = 0;
      while (off < staged.size()) {
        const int rows = static_cast<int>(
            std::min(staged.size() - off,
                     static_cast<std::size_t>(config_.max_batch)));
        decide_batch(staged.data() + off, rows, now_ns);
        off += static_cast<std::size_t>(rows);
      }
      staged.clear();
    }
    if (n < chunk) break;
  }
  return static_cast<std::size_t>(stats_.decided - before);
}

void FleetService::decide_batch(const QueuedWindow* windows, int rows,
                                std::uint64_t now_ns) {
  // Per-batch stage spans: feature assembly counts as coalesce, the engine
  // call as infer, the bias/argmax/bookkeeping loop as decide. Recorded
  // once per batch (a per-row clock read would cost more than the work it
  // measures at 256-row batches).
  const bool obs = observe::enabled();
  const std::uint64_t t0 = obs ? kml_now_ns() : 0;
  for (int i = 0; i < rows; ++i) {
    std::memcpy(batch_features_.data() +
                    static_cast<std::size_t>(i) * feature_dim_,
                windows[i].features,
                static_cast<std::size_t>(feature_dim_) * sizeof(double));
  }
  const std::uint64_t t1 = obs ? kml_now_ns() : 0;
  if (obs) {
    KML_HIST_RECORD(observe::kMetricFleetStageCoalesceNs, t1 - t0);
  }
  const int done =
      engine_.infer_batch_scores(batch_features_.data(), feature_dim_, rows,
                                 batch_scores_.data(), batch_classes_.data());
  if (done != rows) {
    // The whole staged batch is lost; make that visible instead of letting
    // windows vanish between submitted and decided.
    stats_.infer_dropped += static_cast<std::uint64_t>(rows);
    if (!infer_failure_logged_) {
      infer_failure_logged_ = true;
      KML_ERROR("FleetService: infer_batch_scores decided %d of %d staged "
                "windows; dropping the batch (engine misconfigured or not "
                "in inference mode?)",
                done, rows);
    }
    return;
  }
  const std::uint64_t t2 = obs ? kml_now_ns() : 0;
  if (obs) {
    KML_HIST_RECORD(observe::kMetricFleetStageInferNs, t2 - t1);
  }
  stats_.batches += 1;
  const bool adapt = config_.bias_lr > 0.0;
  for (int i = 0; i < rows; ++i) {
    const QueuedWindow& w = windows[i];
    TenantState& t = tenants_[w.tenant];
    const int raw = batch_classes_[i];
    int best = raw;
    if (adapt) {
      const double* scores =
          batch_scores_.data() + static_cast<std::size_t>(i) * classes_;
      double best_v = scores[0] + t.bias[0];
      best = 0;
      for (int c = 1; c < classes_; ++c) {
        const double v = scores[c] + t.bias[c];
        if (v > best_v) {
          best_v = v;
          best = c;
        }
      }
      if (best != raw) stats_.biased_flips += 1;
    }
    t.last_class = best;
    t.windows += 1;
    if (!t.decided) {
      t.decided = true;
      served_ += 1;
    }
    stats_.decided += 1;
    // End-to-end decision latency rides the same 1-in-2^stage_sample_shift
    // gate as the drain-side stage stamps: its only consumers (health
    // signal (j), bench p50/p99) read percentiles, which sampling
    // preserves, and an unsampled per-window record here was one of the
    // largest telemetry line items on the serving path.
    if (obs && ((stage_sample_tick_++ & stage_sample_mask_) == 0)) {
      const std::uint64_t wait =
          now_ns > w.enqueue_ns ? now_ns - w.enqueue_ns : 0;
      KML_HIST_RECORD(observe::kMetricFleetDecisionNs, wait);
    }
  }
  if (obs) {
    KML_HIST_RECORD(observe::kMetricFleetStageDecideNs, kml_now_ns() - t2);
  }
  KML_COUNTER_ADD(observe::kMetricFleetWindows,
                  static_cast<std::uint64_t>(rows));
}

void FleetService::tick(std::uint64_t now_ns) {
  // The per-tick maintenance path is the fleet's real-time heartbeat, so it
  // also drives the telemetry retention ring (one relaxed compare when a
  // sample is not due; see timeseries.h for the clock-domain contract).
  observe::timeseries_poll(now_ns);
  for (auto& entry : tenants_) {
    if (entry.second.active) {
      entry.second.tokens = config_.tenant_windows_per_tick;
    }
  }
  const std::size_t depth = queue_.size();
  KML_GAUGE_SET(observe::kMetricFleetTenants, active_);
  KML_GAUGE_SET(observe::kMetricFleetQueueDepth, depth);
  const bool health_bad =
      config_.health != nullptr &&
      config_.health->state() != runtime::HealthState::kHealthy;
  const bool deep = config_.overload_queue_depth > 0 &&
                    depth > config_.overload_queue_depth;
  if (deep || health_bad) {
    admissions_open_ = false;
    shed_lowest_traffic(config_.shed_batch);
  } else if (!admissions_open_ &&
             depth <= config_.overload_queue_depth / 2) {
    // Backlog cleared and health is green again: reopen the gate. Shed
    // tenants re-admit themselves on their next submit().
    admissions_open_ = true;
  }
}

void FleetService::shed_lowest_traffic(std::uint32_t count) {
  if (count == 0 || active_ == 0) return;
  // Cold path (only runs while overloaded): full selection over the tenant
  // table is fine at 10k tenants, and lowest-traffic-first means the Zipf
  // tail — tenants the shared model barely serves anyway — absorbs the
  // shed while the head keeps its decisions.
  struct Victim {
    std::uint64_t windows;
    std::uint64_t tenant;
  };
  std::vector<Victim> victims;
  victims.reserve(active_);
  for (const auto& entry : tenants_) {
    if (entry.second.active) {
      victims.push_back(Victim{entry.second.windows, entry.first});
    }
  }
  const std::size_t n_shed =
      std::min<std::size_t>(count, victims.size());
  std::partial_sort(victims.begin(), victims.begin() + n_shed, victims.end(),
                    [](const Victim& a, const Victim& b) {
                      return a.windows != b.windows ? a.windows < b.windows
                                                    : a.tenant < b.tenant;
                    });
  for (std::size_t i = 0; i < n_shed; ++i) {
    TenantState& t = tenants_[victims[i].tenant];
    t.active = false;
    active_ -= 1;
    stats_.shed += 1;
    KML_COUNTER_INC(observe::kMetricFleetShedTotal);
    KML_EVENT(observe::EventId::kFleetShed, victims[i].tenant, t.windows);
  }
}

void FleetService::evict_one_inactive() {
  // Linear scan for the lowest-traffic shed entry. Only reached when a
  // brand-new tenant id arrives with the table at capacity — shed/re-admit
  // churn, already a degraded regime — and never for re-admissions, which
  // reuse their existing entry.
  auto victim = tenants_.end();
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->second.active) continue;
    if (victim == tenants_.end() ||
        it->second.windows < victim->second.windows ||
        (it->second.windows == victim->second.windows &&
         it->first < victim->first)) {
      victim = it;
    }
  }
  if (victim == tenants_.end()) return;  // all active: nothing to evict
  tenants_.erase(victim);
  stats_.bias_evicted += 1;
}

void FleetService::record_outcome(std::uint64_t tenant, int observed_class) {
  if (config_.bias_lr <= 0.0 || observed_class < 0 ||
      observed_class >= classes_) {
    return;
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantState& t = it->second;
  if (t.last_class < 0 || t.last_class == observed_class) return;
  t.bias[observed_class] =
      std::min(t.bias[observed_class] + config_.bias_lr, config_.bias_max);
  t.bias[t.last_class] =
      std::max(t.bias[t.last_class] - config_.bias_lr, -config_.bias_max);
}

int FleetService::last_class(std::uint64_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? -1 : it->second.last_class;
}

}  // namespace kml::fleet
