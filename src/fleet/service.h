// service.h — tenant-sharded batched inference for fleet serving.
//
// The paper tunes one heuristic per open file; the production question
// (ROADMAP item 1, KML extended paper arXiv 2111.11554) is what happens when
// there are *thousands* of open files — tenants — with heavily skewed
// (Zipfian) traffic, all wanting per-window classifications from ONE shared
// model. The FleetService is that serving layer:
//
//   * Tenants are sharded: tenant id -> shard via shard_of() (a hash fold,
//     the reference implementation of the ShardedBuffer tenant→shard
//     contract). Each shard is one SPSC ring of ready feature-windows, so
//     producers never contend across shards.
//   * The drain coalesces ready windows across a shard's tenants into large
//     Engine::infer_batch_scores calls — one forward pass classifies
//     hundreds of tenants' windows, amortizing the per-call fixed costs the
//     same way the per-file tuner batches inodes (DESIGN.md §9), with the
//     matmul parallelized on the thread pool.
//   * The model is fleet-wide and shared; per-tenant adaptation is a cheap
//     output bias added to the shared model's scores before the argmax,
//     learned online from record_outcome() feedback (perceptron-style
//     additive update, clamped). Thousands of tenants cost
//     O(classes) doubles each instead of a model copy.
//   * Admission control + per-tenant rate limiting protect the service:
//     a token bucket per tenant caps windows per tick, a bounded tenant
//     table caps memory, and overload (deep post-drain backlog, a
//     DEGRADED health verdict on the fleet signal — HealthConfig (j))
//     sheds the LOWEST-traffic tenants first: the hot tenants carrying the
//     fleet's traffic keep their decisions, the long Zipf tail falls back
//     to the vanilla heuristic. Every shed/admit stamps a flight-recorder
//     event, so post-mortems show exactly who was dropped and when.
//
// Thread model: the service is SINGLE-THREADED. submit(), drain(), tick(),
// record_outcome(), and the accessors must all be called from one thread
// (or be externally serialized) — the tenant table, stats, and bias state
// are deliberately unsynchronized, so even one producer thread calling
// submit() concurrently with the drain thread is a data race. The SPSC
// shard rings are used here as a per-shard coalescing layout, not as a
// cross-thread handoff. Scaling submit() out to one producer thread per
// shard would additionally need per-shard tenant tables owned by their
// producers (admission, token buckets, and bias move with them); the rings
// already support that split, this class does not yet.
#pragma once

#include "data/sharded_buffer.h"
#include "runtime/engine.h"
#include "runtime/health.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace kml::fleet {

// Compile-time ceilings so queued windows stay fixed-size POD (the rings
// never chase pointers). Models with wider inputs/outputs are rejected at
// construction.
inline constexpr int kMaxFleetFeatures = 8;
inline constexpr int kMaxFleetClasses = 8;

struct FleetConfig {
  // Tenant shards, clamped to [1, ShardedBuffer::kMaxShards]. Each shard is
  // one SPSC ring; shard_of() folds tenant ids onto them.
  unsigned shards = 8;
  // Admission cap: at most this many tenants are active, and the tenant
  // table — active entries plus shed tenants' retained-bias entries —
  // never grows beyond it. When a new admission finds the table full, the
  // lowest-traffic shed entry is evicted to make room (its bias is lost;
  // bias retention across a shed is best-effort, bounded by table slack).
  std::uint32_t max_tenants = 16'384;
  // Total ready-window slots across all shard rings.
  std::size_t queue_capacity = 1 << 15;
  // Coalescing cap: rows per Engine::infer_batch_scores call.
  int max_batch = 256;
  // Per-tenant rate limit: token-bucket refill per tick() (one virtual
  // second in the bench protocol). 0 disables rate limiting.
  std::uint32_t tenant_windows_per_tick = 32;
  // Per-tenant output-bias adaptation: additive learning rate and clamp.
  // bias_lr == 0 disables adaptation (pure shared model).
  double bias_lr = 0.05;
  double bias_max = 2.0;
  // Overload: a post-drain backlog deeper than this sheds `shed_batch`
  // lowest-traffic tenants and latches admissions closed; admissions
  // reopen once the backlog clears below half the threshold. A DEGRADED/
  // FAILED verdict from `health` (the fleet-collapse signal, HealthConfig
  // (j)) sheds and latches the same way.
  std::size_t overload_queue_depth = 1 << 14;
  std::uint32_t shed_batch = 64;
  // Tenant-class rollup thresholds for per-stage latency attribution
  // (telemetry v3): a tenant with >= hot_tenant_windows lifetime decisions
  // is "hot", >= warm_tenant_windows "warm", else "cold". Queue-wait rolls
  // up into three bounded class histograms — per-TENANT histograms at 10k+
  // tenants would be unbounded cardinality, and the Zipf skew means the
  // interesting question is "are the hot tenants aging differently from the
  // tail", which three classes answer.
  std::uint64_t hot_tenant_windows = 1024;
  std::uint64_t warm_tenant_windows = 64;
  // Per-window stage stamping is SAMPLED: 1 in 2^stage_sample_shift windows
  // records queue-wait/queue-age/class-rollup at pop and decision latency
  // at decide (0 = every window, for tests and low-rate deployments).
  // Unsampled, those per-window records priced double-digit percent of a
  // 10k-tenant drain on a 1-CPU host; at the default 1-in-8 the bill drops
  // near the noise floor while a busy service still lands thousands of
  // samples per second — plenty for stable percentiles, which is all the
  // consumers (health signals, bench rows) read. Batch-level stage spans
  // (coalesce/infer/decide) are never sampled.
  std::uint32_t stage_sample_shift = 3;
  const runtime::HealthMonitor* health = nullptr;
};

enum class SubmitResult {
  kQueued = 0,      // accepted into the tenant's shard ring
  kRejected,        // admission control said no (cap, overload latch, shed)
  kRateLimited,     // tenant exhausted its token bucket this tick
  kDropped,         // shard ring full (backpressure)
};

struct FleetStats {
  std::uint64_t submitted = 0;      // windows offered to submit()
  std::uint64_t decided = 0;        // windows classified
  std::uint64_t batches = 0;        // infer_batch_scores calls
  std::uint64_t admitted = 0;       // tenants admitted (incl. re-admissions)
  std::uint64_t rejected = 0;       // submit() refusals by admission control
  std::uint64_t rate_limited = 0;   // submit() refusals by the token bucket
  std::uint64_t queue_drops = 0;    // submit() refusals by a full ring
  std::uint64_t shed = 0;           // tenants shed by overload control
  std::uint64_t orphan_windows = 0; // queued windows whose tenant was shed
  std::uint64_t infer_dropped = 0;  // staged windows lost to a failed batch
  std::uint64_t biased_flips = 0;   // decisions changed by per-tenant bias
  std::uint64_t bias_evicted = 0;   // shed entries evicted to admit new ones
};

class FleetService {
 public:
  // The engine must be in inference mode, stay owned by the caller, and
  // outlive the service. Its input width must be <= kMaxFleetFeatures and
  // output width <= kMaxFleetClasses.
  FleetService(runtime::Engine& engine, const FleetConfig& config);

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // The reference tenant→shard fold (see the ShardedBuffer contract):
  // splitmix-style avalanche of the tenant id, reduced onto
  // [0, shard_count()). Deterministic, stable across runs.
  unsigned shard_of(std::uint64_t tenant) const;

  // Offer one ready feature-window (n raw, un-normalized features) for
  // `tenant`. Admits unknown tenants when admission is open and fewer than
  // max_tenants are active (flight event kFleetAdmit), evicting the
  // lowest-traffic shed entry if the table is at capacity; enforces the
  // tenant's token bucket; pushes onto the tenant's shard ring.
  SubmitResult submit(std::uint64_t tenant, const double* features, int n,
                      std::uint32_t events = 1);

  // Consumer side: drain every shard ring (round-robin, so a hot shard
  // cannot starve the rest), group by shard, and classify each shard's
  // windows in coalesced Engine::infer_batch_scores calls with the
  // per-tenant bias applied before the argmax. Returns windows decided.
  std::size_t drain(std::uint64_t now_ns);

  // Once per virtual second: refills token buckets, publishes the fleet
  // gauges, and runs overload control (backlog + health verdict -> shed
  // lowest-traffic tenants, latch/unlatch admissions).
  void tick(std::uint64_t now_ns);

  // Feedback for per-tenant adaptation: the workload observed
  // `observed_class` for this tenant's last window. Additive bias update
  // toward the observation, away from the mistaken prediction.
  void record_outcome(std::uint64_t tenant, int observed_class);

  // Most recent decision for the tenant; -1 when unknown/undecided.
  int last_class(std::uint64_t tenant) const;

  // Tenants currently admitted and serving.
  std::uint32_t active_tenants() const { return active_; }

  // Total tenant-table entries (active + shed-with-retained-bias). Bounded
  // by FleetConfig::max_tenants.
  std::size_t tenant_table_size() const { return tenants_.size(); }

  // Tenants that have received at least one decision.
  std::uint32_t tenants_served() const { return served_; }

  bool admissions_open() const { return admissions_open_; }

  // Ready windows still queued (post-drain backlog).
  std::size_t backlog() const { return queue_.size(); }

  std::uint64_t folded_pushes() const { return queue_.folded_pushes(); }

  const FleetStats& stats() const { return stats_; }

 private:
  struct QueuedWindow {
    std::uint64_t tenant = 0;
    std::uint64_t enqueue_ns = 0;
    std::uint32_t events = 0;
    double features[kMaxFleetFeatures] = {};
  };

  struct TenantState {
    std::uint64_t windows = 0;   // traffic accounting (shed ordering)
    std::uint32_t tokens = 0;    // rate-limit bucket, refilled per tick
    int last_class = -1;
    bool active = false;
    bool decided = false;
    double bias[kMaxFleetClasses] = {};
  };

  // Classify `rows` staged windows of one shard in one coalesced forward
  // pass; applies bias, updates tenants, records latency.
  void decide_batch(const QueuedWindow* windows, int rows,
                    std::uint64_t now_ns);
  void shed_lowest_traffic(std::uint32_t count);
  // Evict the lowest-traffic inactive entry to keep tenants_ within
  // max_tenants when a new admission needs the slot.
  void evict_one_inactive();

  runtime::Engine& engine_;
  FleetConfig config_;
  int feature_dim_ = 0;
  int classes_ = 0;
  data::ShardedBuffer<QueuedWindow> queue_;
  std::unordered_map<std::uint64_t, TenantState> tenants_;
  std::uint32_t active_ = 0;
  std::uint32_t served_ = 0;
  bool admissions_open_ = true;
  bool infer_failure_logged_ = false;
  // Rolling window counter driving the 1-in-2^stage_sample_shift stage
  // stamping (queue-wait at pop, decision latency at decide); counts every
  // record-site visit so the sample is stratified across tenants
  // regardless of chunk boundaries. Mask precomputed from the config.
  std::uint64_t stage_sample_tick_ = 0;
  std::uint64_t stage_sample_mask_ = 0;
  FleetStats stats_;
  // Drain/decide staging, reused across calls (allocation-free at steady
  // state, like the per-file tuner's batch staging).
  std::vector<QueuedWindow> pop_chunk_;
  std::vector<std::vector<QueuedWindow>> shard_staging_;
  std::vector<double> batch_features_;
  std::vector<double> batch_scores_;
  std::vector<int> batch_classes_;
};

}  // namespace kml::fleet
