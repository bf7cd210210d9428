// health.h — the health-guard state machine for in-kernel learning.
//
// An online learner *will* transiently mispredict or diverge (the RL-storage
// line of work makes this explicit), and a kernel-resident trainer can stall
// or produce non-finite weights under pressure. The HealthMonitor is the
// principled sickness detector the deployment needs: independent signals
// feed one three-state machine, and the actuation side (readahead tuner)
// reads the state to decide whether model predictions may touch the I/O
// path at all.
//
//   HEALTHY  — predictions actuate normally.
//   DEGRADED — suspicious (loss divergence, sample loss, stalled trainer):
//              stop actuating, fall back to the vanilla heuristic, keep
//              observing. Recovers to HEALTHY after a clean streak.
//   FAILED   — model state is untrustworthy (non-finite loss/weights,
//              repeated divergence): requires an engine rollback to the
//              last-known-good checkpoint before recovery can begin.
//
// Signals:
//   (a) non-finite loss/weights after Engine::train_batch  -> FAILED
//   (b) EWMA loss-divergence strikes                       -> DEGRADED/FAILED
//   (c) training-thread heartbeat watchdog                 -> DEGRADED
//   (d)-(k) registry-sourced rules, one HealthRule each    -> DEGRADED
//
// (d)-(k) are rows of one rule table (health.cpp). Each row judges only the
// window since its last judgement, never a lifetime aggregate, and every
// trip records a health.trip flight event ahead of the transition.
//
// Thread model: one writer per signal is fine (trainer thread feeds (a)-(c),
// a poller feeds (d)-(k)); all mutations serialize on an internal mutex,
// while state() is a lock-free atomic read safe from the I/O path.
#pragma once

#include "observe/metrics.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace kml::runtime {

enum class HealthState : int { kHealthy = 0, kDegraded = 1, kFailed = 2 };

const char* health_state_name(HealthState state);

// Rows of the registry rule table, in table order. A health.trip flight
// event carries the row's index as a0 and its observed value as a1.
enum class HealthRule : std::uint8_t {
  kDropShare = 0,     // (d) dropped share of submissions, milli
  kInferenceP99,      // (e) inference latency p99, ns
  kGradNorm,          // (f) worst per-layer gradient norm, milli
  kDrift,             // (g) max input |z|, milli
  kKvRecovery,        // (h) KV recoveries + torn-manifest rejections
  kCacheHitShare,     // (i) page-cache hit share, milli
  kFleetQueueDepth,   // (j) fleet post-drain backlog
  kFleetDecisionP99,  // (j) fleet submit->decision p99, ns
  kSloBurning,        // (k) SLO objectives burning
  kCount,
};

struct HealthConfig {
  // (b) EWMA loss divergence: a step whose loss exceeds ratio x the EWMA
  // baseline is a strike; the baseline only absorbs clean steps, so a
  // diverging run cannot drag its own threshold up.
  double ewma_alpha = 0.05;
  double divergence_ratio = 4.0;
  std::uint64_t warmup_steps = 16;     // steps before divergence is judged
  std::uint32_t strikes_to_degrade = 3;
  std::uint32_t strikes_to_fail = 8;
  // Clean steps needed to leave DEGRADED (and to clear strikes).
  std::uint32_t clean_steps_to_recover = 16;

  // (c) Watchdog: a trainer silent for longer than this is considered
  // stalled. Timestamps are caller-supplied, so tests and simulations can
  // drive any clock.
  std::uint64_t heartbeat_timeout_ns = 2'000'000'000;

  // (d) Drop-rate guard: share of submitted records dropped (milli), judged
  // over windows of at least `drop_window_min_records` submissions; 0 disables.
  std::uint64_t drop_rate_degrade_milli = 500;
  std::uint64_t drop_window_min_records = 1024;

  // (e) Inference-latency guard (registry-sourced): if the p99 of the
  // "runtime.inference_ns" records since the last judgement exceeds this,
  // the model is too slow for the I/O path and the tuner should fall back.
  // 0 disables the signal (the threshold is deployment-specific; the
  // paper's budget is ~21 us on their hardware).
  std::uint64_t inference_p99_degrade_ns = 0;

  // (f) Gradient-explosion guard (registry-sourced): worst per-layer
  // gradient L2-norm, milli-scaled ("nn.train.grad_norm_milli"), judged
  // only while the train-step counter advances. A blowing-up gradient
  // predicts non-finite weights several steps before they happen. 0
  // disables.
  std::uint64_t grad_norm_degrade_milli = 0;

  // (g) Input-drift guard (registry-sourced): max per-feature |z| of the
  // live input mean vs the training baseline, milli-scaled
  // ("data.drift.max_z_milli"), judged only while the drift sample count
  // advances. Drifted inputs invalidate the model silently — every weight
  // stays finite. 0 disables.
  std::uint64_t drift_z_degrade_milli = 0;

  // (h) KV-recovery guard (registry-sourced): the storage backend crashed
  // and came back. A recovery means the store the model was trained
  // against was rebuilt from WAL + manifest — feature distributions may
  // have jumped (cold cache, replayed tail), so predictions go on
  // probation. Trips DEGRADED when the "kv.recoveries" counter (or a
  // "kv.torn_manifests_rejected" rejection, which is strictly worse)
  // advances by at least this much in one judged window. 0 disables.
  std::uint64_t kv_recoveries_to_degrade = 1;

  // (i) Cache hit-rate collapse guard (registry-sourced): the eviction
  // tuner's blast radius. Judged over delta windows of at least
  // `cache_min_accesses` page-cache accesses ("sim.cache.hit" +
  // "sim.cache.miss" counters); trips DEGRADED when the windowed hit rate,
  // milli-scaled, falls below this floor — a mistuned reclaim policy shows
  // up here before anywhere else, and the tuner's degradation path then
  // pins the cache back to plain LRU. 0 disables.
  std::uint64_t cache_hit_rate_degrade_milli = 0;
  std::uint64_t cache_min_accesses = 1024;

  // (j) Fleet-collapse guard (registry-sourced): the tenant-sharded
  // inference service is drowning — either the post-drain backlog
  // ("fleet.queue_depth" gauge) stays above the depth threshold while the
  // "fleet.windows" counter advances (an idle fleet cannot trip on stale
  // history), or the submit→decision p99 of the latest "fleet.decision_ns"
  // records exceeds the latency budget. The fleet service reacts to the
  // DEGRADED state by refusing new admissions and shedding its
  // lowest-traffic tenants first. 0 disables each sub-signal independently.
  std::uint64_t fleet_queue_depth_degrade = 0;
  std::uint64_t fleet_decision_p99_degrade_ns = 0;

  // (k) SLO burn-rate guard (registry-sourced, telemetry v3): trips
  // DEGRADED when at least this many registered latency objectives
  // (observe/slo.h) are simultaneously burning — fast AND slow burn windows
  // both over their trip rates with enough records to trust. Judged only
  // while the time-series sampler advances (the burn windows are ring
  // windows; without fresh samples the verdict would be stale history).
  // 0 disables.
  std::uint64_t slo_burning_to_degrade = 0;

  // Flight-recorder dump file prefix (writes <prefix>.bin/<prefix>.txt when
  // the recorder freezes on a bad transition). nullptr = freeze only, no
  // dump. The pointed-to string must outlive the monitor.
  const char* flight_dump_prefix = nullptr;
};

struct HealthStats {
  std::uint64_t train_steps = 0;        // observations fed to (a)/(b)
  std::uint64_t non_finite_events = 0;  // (a) trips
  std::uint64_t divergence_strikes = 0; // (b) strikes (cumulative)
  std::uint64_t watchdog_timeouts = 0;  // (c) trips
  std::uint64_t drop_rate_trips = 0;    // (d) trips
  std::uint64_t latency_trips = 0;      // (e) trips (inference p99 guard)
  std::uint64_t grad_trips = 0;         // (f) trips (gradient explosion)
  std::uint64_t drift_trips = 0;        // (g) trips (input drift)
  std::uint64_t kv_recovery_trips = 0;  // (h) trips (KV store recovered)
  std::uint64_t cache_trips = 0;        // (i) trips (hit-rate collapse)
  std::uint64_t fleet_trips = 0;        // (j) trips (fleet queue/latency)
  std::uint64_t slo_trips = 0;          // (k) trips (SLO burn rate)
  std::uint64_t heartbeats = 0;
  std::uint64_t degradations = 0;       // transitions into DEGRADED
  std::uint64_t failures = 0;           // transitions into FAILED
  std::uint64_t recoveries = 0;         // transitions back to HEALTHY
  std::uint64_t rollbacks_seen = 0;     // notify_rollback() calls
  double loss_ewma = 0.0;               // current baseline
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthConfig& config = HealthConfig{});

  // Lock-free; safe from the I/O path.
  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }
  bool healthy() const { return state() == HealthState::kHealthy; }

  // (a)+(b): one call per Engine::train_batch. `valid` is false when the
  // step produced a non-finite loss or non-finite weights.
  void observe_train_step(double loss, bool valid);

  // (c) producer side: the training thread announces liveness.
  void heartbeat(std::uint64_t now_ns);

  // (c) consumer side: anyone with the same clock checks for a stall.
  // Returns true if the watchdog tripped on this call. Never trips before
  // the first heartbeat (a not-yet-started trainer is not a stalled one).
  bool check_watchdog(std::uint64_t now_ns);

  // (d) from cumulative producer counters (monotonic), e.g. from
  // TrainingThread::processed()+dropped() and ::dropped(). Judged through
  // the same rule as the registry's drop share, with its own window.
  void observe_buffer(std::uint64_t submitted_total,
                      std::uint64_t dropped_total);

  // (d)-(k) from the metrics registry — the single source of truth when the
  // observe layer is compiled in and recording. The first call only primes
  // the baselines (registry counters are process-global and may predate
  // this monitor). From the second call on, each enabled rule judges the
  // window since its last judgement once the window's progress reaches the
  // rule's minimum; a gauge is judged only while its companion progress
  // counter advances (a quiesced model cannot trip on stale history). No-op
  // with KML_OBSERVE=OFF (the registry is empty).
  void observe_registry();

  // The engine restored its last-known-good checkpoint: FAILED drops to
  // DEGRADED (probation); a clean streak then recovers to HEALTHY.
  void notify_rollback();

  // Back to pristine HEALTHY with zeroed baselines (new model deployed).
  void reset();

  const HealthConfig& config() const { return config_; }
  HealthStats stats() const;

 private:
  // All three require lock_ held. Each transition is stamped into the
  // flight recorder; entering DEGRADED freezes it (and dumps, when
  // configured) so the events leading up to the sickness survive. FAILED
  // deliberately does NOT freeze: the expected next events — rollback, then
  // the FAILED->DEGRADED probation transition — are the tail of the causal
  // chain the dump exists to show, and freezing early would truncate it.
  void enter_degraded();
  void enter_failed();
  void enter_healthy();
  // Freeze the flight recorder (idempotent) and dump if configured.
  void freeze_flight();
  // Both require lock_. judge() turns `reading` (n sources) into the window
  // since `base` and, once that spans the rule's minimum, moves the baseline
  // and judges it. trip() is the one trip path: the rule's stats field, a
  // health.trip flight event, then DEGRADED.
  void judge(HealthRule rule, std::uint64_t* base, std::uint64_t* reading,
             std::size_t n);
  void trip(HealthRule rule, std::uint64_t observed);

  HealthConfig config_;
  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
  mutable std::mutex lock_;
  HealthStats stats_;
  std::uint32_t strikes_ = 0;
  std::uint32_t clean_streak_ = 0;
  bool ewma_primed_ = false;
  std::atomic<std::uint64_t> last_heartbeat_ns_{0};
  bool heartbeat_seen_ = false;
  // Each rule-table row's progress sources as read at its last judgement;
  // the windowed-p99 rows, (e) and (j), keep whole bucket baselines. The
  // buffer window is observe_buffer()'s own, so a deployment mixing both
  // sources cannot corrupt either delta stream.
  struct RuleWindows {
    std::uint64_t base[static_cast<std::size_t>(HealthRule::kCount)][2] = {};
#if KML_OBSERVE_ENABLED
    std::uint64_t p99_base[2][observe::Histogram::kNumBuckets] = {};
#endif
    std::uint64_t buffer_base[2] = {};
    bool primed = false;  // the registry's first reading is taken
  };
  RuleWindows windows_;
};

}  // namespace kml::runtime
