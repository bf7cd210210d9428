#include "observe/flight_recorder.h"

#include "observe/metrics.h"
#include "portability/file.h"
#include "portability/kml_lib.h"
#include "portability/thread.h"
#include "portability/trace_hook.h"

#include <cstdio>
#include <cstring>

namespace kml::observe {

const char* event_name(EventId id) {
  switch (id) {
    case EventId::kNone: return "none";
    case EventId::kPoolDispatch: return "pool.dispatch";
    case EventId::kEpochStall: return "epoch.stall";
    case EventId::kBufferPush: return "buffer.push";
    case EventId::kBufferDrop: return "buffer.drop";
    case EventId::kTrainBatchBegin: return "trainer.batch_begin";
    case EventId::kTrainBatchEnd: return "trainer.batch_end";
    case EventId::kEngineCheckpoint: return "engine.checkpoint";
    case EventId::kEngineRollback: return "engine.rollback";
    case EventId::kEngineInvalidStep: return "engine.invalid_step";
    case EventId::kEngineTrainStep: return "engine.train_step";
    case EventId::kTunerDecision: return "tuner.decision";
    case EventId::kFileTunerDecision: return "file_tuner.decision";
    case EventId::kRlTunerDecision: return "rl_tuner.decision";
    case EventId::kHealthTransition: return "health.transition";
    case EventId::kTrainEpochBegin: return "train.epoch_begin";
    case EventId::kTrainEpochEnd: return "train.epoch_end";
    case EventId::kDriftSample: return "drift.sample";
    case EventId::kFaultInjected: return "fault.injected";
    case EventId::kKvCheckpoint: return "kv.checkpoint";
    case EventId::kKvRecover: return "kv.recover";
    case EventId::kKvTornManifest: return "kv.torn_manifest";
    case EventId::kKvDurabilityFault: return "kv.durability_fault";
    case EventId::kCacheTunerDecision: return "cache.tuner_decision";
    case EventId::kCachePolicySwitch: return "cache.policy_switch";
    case EventId::kFleetAdmit: return "fleet.admit";
    case EventId::kFleetShed: return "fleet.shed";
    case EventId::kHealthTrip: return "health.trip";
    case EventId::kEventIdCount: break;
  }
  return "unknown";
}

#if KML_OBSERVE_ENABLED

namespace {

// Recorder state bits, packed into one word so the record-path gate is a
// single relaxed load: bit0 = runtime-enabled, bit1 = frozen.
constexpr int kStateEnabled = 1;
constexpr int kStateFrozen = 2;

std::atomic<int> g_state{kStateEnabled};

struct alignas(kCachelineBytes) Ring {
  TraceEvent events[kFlightEventsPerThread];
  // Monotonic write cursor; slot = head & (kFlightEventsPerThread - 1).
  // Written only by the owning thread (release), read by snapshotters
  // (acquire).
  std::atomic<std::uint64_t> head{0};
  std::uint32_t thread_id = 0;
};

Ring g_rings[kFlightThreads];
std::atomic<unsigned> g_ring_count{0};   // claimed ring slots
std::atomic<std::uint64_t> g_lost{0};    // events from unslotted threads

// Per-thread ring index: -1 unclaimed, -2 permanently out of slots.
thread_local int t_ring = -1;

int claim_ring() {
  const unsigned idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kFlightThreads) {
    // Leave the counter saturated (it only ever overshoots by the number of
    // excess threads, which is bounded); remember the verdict per-thread.
    t_ring = -2;
    return -2;
  }
  g_rings[idx].thread_id = static_cast<std::uint32_t>(kml_thread_self());
  t_ring = static_cast<int>(idx);
  return t_ring;
}

// Bridge from the portability trace hook (threadpool epoch dispatch) into
// the recorder. Installed once via static initialization — with
// KML_OBSERVE=OFF this translation unit is empty and no hook exists.
void portability_hook(std::uint16_t event_id, std::uint64_t a0,
                      std::uint64_t a1) {
  if (flight_recording()) {
    flight_record(static_cast<EventId>(event_id), a0, a1);
  }
  // Epoch stalls also surface as a registry counter: a stall means a reader
  // pinned an epoch long enough for reclamation to spin, which is exactly
  // the kind of creeping pathology metrics exist to catch.
  if (event_id == kTraceEvEpochStall) {
    KML_COUNTER_INC(kMetricEpochStalls);
  }
}

struct HookInstaller {
  HookInstaller() { kml_set_trace_hook(&portability_hook); }
};
HookInstaller g_hook_installer;

}  // namespace

bool flight_recording() {
  return g_state.load(std::memory_order_relaxed) == kStateEnabled &&
         enabled();
}

void flight_set_enabled(bool on) {
  if (on) {
    g_state.fetch_or(kStateEnabled, std::memory_order_relaxed);
  } else {
    g_state.fetch_and(~kStateEnabled, std::memory_order_relaxed);
  }
}

void flight_freeze() {
  g_state.fetch_or(kStateFrozen, std::memory_order_relaxed);
}

void flight_thaw() {
  g_state.fetch_and(~kStateFrozen, std::memory_order_relaxed);
}

bool flight_frozen() {
  return (g_state.load(std::memory_order_relaxed) & kStateFrozen) != 0;
}

void flight_reset() {
  const unsigned n = g_ring_count.load(std::memory_order_relaxed) <
                             kFlightThreads
                         ? g_ring_count.load(std::memory_order_relaxed)
                         : kFlightThreads;
  for (unsigned i = 0; i < n; ++i) {
    g_rings[i].head.store(0, std::memory_order_relaxed);
  }
  g_lost.store(0, std::memory_order_relaxed);
  flight_thaw();
}

void flight_record(EventId id, std::uint64_t a0, std::uint64_t a1) {
  if (!flight_recording()) return;
  int r = t_ring;
  if (r < 0) {
    if (r == -2 || (r = claim_ring()) < 0) {
      g_lost.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Ring& ring = g_rings[r];
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  TraceEvent& e = ring.events[h & (kFlightEventsPerThread - 1)];
  e.ts_ns = kml_now_ns();
  e.thread_id = ring.thread_id;
  e.event_id = static_cast<std::uint16_t>(id);
  e.reserved = 0;
  e.arg0 = a0;
  e.arg1 = a1;
  ring.head.store(h + 1, std::memory_order_release);
}

std::uint64_t flight_total_events() {
  std::uint64_t total = 0;
  const unsigned claimed = g_ring_count.load(std::memory_order_acquire);
  const unsigned n = claimed < kFlightThreads ? claimed : kFlightThreads;
  for (unsigned i = 0; i < n; ++i) {
    total += g_rings[i].head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t flight_lost_thread_events() {
  return g_lost.load(std::memory_order_relaxed);
}

FlightSnapshot flight_snapshot() {
  FlightSnapshot snap;
  snap.frozen = flight_frozen();
  snap.lost_thread_events = flight_lost_thread_events();
  const unsigned claimed = g_ring_count.load(std::memory_order_acquire);
  const unsigned n = claimed < kFlightThreads ? claimed : kFlightThreads;
  for (unsigned i = 0; i < n; ++i) {
    const Ring& ring = g_rings[i];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    snap.total_recorded += head;
    if (head == 0) continue;
    const std::uint64_t count =
        head < kFlightEventsPerThread ? head : kFlightEventsPerThread;
    FlightThreadDump dump;
    dump.thread_id = ring.thread_id;
    dump.events.reserve(count);
    for (std::uint64_t k = head - count; k < head; ++k) {
      dump.events.push_back(ring.events[k & (kFlightEventsPerThread - 1)]);
    }
    snap.threads.push_back(std::move(dump));
  }
  return snap;
}

#endif  // KML_OBSERVE_ENABLED

std::string format_flight_text(const FlightSnapshot& snap) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "=== kml flight recorder (%s, %llu recorded, %llu lost) ===\n",
                snap.frozen ? "frozen" : "live",
                static_cast<unsigned long long>(snap.total_recorded),
                static_cast<unsigned long long>(snap.lost_thread_events));
  out += line;
  for (const FlightThreadDump& t : snap.threads) {
    std::snprintf(line, sizeof(line), "-- thread %u (%zu events) --\n",
                  t.thread_id, t.events.size());
    out += line;
    for (const TraceEvent& e : t.events) {
      std::snprintf(line, sizeof(line),
                    "%20llu  %-22s a0=%llu a1=%llu\n",
                    static_cast<unsigned long long>(e.ts_ns),
                    event_name(static_cast<EventId>(e.event_id)),
                    static_cast<unsigned long long>(e.arg0),
                    static_cast<unsigned long long>(e.arg1));
      out += line;
    }
  }
  if (snap.threads.empty()) out += "(no events)\n";
  return out;
}

bool flight_dump_files(const FlightSnapshot& snap, const char* prefix) {
  if (prefix == nullptr) return false;
  char path[512];

  std::snprintf(path, sizeof(path), "%s.bin", prefix);
  KmlFile* bin = kml_fopen(path, "w");
  if (bin == nullptr) return false;
  bool ok = true;
  for (const FlightThreadDump& t : snap.threads) {
    const std::size_t bytes = t.events.size() * sizeof(TraceEvent);
    if (bytes != 0 &&
        kml_fwrite(bin, t.events.data(), bytes) !=
            static_cast<std::int64_t>(bytes)) {
      ok = false;
      break;
    }
  }
  kml_fclose(bin);

  std::snprintf(path, sizeof(path), "%s.txt", prefix);
  KmlFile* txt = kml_fopen(path, "w");
  if (txt == nullptr) return false;
  const std::string text = format_flight_text(snap);
  if (kml_fwrite(txt, text.data(), text.size()) !=
      static_cast<std::int64_t>(text.size())) {
    ok = false;
  }
  kml_fclose(txt);
  return ok;
}

}  // namespace kml::observe
