// flight_recorder.h — always-on binary event tracing for post-mortems.
//
// The health guard (PR 1) can say *that* the model went bad; this recorder
// says *what happened just before*. Every instrumented seam drops a 32-byte
// binary event into a per-thread SPSC ring; when health transitions to
// DEGRADED/FAILED the rings are frozen in place, preserving the last N
// events per thread — the causal chain (fault -> invalid step -> rollback ->
// transition) — for a binary or human-readable dump.
//
// Record-path contract (same rules as the metrics registry): no locks, no
// FPU, no allocation. One relaxed state load gates the whole path; a
// recording thread then pays one clock read plus five stores into a ring
// slot it exclusively owns (rings are single-writer, readers only attach
// after a freeze). Overwrite policy: rings wrap, newest event wins — a
// flight recorder keeps the *end* of the story by construction.
//
// With KML_OBSERVE=OFF the KML_EVENT macro expands to ((void)0) and this
// header declares no storage; the read-side API keeps its signatures so
// tools compile unchanged against an empty snapshot.
#pragma once

#include <cstdint>

#ifndef KML_OBSERVE_ENABLED
#define KML_OBSERVE_ENABLED 1
#endif

#include <string>
#include <vector>

namespace kml::observe {

// One id space for the whole process. Values below 16 mirror the
// portability trace-hook ids (trace_hook.h) verbatim.
enum class EventId : std::uint16_t {
  kNone = 0,
  kPoolDispatch = 1,       // a0=epoch, a1=worker count (== kTraceEvPoolDispatch)
  kEpochStall = 2,         // a0=global epoch, a1=objects still deferred
                           // (== kTraceEvEpochStall)
  kBufferPush = 16,        // a0=records pushed since last publish, a1=occupancy
  kBufferDrop,             // a0=records dropped since last publish
  kTrainBatchBegin,        // a0=batch sequence number, a1=records in batch
  kTrainBatchEnd,          // a0=batch sequence number, a1=records in batch
  kEngineCheckpoint,       // a0=engine train iteration
  kEngineRollback,         // a0=engine rollback count (after this one)
  kEngineInvalidStep,      // a0=engine train iteration, a1=loss (milli, 2's-c)
  kEngineTrainStep,        // a0=engine train iteration, a1=loss (milli, 2's-c)
  kTunerDecision,          // a0=predicted class, a1=readahead KB actuated
  kFileTunerDecision,      // a0=predicted class, a1=readahead KB actuated
  kRlTunerDecision,        // a0=chosen action/class, a1=readahead KB actuated
  kHealthTransition,       // a0=old HealthState, a1=new HealthState
  kTrainEpochBegin,        // a0=epoch index, a1=total epochs
  kTrainEpochEnd,          // a0=epoch index, a1=epoch loss (milli, 2's-c)
  kDriftSample,            // a0=max |z| across features (milli), a1=samples
  kFaultInjected,          // a0=FaultSite, a1=injection count for the site
  kKvCheckpoint,           // a0=checkpoint id, a1=overlay run count
  kKvRecover,              // a0=WAL records replayed, a1=recovered durable seq
  kKvTornManifest,         // a0=manifest bytes on disk (rejected load)
  kKvDurabilityFault,      // a0=FaultSite that tripped, a1=last durable seq
  kCacheTunerDecision,     // a0=predicted class, a1=actuated policy id
  kCachePolicySwitch,      // a0=new EvictionPolicyType, a1=old
  kFleetAdmit,             // a0=tenant id, a1=active tenants after admit
  kFleetShed,              // a0=tenant id, a1=that tenant's window count
  kHealthTrip,             // a0=runtime::HealthRule index, a1=observed value
  kEventIdCount,
};

// Stable human-readable name (dump files, tests).
const char* event_name(EventId id);

// The wire/storage format: 32 bytes, integers only, trivially copyable.
struct TraceEvent {
  std::uint64_t ts_ns;      // kml_now_ns() at record time
  std::uint32_t thread_id;  // kml_thread_self() of the recording thread
  std::uint16_t event_id;   // EventId
  std::uint16_t reserved;   // zero; format versioning headroom
  std::uint64_t arg0;
  std::uint64_t arg1;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent is the 32-byte format");

// Ring geometry. kFlightEventsPerThread must stay a power of two (index
// masking on the record path). 32 threads x 1024 events x 32 B = 1 MiB of
// static storage — the price of an always-on post-mortem.
inline constexpr unsigned kFlightThreads = 32;
inline constexpr unsigned kFlightEventsPerThread = 1024;

// Snapshot structs exist in both build modes (empty when compiled out).
struct FlightThreadDump {
  std::uint32_t thread_id = 0;
  std::vector<TraceEvent> events;  // oldest -> newest
};

struct FlightSnapshot {
  std::vector<FlightThreadDump> threads;
  std::uint64_t total_recorded = 0;     // events accepted since reset
  std::uint64_t lost_thread_events = 0; // events from threads past the cap
  bool frozen = false;
};

#if KML_OBSERVE_ENABLED

// True when events are being accepted: runtime-enabled (default), not
// frozen, and the registry-wide observe::enabled() switch is on. One-two
// relaxed loads; this is the macro's gate.
bool flight_recording();

// Runtime kill switch for the recorder alone (bench_overheads prices the
// record path by toggling this with the rest of observe left on).
void flight_set_enabled(bool on);

// Freeze preserves every ring in place (recording stops instantly; an event
// mid-store on another thread may land half-written in the newest slot — a
// documented, bounded imprecision). Thaw resumes recording over the
// preserved history.
void flight_freeze();
void flight_thaw();
bool flight_frozen();

// Clear all rings and counters and resume recording. Threads keep their
// ring assignments.
void flight_reset();

// Record one event. Call through KML_EVENT so the disabled path stays one
// load; calling this directly while not recording is a no-op.
void flight_record(EventId id, std::uint64_t a0 = 0, std::uint64_t a1 = 0);

// Events accepted since the last reset (sum over rings, including
// overwritten ones) / events lost because more than kFlightThreads threads
// recorded.
std::uint64_t flight_total_events();
std::uint64_t flight_lost_thread_events();

// Copy-out of every non-empty ring, oldest event first. Cold path: may
// allocate; safe while recording (each ring is sampled at one instant) but
// meant to run after flight_freeze().
FlightSnapshot flight_snapshot();

#else  // !KML_OBSERVE_ENABLED

inline bool flight_recording() { return false; }
inline void flight_set_enabled(bool) {}
inline void flight_freeze() {}
inline void flight_thaw() {}
inline bool flight_frozen() { return false; }
inline void flight_reset() {}
inline void flight_record(EventId, std::uint64_t = 0, std::uint64_t = 0) {}
inline std::uint64_t flight_total_events() { return 0; }
inline std::uint64_t flight_lost_thread_events() { return 0; }
inline FlightSnapshot flight_snapshot() { return FlightSnapshot{}; }

#endif  // KML_OBSERVE_ENABLED

// Human-readable dump (one line per event, per-thread sections). Works in
// both build modes; empty snapshots render a header only.
std::string format_flight_text(const FlightSnapshot& snap);

// Write `snap` next to a post-mortem: "<prefix>.bin" (raw TraceEvent
// stream, per-thread contiguous, oldest first) and "<prefix>.txt" (the text
// form). Returns true when both files were written. Cold path.
bool flight_dump_files(const FlightSnapshot& snap, const char* prefix);

}  // namespace kml::observe

// Record-path macro. OFF builds: ((void)0), no statics, no code.
#if KML_OBSERVE_ENABLED
#define KML_EVENT(...)                                                     \
  do {                                                                     \
    if (::kml::observe::flight_recording()) {                              \
      ::kml::observe::flight_record(__VA_ARGS__);                          \
    }                                                                      \
  } while (0)
#else
#define KML_EVENT(...) ((void)0)
#endif
