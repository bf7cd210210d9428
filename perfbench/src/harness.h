// harness.h — shared plumbing of the perfbench workloads: options, the
// result record, the wall clock, span tracing and timed-phase blocks.
//
// Tracing follows the benchmark's rule that spans live in the benchmark's
// own files: each workload wraps its calls into a layer's public functions
// in spans. Spans are aggregated in memory per id (count, total time, and
// the part of that time covered by child spans) and turned into per-layer
// metrics when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;  // target wall length of the timed phase
  bool trace = false;     // per-layer run: spans on, per-layer metrics out
  bool tiny = false;      // test size: every phase runs, at a fraction
  std::string fixtures = "perfbench/fixtures";
  std::string scratch = ".bench_build";  // kv_durable's store lives here
};

// What one run reports: metrics by name with a unit, attempted and failed
// operation counts, and whether every output check passed.
class Result {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void metric(const std::string& name, double value, const char* unit);
  // A failed output check makes the run incorrect and is reported on stderr.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<Metric>& metrics() { return metrics_; }
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Span ids: one per call site the workloads wrap.
enum SpanId : int {
  kSpanOp,         // workload ops between two tuner on_tick calls
  kSpanDrainTick,  // on_tick that closes no window (buffer drain only)
  kSpanCloseTick,  // on_tick that closes a window
  kSpanInfer,      // the tuner's predictor (child of a window-closing tick)
  kSpanSubmit,     // FleetService::submit
  kSpanDrain,      // FleetService::drain
  kSpanFleetTick,  // FleetService::tick
  kSpanObserve,    // HealthMonitor::observe_registry
  kSpanPut,        // MiniKV::put
  kSpanRecover,    // MiniKV::recover
  kSpanReadPhase,  // owner thread: start, then join, the reader threads
  kSpanReadLoop,   // one reader thread's get_concurrent loop
  kNumSpans
};

struct SpanStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;

  std::uint64_t self_ns() const { return total_ns - child_ns; }
};

// Single-threaded span aggregator. open()/close() must nest; the id of a
// span is given when it closes, so a call site can name a span by what the
// call turned out to do (a drain-only vs a window-closing tick).
class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void open(std::uint64_t t);
  void close(SpanId id, std::uint64_t t);

  // Count a span timed elsewhere (another thread's loop); it is no root of
  // this thread.
  void record(SpanId id, std::uint64_t ns);

  const SpanStat& stat(SpanId id) const { return stats_[id]; }
  // Time covered by spans with no parent.
  std::uint64_t root_ns() const { return root_ns_; }

 private:
  static constexpr int kMaxDepth = 8;
  struct Frame {
    std::uint64_t start;
    std::uint64_t child;
  };
  bool on_ = false;
  int depth_ = 0;
  Frame frames_[kMaxDepth] = {};
  SpanStat stats_[kNumSpans] = {};
  std::uint64_t root_ns_ = 0;
};

// RAII span around one call; free when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, SpanId id)
      : tracer_(tracer.on() ? &tracer : nullptr), id_(id) {
    if (tracer_ != nullptr) tracer_->open(wall_ns());
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_, wall_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanId id_;
};

// The host-speed probe: a fixed reference workload timed while a workload
// runs. The host this benchmark runs on has slow spells, from a fraction of
// a second to minutes long, that slow memory-bound code by up to ~30%; no
// run length averages them away. The probe is frozen benchmark code, an LRU
// cache simulation over a hash map and a list (the memory-bound, branchy,
// allocating shape of the simulated layers), so its speed moves with the
// host and never with the program.
class HostProbe {
 public:
  // Runs the reference work until its LRU is full, so every timed batch
  // sees the steady state.
  HostProbe();

  // Time one fixed batch of the reference work; returns its wall ns.
  std::uint64_t sample();
  // Speed implied by one batch time: the reference batch time over it. 1
  // on the reference host, below 1 in a slow spell.
  static double speed_of(double batch_ns);

 private:
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::list<std::uint64_t> lru_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
};

// The timed phase, cut into blocks (a tuner window, a fleet burst, a run of
// puts). An untraced run reads the clock once per block. A traced run turns
// tracing on for every other block, so one process measures the traced and
// the untraced rate, and their difference is the tracing overhead.
//
// Every ~25 ms of timed work the workload offers a probe point, between two
// calls into the program, where the host probe runs. Probe time is a
// pause: excluded from every timing via the timed clock. Each block's time
// and each latency sample is then scaled by the host speed the probes
// measured around it (a running median of five probes), so the wall-clock
// end-to-end metrics read what the reference host would have measured.
class Blocks {
 public:
  Blocks(Tracer& tracer, bool trace_mode)
      : tracer_(tracer), trace_mode_(trace_mode) {}

  // A block begins at wall time `t`; in trace mode every second block is
  // traced.
  void open(std::uint64_t t);
  // The block ends at `t` after `ops` operations; tracing is off after it.
  void close(std::uint64_t t, std::uint64_t ops);
  // Runs the probe if 25 ms of timed work passed since the last one.
  // Returns the wall time the workload resumes at.
  std::uint64_t probe_point(std::uint64_t t);
  // A client batch of ops ended at wall time `t`: records its latency since
  // the previous batch ended (or the first block opened), then offers a
  // probe point. Returns the wall time the workload resumes at.
  std::uint64_t batch(std::uint64_t t);

  // Wall time `t` minus every pause so far: differences of timed() values
  // measure phase time only.
  std::uint64_t timed(std::uint64_t t) const { return t - paused_ns_; }
  // A latency sample of `ns` phase time that ended at wall time `t`.
  void latency(std::uint64_t ns, std::uint64_t t);

  std::uint64_t ops() const { return ops_; }
  std::size_t count() const { return blocks_.size(); }
  std::size_t latency_samples() const { return latencies_.size(); }
  // Unscaled phase time, all blocks and traced blocks (the span base).
  std::uint64_t wall_ns() const;
  std::uint64_t traced_wall_ns() const;

  // Scaled to the reference host speed:
  double scaled_seconds() const;          // all blocks
  double ops_per_s() const;               // all blocks
  double latency_us(double pct) const;    // nearest-rank percentile
  double median_rate(bool traced) const;  // per-block ops/s
  // Median host speed over the phase (1 with no probe sample).
  double speed() const;

 private:
  static constexpr std::uint64_t kProbeEveryNs = 25'000'000;

  struct Block {
    std::uint64_t start;  // timed clock
    std::uint64_t end;
    std::uint64_t ops;
    bool traced;
  };
  struct Probe {
    std::uint64_t at;  // timed clock
    double speed;
  };

  double speed_at(std::uint64_t at) const;   // nearest probe, smoothed
  double block_speed(const Block& b) const;  // mean over its probes
  const std::vector<double>& smoothed() const;

  Tracer& tracer_;
  bool trace_mode_;
  HostProbe probe_;
  std::uint64_t block_start_ = 0;
  std::uint64_t batch_start_ = 0;  // timed clock
  std::uint64_t ops_ = 0;
  std::uint64_t paused_ns_ = 0;
  std::uint64_t last_probe_ = 0;  // timed clock
  std::vector<Block> blocks_;
  std::vector<Probe> probes_;
  mutable std::vector<double> smoothed_;  // running median of probes_
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latencies_;  // ns, at
};

// One client op's tuner tick, inside the span protocol the tuned workloads
// share: in a traced block the time from one tick to the next is an op
// span, and each tick a span named by what it did. Returns whether the tick
// closed a window. `*t` is set to the wall time after the tick when the
// block is traced, the tick closed a window, or `want_time` asks for it.
template <typename Tuner>
bool tick_in_spans(Tracer& tracer, Tuner& tuner, std::uint64_t now,
                   bool want_time, std::uint64_t* t) {
  const bool traced = tracer.on();
  if (traced) {
    *t = wall_ns();
    tracer.close(kSpanOp, *t);
    tracer.open(*t);
  }
  const std::uint64_t windows = tuner.windows();
  tuner.on_tick(now);
  const bool closed = tuner.windows() != windows;
  if (traced || closed || want_time) *t = wall_ns();
  if (traced) tracer.close(closed ? kSpanCloseTick : kSpanDrainTick, *t);
  return closed;
}

// Order statistics over a sample (the vector is reordered).
double median(std::vector<double> v);
double percentile(std::vector<std::uint64_t>& v, double p);

// Process-wide resource readings.
double peak_rss_mb();                 // getrusage max RSS
std::uint64_t proc_write_bytes();     // /proc/self/io wchar
std::string cpu_model();              // /proc/cpuinfo "model name"

// ns -> unit conversions used by the metric tables.
inline double ns_to_us(double ns) { return ns / 1e3; }
inline double ns_to_ms(double ns) { return ns / 1e6; }
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Tracing metrics every traced run prints: the share of traced wall time
// no span covers (traced blocks plus `other_traced_ns` of traced time
// outside them), and 1 - traced/untraced median block rate.
void report_trace_metrics(Result& result, const Tracer& tracer,
                          const Blocks& blocks,
                          std::uint64_t other_traced_ns = 0);

}  // namespace perfbench
