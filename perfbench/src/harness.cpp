#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

void Result::metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit of the measurement; non-finite values would
    // not be JSON, so they print as 0 and trip the caller's checks.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void Tracer::open(std::uint64_t t) {
  if (depth_ >= kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %d\n",
                 kMaxDepth);
    std::abort();
  }
  frames_[depth_++] = Frame{t, 0};
}

void Tracer::close(SpanId id, std::uint64_t t) {
  const Frame f = frames_[--depth_];
  const std::uint64_t d = t - f.start;
  SpanStat& s = stats_[id];
  s.count += 1;
  s.total_ns += d;
  s.child_ns += f.child;
  if (depth_ > 0) {
    frames_[depth_ - 1].child += d;
  } else {
    root_ns_ += d;
  }
}

void Tracer::record(SpanId id, std::uint64_t ns) {
  stats_[id].count += 1;
  stats_[id].total_ns += ns;
}

namespace {

// The probe's reference batch time: its median inside the workloads on the
// reference host (the 4-vCPU Xeon VM the benchmark was tuned on).
constexpr double kProbeReferenceNs = 1.85e6;
constexpr int kProbeAccesses = 10'000;
constexpr std::size_t kProbeCapacity = 20'000;
constexpr std::size_t kProbeSmoothing = 2;  // running median, 2k+1 probes

}  // namespace

HostProbe::HostProbe() {
  for (int i = 0; i < 10; ++i) sample();
}

std::uint64_t HostProbe::sample() {
  const std::uint64_t t0 = wall_ns();
  for (int i = 0; i < kProbeAccesses; ++i) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    // 70% of accesses hit a 15k-key hot set, the rest a 200k-key tail.
    const std::uint64_t key = x_ % 10 < 7 ? x_ % 15'000 : x_ % 200'000;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      continue;
    }
    lru_.push_front(key);
    map_[key] = lru_.begin();
    if (lru_.size() > kProbeCapacity) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  return wall_ns() - t0;
}

double HostProbe::speed_of(double batch_ns) {
  return batch_ns <= 0 ? 1.0 : kProbeReferenceNs / batch_ns;
}

void Blocks::open(std::uint64_t t) {
  block_start_ = timed(t);
  if (blocks_.empty()) batch_start_ = block_start_;
  tracer_.set_on(trace_mode_ && blocks_.size() % 2 == 1);
}

void Blocks::close(std::uint64_t t, std::uint64_t ops) {
  blocks_.push_back({block_start_, timed(t), ops, tracer_.on()});
  ops_ += ops;
  tracer_.set_on(false);
}

std::uint64_t Blocks::probe_point(std::uint64_t t) {
  const std::uint64_t at = timed(t);
  if (at - last_probe_ < kProbeEveryNs && !probes_.empty()) return t;
  probes_.push_back({at, HostProbe::speed_of(
                             static_cast<double>(probe_.sample()))});
  last_probe_ = at;
  const std::uint64_t resume = perfbench::wall_ns();
  paused_ns_ += resume - t;
  return resume;
}

std::uint64_t Blocks::batch(std::uint64_t t) {
  latency(timed(t) - batch_start_, t);
  const std::uint64_t resume = probe_point(t);
  batch_start_ = timed(resume);
  return resume;
}

void Blocks::latency(std::uint64_t ns, std::uint64_t t) {
  latencies_.emplace_back(ns, timed(t));
}

std::uint64_t Blocks::wall_ns() const {
  std::uint64_t total = 0;
  for (const Block& b : blocks_) total += b.end - b.start;
  return total;
}

std::uint64_t Blocks::traced_wall_ns() const {
  std::uint64_t total = 0;
  for (const Block& b : blocks_) {
    if (b.traced) total += b.end - b.start;
  }
  return total;
}

const std::vector<double>& Blocks::smoothed() const {
  if (smoothed_.size() == probes_.size()) return smoothed_;
  smoothed_.assign(probes_.size(), 1.0);
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    const std::size_t lo = i >= kProbeSmoothing ? i - kProbeSmoothing : 0;
    const std::size_t hi = std::min(probes_.size(), i + kProbeSmoothing + 1);
    std::vector<double> window;
    for (std::size_t j = lo; j < hi; ++j) window.push_back(probes_[j].speed);
    smoothed_[i] = median(window);
  }
  return smoothed_;
}

double Blocks::speed_at(std::uint64_t at) const {
  if (probes_.empty()) return 1.0;
  const auto it = std::lower_bound(
      probes_.begin(), probes_.end(), at,
      [](const Probe& p, std::uint64_t v) { return p.at < v; });
  std::size_t i = static_cast<std::size_t>(it - probes_.begin());
  if (i == probes_.size() ||
      (i > 0 && at - probes_[i - 1].at < probes_[i].at - at)) {
    i -= 1;
  }
  return smoothed()[i];
}

double Blocks::block_speed(const Block& b) const {
  const auto first = std::lower_bound(
      probes_.begin(), probes_.end(), b.start,
      [](const Probe& p, std::uint64_t v) { return p.at < v; });
  double sum = 0;
  int n = 0;
  for (auto it = first; it != probes_.end() && it->at <= b.end; ++it) {
    sum += smoothed()[static_cast<std::size_t>(it - probes_.begin())];
    ++n;
  }
  return n > 0 ? sum / n : speed_at(b.start + (b.end - b.start) / 2);
}

double Blocks::scaled_seconds() const {
  double scaled_ns = 0;
  for (const Block& b : blocks_) {
    scaled_ns += static_cast<double>(b.end - b.start) * block_speed(b);
  }
  return scaled_ns / 1e9;
}

double Blocks::ops_per_s() const {
  const double s = scaled_seconds();
  return s <= 0 ? 0.0 : static_cast<double>(ops_) / s;
}

double Blocks::latency_us(double pct) const {
  std::vector<std::uint64_t> scaled;
  scaled.reserve(latencies_.size());
  for (const auto& [ns, at] : latencies_) {
    scaled.push_back(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(ns) * speed_at(at))));
  }
  return percentile(scaled, pct) / 1e3;
}

double Blocks::median_rate(bool traced) const {
  std::vector<double> rates;
  for (const Block& b : blocks_) {
    if (b.traced != traced || b.end == b.start) continue;
    rates.push_back(static_cast<double>(b.ops) * 1e9 /
                    (static_cast<double>(b.end - b.start) * block_speed(b)));
  }
  return median(rates);
}

double Blocks::speed() const {
  std::vector<double> v;
  for (const Probe& p : probes_) v.push_back(p.speed);
  return v.empty() ? 1.0 : median(v);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least p% of the samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return static_cast<double>(v[rank - 1]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t proc_write_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void report_trace_metrics(Result& result, const Tracer& tracer,
                          const Blocks& blocks, std::uint64_t other_traced_ns) {
  const double traced =
      static_cast<double>(blocks.traced_wall_ns() + other_traced_ns);
  result.metric("trace.residue_share",
                ratio(traced - static_cast<double>(tracer.root_ns()), traced),
                "ratio");
  result.metric("trace.overhead",
                1.0 - ratio(blocks.median_rate(true),
                            blocks.median_rate(false)),
                "ratio");
}

}  // namespace perfbench
