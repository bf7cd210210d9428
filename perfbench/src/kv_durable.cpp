// kv_durable — the crash-consistent MiniKV with real WAL, run and manifest
// files in a scratch directory under the checkout.
//
// Set-up builds a store over 1M base keys, preloads the write range and
// checkpoints. The timed write phase is one closed-loop writer putting
// uniform keys from a 250k-key range disjoint from the base, so the merged
// run stops growing and compaction cost levels off. Then, untimed: a
// checkpoint, a tail burst that ends mid group commit, and crash(). The
// crashed directory is recovered several times from copies (restart), every
// acknowledged key is read back, and three get_concurrent() threads run a
// read-only phase. Writes and reads run as separate phases: concurrent
// readers during writes made both rates swing. No ML code runs here.
#include "workloads.h"

#include "kv/minikv.h"
#include "math/rng.h"
#include "portability/epoch.h"
#include "portability/thread.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unistd.h>

namespace perfbench {
namespace {

using namespace kml;
namespace fs = std::filesystem;

constexpr std::uint64_t kBaseKeys = 1'000'000;
constexpr std::uint64_t kWriteRange = 250'000;
constexpr std::uint64_t kKeySpace = kBaseKeys + kWriteRange;
constexpr std::uint64_t kPreloadPuts = 200'000;
// 16 MiB of 128 B entries: a flush every ~185k puts, so the few puts that
// wait on a flush or a compaction stay well under 1% and p99 measures the
// group commit.
constexpr std::uint64_t kMemtableBytes = 16ull << 20;
constexpr std::uint64_t kTailPuts = 20'001;  // ends mid group commit
constexpr std::uint64_t kBlockPuts = 1 << 14;
constexpr int kRestarts = 5;
constexpr unsigned kReaders = 3;
// Puts and per-reader lookups the reference host completes per wall second
// (4-vCPU Xeon VM); they size the phases from --seconds, about 60% of it
// writing and 30% reading.
constexpr double kPutsPerWall = 0.9e6;
constexpr double kLookupsPerWall = 2.5e6;
constexpr std::uint64_t kLatencySampleMask = 7;  // every 8th put

kv::KVConfig store_config(const std::string& dir) {
  kv::KVConfig config;
  config.num_keys = kBaseKeys;
  config.memtable_limit_bytes = kMemtableBytes;
  config.durable_dir = dir;
  return config;
}

struct Store {
  std::unique_ptr<sim::StorageStack> stack;
  std::unique_ptr<kv::MiniKV> db;

  // The store goes before the stack it charges.
  void close() {
    db.reset();
    stack.reset();
  }
};

// Tracks which keys a recovered store must hold: the base, plus every key
// whose put was acknowledged durable.
struct Acked {
  std::vector<std::uint8_t> present;  // index: key - kBaseKeys
  std::vector<std::uint64_t> pending_keys;
  std::vector<std::uint64_t> pending_seqs;

  Acked() : present(kWriteRange, 0) {}

  void put(std::uint64_t key, std::uint64_t seq) {
    pending_keys.push_back(key);
    pending_seqs.push_back(seq);
  }
  void ack(std::uint64_t durable_seq) {
    std::size_t n = 0;
    while (n < pending_seqs.size() && pending_seqs[n] <= durable_seq) {
      present[pending_keys[n] - kBaseKeys] = 1;
      ++n;
    }
    pending_keys.erase(pending_keys.begin(), pending_keys.begin() + n);
    pending_seqs.erase(pending_seqs.begin(), pending_seqs.begin() + n);
  }
  bool expected(std::uint64_t key) const {
    return key < kBaseKeys || present[key - kBaseKeys] != 0;
  }
};

// Writes `n` puts outside the timed phase; acknowledgements land in
// `acked`. With `setup`, offers it a probe point every block of puts.
void put_untimed(kv::MiniKV& db, math::Rng& rng, std::uint64_t n,
                 Acked& acked, Blocks* setup) {
  for (std::uint64_t i = 1; i <= n; ++i) {
    const std::uint64_t key = kBaseKeys + rng.next_below(kWriteRange);
    acked.put(key, db.last_seq() + 1);
    db.put(key);
    if (acked.pending_seqs.size() >= 4096) acked.ack(db.durable_seq());
    if (setup != nullptr && i % kBlockPuts == 0) setup->probe_point(wall_ns());
  }
  acked.ack(db.durable_seq());
}

// Removes the run's scratch directory however the run ends; declared
// before every store, so it goes after them.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

struct Reader {
  kv::MiniKV* db = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t loop_ns = 0;
};

void reader_main(void* arg) {
  auto* r = static_cast<Reader*>(arg);
  math::Rng rng(r->seed);
  const std::uint64_t t0 = wall_ns();
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < r->lookups; ++i) {
    if (r->db->get_concurrent(rng.next_below(kKeySpace))) ++hits;
  }
  r->loop_ns = wall_ns() - t0;
  r->hits = hits;
}

}  // namespace

void run_kv_durable(const Options& options, Result& result) {
  const double scale = options.tiny ? 0.02 : options.seconds;
  const std::uint64_t write_puts =
      std::max<std::uint64_t>(kBlockPuts * 4,
                              static_cast<std::uint64_t>(
                                  std::llround(scale * 0.6 * kPutsPerWall)) /
                                  kBlockPuts * kBlockPuts);
  const std::uint64_t reader_lookups = std::max<std::uint64_t>(
      100'000, static_cast<std::uint64_t>(
                   std::llround(scale * 0.3 * kLookupsPerWall)));
  const std::string root =
      options.scratch + "/kv_durable." + std::to_string(::getpid());
  const std::string dir = root + "/store";
  const ScratchDir scratch{root};
  Tracer tracer;
  math::Rng rng(options.seed);
  Acked acked;

  // --- set-up: base store, preload, checkpoint -----------------------------
  // Set-up times, measured like the timed phase: probe points in the
  // preload, time scaled block by block.
  std::vector<double> setup_s;
  Store store;
  for (int round = 0; round < kSetupRepeats; ++round) {
    store.close();
    Blocks setup(tracer, false);
    setup.open(wall_ns());
    std::error_code ec;
    fs::remove_all(root, ec);
    fs::create_directories(dir, ec);
    if (ec) return result.check(false, "create scratch directory " + dir);
    store.stack = std::make_unique<sim::StorageStack>(sim::StackConfig{});
    store.db = std::make_unique<kv::MiniKV>(*store.stack, store_config(dir));
    acked = Acked{};
    rng = math::Rng(options.seed);
    put_untimed(*store.db, rng, kPreloadPuts, acked, &setup);
    if (!store.db->checkpoint()) {
      return result.check(false, "preload checkpoint");
    }
    acked.ack(store.db->durable_seq());
    setup.close(wall_ns(), 0);
    setup_s.push_back(setup.scaled_seconds());
  }
  kv::MiniKV& db = *store.db;

  // --- timed write phase -----------------------------------------------------
  const kv::KVStats stats_before = db.stats();
  const std::uint64_t wchar_before = proc_write_bytes();
  const std::uint64_t epoch_retired_before = kml_epoch_retired_total();
  const std::uint64_t epoch_stalls_before = kml_epoch_stalls();
  const std::uint64_t durable_before = db.durable_seq();
  Blocks blocks(tracer, options.trace);
  std::vector<std::uint64_t> sample_seq;
  std::vector<std::uint64_t> sample_start;
  std::uint64_t durable_seen = durable_before;
  std::uint64_t commit_ns = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t compaction_ns = 0;

  for (std::uint64_t b = 0; b < write_puts / kBlockPuts; ++b) {
    blocks.open(wall_ns());
    const bool traced = tracer.on();
    for (std::uint64_t i = 0; i < kBlockPuts; ++i) {
      const std::uint64_t key = kBaseKeys + rng.next_below(kWriteRange);
      const std::uint64_t seq = db.last_seq() + 1;
      acked.put(key, seq);
      if ((seq & kLatencySampleMask) == 0) {
        sample_seq.push_back(seq);
        sample_start.push_back(blocks.timed(wall_ns()));
      }
      if (traced) {
        const kv::KVStats s0 = db.stats();
        const std::uint64_t t0 = wall_ns();
        tracer.open(t0);
        db.put(key);
        const std::uint64_t t1 = wall_ns();
        tracer.close(kSpanPut, t1);
        const kv::KVStats& s1 = db.stats();
        if (s1.compactions != s0.compactions) {
          compaction_ns += t1 - t0;
        } else if (s1.flushes != s0.flushes) {
          flush_ns += t1 - t0;
        } else if (s1.wal_flushes != s0.wal_flushes) {
          commit_ns += t1 - t0;
        }
      } else {
        db.put(key);
      }
      if (db.durable_seq() != durable_seen) {
        // The put after which durable_seq() covers a write ends its wait.
        durable_seen = db.durable_seq();
        const std::uint64_t now = wall_ns();
        std::size_t n = 0;
        while (n < sample_seq.size() && sample_seq[n] <= durable_seen) {
          blocks.latency(blocks.timed(now) - sample_start[n], now);
          ++n;
        }
        sample_seq.erase(sample_seq.begin(), sample_seq.begin() + n);
        sample_start.erase(sample_start.begin(), sample_start.begin() + n);
        acked.ack(durable_seen);
      }
    }
    const std::uint64_t end = wall_ns();
    blocks.close(end, kBlockPuts);
    blocks.probe_point(end);
  }
  const kv::KVStats stats_after = db.stats();
  const std::uint64_t wchar_after = proc_write_bytes();
  const std::uint64_t acked_puts = db.durable_seq() - durable_before;
  result.check(!db.failed(), "no durability fault during the write phase");

  // --- untimed: checkpoint, unacknowledged tail, crash ----------------------
  if (!db.checkpoint()) return result.check(false, "post-write checkpoint");
  acked.ack(db.durable_seq());
  const std::uint64_t never_acked =
      write_puts - std::min(write_puts, db.durable_seq() - durable_before);
  put_untimed(db, rng, kTailPuts, acked, nullptr);
  const std::uint64_t durable_at_crash = db.durable_seq();
  result.check(db.last_seq() > durable_at_crash,
               "the crash leaves an unacknowledged tail");
  db.crash();
  store.close();

  // --- restart: recover() on fresh copies of the crashed directory ----------
  tracer.set_on(options.trace);
  std::vector<double> restart_ms;
  std::uint64_t recover_wall = 0;
  std::unique_ptr<sim::StorageStack> recovered_stack;
  std::unique_ptr<kv::MiniKV> recovered;  // goes before its stack
  for (int r = 0; r < kRestarts; ++r) {
    const std::string copy = root + "/restart" + std::to_string(r);
    std::error_code ec;
    fs::copy(dir, copy, fs::copy_options::recursive, ec);
    if (ec) return result.check(false, "copy crashed store");
    recovered.reset();
    recovered_stack = std::make_unique<sim::StorageStack>(sim::StackConfig{});
    const std::uint64_t t0 = wall_ns();
    {
      Span span(tracer, kSpanRecover);
      recovered = kv::MiniKV::recover(*recovered_stack, store_config(copy));
    }
    const std::uint64_t d = wall_ns() - t0;
    recover_wall += d;
    restart_ms.push_back(ns_to_ms(static_cast<double>(d)));
    if (recovered == nullptr) return result.check(false, "recover()");
  }
  kv::MiniKV& db2 = *recovered;
  result.check(db2.durable_seq() == durable_at_crash,
               "durable_seq() survives the restart");

  // --- read back every key: acknowledged present, never-acknowledged absent
  std::uint64_t acked_keys = 0;
  std::uint64_t acked_found = 0;
  std::uint64_t mismatches = 0;
  for (std::uint64_t key = 0; key < kKeySpace; ++key) {
    const bool want = acked.expected(key);
    const bool got = db2.get_concurrent(key);
    if (key >= kBaseKeys && want) {
      ++acked_keys;
      if (got) ++acked_found;
    }
    if (got != want) ++mismatches;
  }
  result.check(mismatches == 0,
               "read-back: acknowledged keys present, others absent");

  // --- read phase: three get_concurrent() threads ---------------------------
  std::vector<Reader> readers(kReaders);
  std::vector<KmlThread*> threads(kReaders, nullptr);
  for (unsigned i = 0; i < kReaders; ++i) {
    readers[i].db = &db2;
    readers[i].seed = options.seed * 0x9e3779b97f4a7c15ull + i + 1;
    readers[i].lookups = reader_lookups;
  }
  const std::uint64_t read_t0 = wall_ns();
  if (tracer.on()) tracer.open(read_t0);
  for (unsigned i = 0; i < kReaders; ++i) {
    threads[i] = kml_thread_create(reader_main, &readers[i], "kvread");
  }
  bool joined = true;
  for (KmlThread* t : threads) {
    if (t == nullptr) {
      joined = false;
      continue;
    }
    kml_thread_join(t);
  }
  const std::uint64_t read_t1 = wall_ns();
  if (tracer.on()) tracer.close(kSpanReadPhase, read_t1);
  result.check(joined, "reader threads started");
  const std::uint64_t read_wall = read_t1 - read_t0;

  // Replay each reader's key stream to check its hit count.
  std::uint64_t lookups = 0;
  std::uint64_t read_loop_ns = 0;
  std::uint64_t read_errors = 0;
  for (const Reader& r : readers) {
    math::Rng replay(r.seed);
    std::uint64_t want = 0;
    for (std::uint64_t i = 0; i < r.lookups; ++i) {
      if (acked.expected(replay.next_below(kKeySpace))) ++want;
    }
    if (want != r.hits) ++read_errors;
    lookups += r.lookups;
    read_loop_ns += r.loop_ns;
    if (options.trace) tracer.record(kSpanReadLoop, r.loop_ns);
  }
  tracer.set_on(false);
  result.check(read_errors == 0, "every reader's hits match the store");

  const std::uint64_t puts = write_puts;
  result.attempted = puts + kKeySpace + lookups;
  result.failed = never_acked + mismatches + read_errors;
  result.check(never_acked == 0, "every timed put acknowledged durable");

  const std::uint64_t disk = dir_bytes(root + "/restart" +
                                       std::to_string(kRestarts - 1));
  std::printf("kv_durable: %llu puts (%llu acknowledged) in %.2f s, %llu "
              "flushes, %llu compactions, %zu latency samples, host speed "
              "%.3f; restart median %.3f ms; %llu lookups by %u readers\n",
              static_cast<unsigned long long>(puts),
              static_cast<unsigned long long>(acked_puts),
              static_cast<double>(blocks.wall_ns()) / 1e9,
              static_cast<unsigned long long>(stats_after.flushes -
                                              stats_before.flushes),
              static_cast<unsigned long long>(stats_after.compactions -
                                              stats_before.compactions),
              blocks.latency_samples(), blocks.speed(), median(restart_ms),
              static_cast<unsigned long long>(lookups), kReaders);

  result.metric("setup_s", median(setup_s), "s");
  result.metric("ops_per_s", blocks.ops_per_s(), "1/s");
  result.metric("p50_us", blocks.latency_us(50), "us");
  result.metric("p99_us", blocks.latency_us(99), "us");
  result.metric("quality", ratio(acked_found, acked_keys), "ratio");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const double wall = static_cast<double>(blocks.traced_wall_ns());
  const SpanStat& put = tracer.stat(kSpanPut);
  result.metric("kv.put_us", ns_to_us(ratio(put.total_ns, put.count)), "us");
  result.metric("kv.commit_share", ratio(commit_ns, wall), "ratio");
  result.metric("kv.flush_share", ratio(flush_ns, wall), "ratio");
  result.metric("kv.compaction_share", ratio(compaction_ns, wall), "ratio");
  result.metric("kv.bytes_written_per_put",
                ratio(wchar_after - wchar_before, puts), "B/put");
  result.metric("kv.flushes",
                static_cast<double>(stats_after.flushes - stats_before.flushes),
                "count");
  result.metric("kv.compactions",
                static_cast<double>(stats_after.compactions -
                                    stats_before.compactions),
                "count");
  result.metric("kv.restart_ms", median(restart_ms), "ms");
  result.metric("kv.wal_records_replayed",
                static_cast<double>(db2.stats().wal_records_replayed),
                "count");
  result.metric("kv.runs_loaded", static_cast<double>(db2.run_count()),
                "count");
  result.metric("kv.disk_bytes_per_key", ratio(disk, acked_keys), "B/key");
  result.metric("kv.read_ops_per_s",
                ratio(static_cast<double>(lookups) * 1e9,
                      static_cast<double>(read_wall)),
                "1/s");
  result.metric("kv.read_ns", ratio(read_loop_ns, lookups), "ns");
  result.metric("portability.epoch_retired",
                static_cast<double>(kml_epoch_retired_total() -
                                    epoch_retired_before),
                "count");
  result.metric("portability.epoch_stalls",
                static_cast<double>(kml_epoch_stalls() - epoch_stalls_before),
                "count");
  report_trace_metrics(result, tracer, blocks, recover_wall + read_wall);
}

}  // namespace perfbench
