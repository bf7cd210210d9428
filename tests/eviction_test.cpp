// Tests for the eviction case study: the pluggable EvictionPolicy seam
// (LRU equivalence against the pre-refactor cache, CLOCK/GCLOCK reference
// strings), the satellite bugfixes (write EOF clamp, drop_all waste
// accounting, marker-only-when-inserted), the cache feature extractor, and
// the CacheTuner's actuation + health degradation paths.
#include "eviction/features.h"
#include "eviction/tuner.h"
#include "eviction/workload.h"
#include "math/rng.h"
#include "runtime/health.h"
#include "sim/eviction_policy.h"
#include "sim/stack.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

namespace kml {
namespace {

// --- Reference implementation for the equivalence suite ----------------------
//
// The pre-refactor PageCache, verbatim where it matters: std::list LRU with
// front-insert / touch-to-front / evict-back, plus the three satellite
// bugfixes this PR applied to the real cache (EOF clamp in write, drop_all
// waste accounting; the marker fix is irrelevant here because the suite
// never arms markers). If the policy-seam refactor changed any decision,
// the replay below diverges immediately.
class RefLruCache {
 public:
  RefLruCache(std::uint64_t capacity, sim::SimClock& clock,
              sim::Device& device)
      : capacity_(capacity), clock_(clock), device_(device) {}

  void read(sim::FileHandle& file, std::uint64_t pgoff, std::uint64_t count) {
    for (std::uint64_t p = pgoff; p < pgoff + count; ++p) {
      if (p >= file.size_pages) break;
      const Key key{file.inode, p};
      auto it = pages_.find(key);
      if (it != pages_.end()) {
        ++stats_.hits;
        Page& page = *it->second;
        if (page.speculative) {
          page.speculative = false;
          ++stats_.prefetch_used;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        continue;
      }
      ++stats_.misses;
      // ra_pages is 0 in this suite: the miss path demand-reads one page.
      device_.read(file.inode, p, 1);
      insert(key, /*speculative=*/false, /*dirty=*/false);
    }
  }

  void write(sim::FileHandle& file, std::uint64_t pgoff,
             std::uint64_t count) {
    for (std::uint64_t p = pgoff; p < pgoff + count; ++p) {
      if (p >= file.size_pages) break;  // satellite fix: EOF clamp
      const Key key{file.inode, p};
      auto it = pages_.find(key);
      if (it == pages_.end()) {
        insert(key, /*speculative=*/false, /*dirty=*/true);
      } else {
        if (!it->second->dirty) ++dirty_count_;
        it->second->dirty = true;
        it->second->speculative = false;
        lru_.splice(lru_.begin(), lru_, it->second);
      }
    }
  }

  void do_readahead(sim::FileHandle& file, std::uint64_t start,
                    std::uint64_t count, std::uint64_t faulting) {
    if (start >= file.size_pages) return;
    if (start + count > file.size_pages) count = file.size_pages - start;
    constexpr std::uint64_t kNone = UINT64_MAX;
    std::uint64_t run_start = kNone;
    for (std::uint64_t p = start; p <= start + count; ++p) {
      const bool in_range = p < start + count;
      const bool is_cached =
          in_range && pages_.find(Key{file.inode, p}) != pages_.end();
      if (in_range && !is_cached) {
        if (run_start == kNone) run_start = p;
        continue;
      }
      if (run_start != kNone) {
        device_.read(file.inode, run_start, p - run_start);
        for (std::uint64_t q = run_start; q < p; ++q) {
          insert(Key{file.inode, q}, /*speculative=*/q != faulting,
                 /*dirty=*/false);
        }
        run_start = kNone;
      }
    }
  }

  std::uint64_t sync_all() {
    std::vector<std::uint64_t> inodes;
    for (const Page& page : lru_) {
      if (page.dirty) inodes.push_back(page.key.inode);
    }
    std::sort(inodes.begin(), inodes.end());
    inodes.erase(std::unique(inodes.begin(), inodes.end()), inodes.end());
    std::uint64_t total = 0;
    for (std::uint64_t inode : inodes) total += sync_file(inode);
    return total;
  }

  std::uint64_t sync_file(std::uint64_t inode) {
    std::vector<std::uint64_t> dirty;
    for (Page& page : lru_) {
      if (page.key.inode == inode && page.dirty) {
        dirty.push_back(page.key.pgoff);
        page.dirty = false;
        --dirty_count_;
      }
    }
    if (dirty.empty()) return 0;
    std::sort(dirty.begin(), dirty.end());
    std::uint64_t run_start = dirty.front();
    std::uint64_t prev = dirty.front();
    for (std::size_t i = 1; i <= dirty.size(); ++i) {
      const bool end = i == dirty.size();
      if (!end && dirty[i] == prev + 1) {
        prev = dirty[i];
        continue;
      }
      device_.write(inode, run_start, prev - run_start + 1);
      if (!end) {
        run_start = dirty[i];
        prev = dirty[i];
      }
    }
    stats_.synced_pages += dirty.size();
    return dirty.size();
  }

  void drop_all() {
    for (const Page& page : lru_) {  // satellite fix: waste accounting
      if (page.speculative) ++stats_.prefetch_wasted;
    }
    lru_.clear();
    pages_.clear();
    dirty_count_ = 0;
  }

  const sim::PageCacheStats& stats() const { return stats_; }
  std::uint64_t resident_pages() const { return pages_.size(); }
  std::uint64_t dirty_pages() const { return dirty_count_; }

  template <typename F>
  void for_each_resident(F f) const {
    for (const Page& page : lru_) f(page.key.inode, page.key.pgoff);
  }

 private:
  struct Key {
    std::uint64_t inode;
    std::uint64_t pgoff;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t x = k.inode * 0x9e3779b97f4a7c15ULL ^ k.pgoff;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Page {
    Key key;
    bool speculative = false;
    bool dirty = false;
  };

  void insert(const Key& key, bool speculative, bool dirty) {
    while (pages_.size() >= capacity_) evict_one();
    lru_.push_front(Page{key, speculative, dirty});
    pages_.emplace(key, lru_.begin());
    if (dirty) ++dirty_count_;
    ++stats_.inserted;
  }

  void evict_one() {
    const Page& victim = lru_.back();
    if (victim.speculative) ++stats_.prefetch_wasted;
    if (victim.dirty) {
      device_.write(victim.key.inode, victim.key.pgoff, 1);
      --dirty_count_;
      ++stats_.dirty_evictions;
    }
    ++stats_.evicted;
    pages_.erase(victim.key);
    lru_.pop_back();
  }

  std::uint64_t capacity_;
  sim::SimClock& clock_;
  sim::Device& device_;
  std::list<Page> lru_;
  std::unordered_map<Key, std::list<Page>::iterator, KeyHash> pages_;
  sim::PageCacheStats stats_;
  std::uint64_t dirty_count_ = 0;
};

void expect_stats_equal(const sim::PageCacheStats& a,
                        const sim::PageCacheStats& b, std::uint64_t op) {
  ASSERT_EQ(a.hits, b.hits) << "op " << op;
  ASSERT_EQ(a.misses, b.misses) << "op " << op;
  ASSERT_EQ(a.inserted, b.inserted) << "op " << op;
  ASSERT_EQ(a.evicted, b.evicted) << "op " << op;
  ASSERT_EQ(a.prefetch_wasted, b.prefetch_wasted) << "op " << op;
  ASSERT_EQ(a.prefetch_used, b.prefetch_used) << "op " << op;
  ASSERT_EQ(a.synced_pages, b.synced_pages) << "op " << op;
  ASSERT_EQ(a.dirty_evictions, b.dirty_evictions) << "op " << op;
}

// The tentpole guarantee: the extracted LRU policy is decision-for-decision
// identical to the pre-refactor cache. 30k mixed operations (reads, writes
// crossing EOF, readahead bursts, syncs, drops) against a 128-page cache;
// stats, residency, dirty counts, and the virtual clock must agree after
// every single op, and the full resident sets are compared periodically —
// one divergent eviction victim fails the suite within a handful of ops.
TEST(LruEquivalence, ReplayMatchesPreRefactorCache) {
  constexpr std::uint64_t kCapacity = 128;

  sim::SimClock new_clock;
  sim::TracepointRegistry new_tp;
  sim::Device new_dev(sim::nvme_config(), new_clock);
  sim::PageCache cache(kCapacity, new_clock, new_dev, new_tp);
  sim::FileTable new_files(0);  // readahead disabled on both sides

  sim::SimClock ref_clock;
  sim::Device ref_dev(sim::nvme_config(), ref_clock);
  RefLruCache ref(kCapacity, ref_clock, ref_dev);
  sim::FileTable ref_files(0);

  // The third file spans 2^62 pages, which only a sparse page index can
  // hold: its offsets come from its last few hundred pages and from its
  // whole range, so the reference's hash map checks the index op for op at
  // the far end of the page-offset space.
  constexpr std::uint64_t kHugePages = 1ull << 62;
  constexpr std::uint64_t kTailPages = 300;
  const std::uint64_t sizes[3] = {600, 400, kHugePages};
  std::uint64_t inodes[3];
  for (int i = 0; i < 3; ++i) {
    inodes[i] = new_files.create(sizes[i]).inode;
    ASSERT_EQ(ref_files.create(sizes[i]).inode, inodes[i]);
  }

  math::Rng rng(7);
  // A page offset in file `fi`, up to `past_eof` pages beyond its end.
  const auto pick_offset = [&](int fi, std::uint64_t past_eof) {
    if (sizes[fi] != kHugePages) return rng.next_below(sizes[fi] + past_eof);
    if (rng.next_below(2) == 0) return rng.next_below(kHugePages);
    return kHugePages - kTailPages + rng.next_below(kTailPages + past_eof);
  };
  for (std::uint64_t op = 0; op < 30'000; ++op) {
    const std::uint64_t pick = rng.next_below(10);
    const int fi = pick < 6 ? 0 : (pick < 8 ? 1 : 2);
    sim::FileHandle& nf = new_files.get(inodes[fi]);
    sim::FileHandle& rf = ref_files.get(inodes[fi]);
    const std::uint64_t r = rng.next_below(100);
    if (r < 55) {
      const std::uint64_t off = pick_offset(fi, 0);
      const std::uint64_t count = 1 + rng.next_below(4);
      cache.read(nf, off, count);
      ref.read(rf, off, count);
    } else if (r < 75) {
      // Writes sometimes straddle (or start past) EOF — the clamp must
      // agree on both sides.
      const std::uint64_t off = pick_offset(fi, 8);
      const std::uint64_t count = 1 + rng.next_below(8);
      cache.write(nf, off, count);
      ref.write(rf, off, count);
    } else if (r < 90) {
      const std::uint64_t start = pick_offset(fi, 0);
      const std::uint64_t count = 1 + rng.next_below(32);
      cache.do_readahead(nf, start, count, sim::PageCache::kNoMarker, start);
      ref.do_readahead(rf, start, count, start);
    } else if (r < 96) {
      ASSERT_EQ(cache.sync_file(inodes[fi]), ref.sync_file(inodes[fi]));
    } else if (r < 99) {
      ASSERT_EQ(cache.sync_all(), ref.sync_all());
    } else {
      cache.drop_all();
      ref.drop_all();
    }

    expect_stats_equal(cache.stats(), ref.stats(), op);
    ASSERT_EQ(cache.resident_pages(), ref.resident_pages()) << "op " << op;
    ASSERT_EQ(cache.dirty_pages(), ref.dirty_pages()) << "op " << op;
    ASSERT_EQ(new_clock.now_ns(), ref_clock.now_ns()) << "op " << op;

    if (op % 500 == 0) {
      // Same size + every reference page resident => identical sets.
      ref.for_each_resident([&](std::uint64_t inode, std::uint64_t pgoff) {
        ASSERT_TRUE(cache.cached(inode, pgoff))
            << "op " << op << " missing " << inode << ":" << pgoff;
      });
    }
  }
  EXPECT_GT(cache.stats().evicted, 10'000u);  // the suite exercised reclaim
}

// --- Policy reference strings ------------------------------------------------

TEST(EvictionPolicy, NamesAndFactory) {
  EXPECT_STREQ(sim::eviction_policy_name(sim::EvictionPolicyType::kLru),
               "lru");
  EXPECT_STREQ(sim::eviction_policy_name(sim::EvictionPolicyType::kClock),
               "clock");
  EXPECT_STREQ(sim::eviction_policy_name(sim::EvictionPolicyType::kGclock),
               "gclock");
  EXPECT_EQ(sim::eviction_policy_name(static_cast<sim::EvictionPolicyType>(3)),
            nullptr);
  for (int t = 0; t < sim::kNumEvictionPolicies; ++t) {
    auto policy = sim::make_eviction_policy(
        static_cast<sim::EvictionPolicyType>(t), sim::EvictionParams{});
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(static_cast<int>(policy->type()), t);
  }
}

TEST(EvictionPolicy, LruVictimIsLeastRecentlyUsed) {
  auto lru = sim::make_eviction_policy(sim::EvictionPolicyType::kLru,
                                       sim::EvictionParams{});
  lru->on_insert(0);
  lru->on_insert(1);
  lru->on_insert(2);
  lru->on_access(0);  // order (MRU..LRU): 0, 2, 1
  EXPECT_EQ(lru->pick_victim(), 1u);
  EXPECT_EQ(lru->pick_victim(), 2u);
  EXPECT_EQ(lru->pick_victim(), 0u);
}

TEST(EvictionPolicy, ClockGivesSecondChance) {
  auto clock = sim::make_eviction_policy(sim::EvictionPolicyType::kClock,
                                         sim::EvictionParams{});
  clock->on_insert(0);
  clock->on_insert(1);
  clock->on_insert(2);
  // All ref bits set at insert: the hand clears 0,1,2 on its first sweep
  // and evicts the oldest on the second pass.
  EXPECT_EQ(clock->pick_victim(), 0u);
  clock->on_insert(3);
  clock->on_access(1);  // re-referenced: survives the next sweep
  // Hand sits at slot 1: clears its bit, moves on, takes unreferenced 2.
  EXPECT_EQ(clock->pick_victim(), 2u);
}

TEST(EvictionPolicy, ScanResistantClockEvictsUnreferencedFirst) {
  sim::EvictionParams params;
  params.clock_insert_ref = 0;
  auto clock =
      sim::make_eviction_policy(sim::EvictionPolicyType::kClock, params);
  clock->on_insert(0);
  clock->on_insert(1);
  clock->on_insert(2);
  clock->on_access(0);
  // 0 is referenced; the hand starts there, clears it, and the first
  // never-touched page (1) dies without a grace sweep.
  EXPECT_EQ(clock->pick_victim(), 1u);
  EXPECT_EQ(clock->pick_victim(), 2u);
}

TEST(EvictionPolicy, GclockWeightsCountDown) {
  sim::EvictionParams params;
  params.gclock_insert_weight = 2;
  params.gclock_hit_weight = 3;
  params.gclock_max_weight = 4;
  auto gclock =
      sim::make_eviction_policy(sim::EvictionPolicyType::kGclock, params);
  gclock->on_insert(0);
  gclock->on_insert(1);
  gclock->on_access(0);  // 2 + 3 capped at max_weight = 4
  // Hand sweep: 0: 4->3, 1: 2->1, 0: 3->2, 1: 1->0 -> victim 1.
  EXPECT_EQ(gclock->pick_victim(), 1u);
  // Remaining ring is just slot 0 at weight 2: two more passes drain it.
  EXPECT_EQ(gclock->pick_victim(), 0u);
}

TEST(EvictionPolicy, GclockScanResistantRecyclesOneTouchPages) {
  sim::EvictionParams params;
  params.gclock_insert_weight = 0;
  params.gclock_hit_weight = 2;
  params.gclock_max_weight = 8;
  auto gclock =
      sim::make_eviction_policy(sim::EvictionPolicyType::kGclock, params);
  gclock->on_insert(0);  // hot page
  gclock->on_access(0);
  gclock->on_access(0);  // weight 4
  gclock->on_insert(1);  // scan page, weight 0
  gclock->on_insert(2);  // scan page, weight 0
  // Scan pages die in insertion order while the hot page keeps its weight.
  EXPECT_EQ(gclock->pick_victim(), 1u);
  EXPECT_EQ(gclock->pick_victim(), 2u);
  EXPECT_EQ(gclock->pick_victim(), 0u);
}

TEST(EvictionPolicy, OnEraseRemovesFromRing) {
  auto clock = sim::make_eviction_policy(sim::EvictionPolicyType::kClock,
                                         sim::EvictionParams{});
  clock->on_insert(0);
  clock->on_insert(1);
  clock->on_insert(2);
  clock->on_erase(0);  // the hand page itself
  EXPECT_EQ(clock->pick_victim(), 1u);
  clock->on_erase(2);
  clock->on_insert(4);
  EXPECT_EQ(clock->pick_victim(), 4u);
}

// --- PageCache policy plumbing -----------------------------------------------

TEST(PageCachePolicy, SetPolicyPreservesResidencyAndCounts) {
  sim::StackConfig config;
  config.cache_pages = 64;
  sim::StorageStack stack(config);
  sim::FileHandle& file = stack.files().create(256);
  for (std::uint64_t p = 0; p < 64; ++p) stack.cache().read(file, p, 1);
  ASSERT_EQ(stack.cache().resident_pages(), 64u);
  ASSERT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kLru);

  EXPECT_TRUE(stack.cache().set_policy(sim::EvictionPolicyType::kClock));
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kClock);
  EXPECT_EQ(stack.cache().resident_pages(), 64u);  // residency carries over
  EXPECT_EQ(stack.cache().stats().policy_switches, 1u);

  // Re-applying the same type+params is a no-op (per-window actuation must
  // not churn).
  EXPECT_FALSE(stack.cache().set_policy(sim::EvictionPolicyType::kClock));
  EXPECT_EQ(stack.cache().stats().policy_switches, 1u);

  // Same type, different knobs: a real switch.
  sim::EvictionParams params;
  params.clock_insert_ref = 0;
  EXPECT_TRUE(
      stack.cache().set_policy(sim::EvictionPolicyType::kClock, params));
  EXPECT_EQ(stack.cache().stats().policy_switches, 2u);

  // Reclaim still works under the reseeded policy.
  for (std::uint64_t p = 64; p < 192; ++p) stack.cache().read(file, p, 1);
  EXPECT_EQ(stack.cache().resident_pages(), 64u);
  EXPECT_GT(stack.cache().stats().evicted, 0u);
}

// --- Satellite regression tests ----------------------------------------------

// Writes past EOF used to insert phantom dirty pages with no backing block,
// which sync then "wrote back" to the device.
TEST(PageCacheBugfix, WriteClampsAtEof) {
  sim::StackConfig config;
  config.cache_pages = 64;
  sim::StorageStack stack(config);
  sim::FileHandle& file = stack.files().create(8);
  stack.cache().write(file, 6, 10);  // pages 6..15 requested, 6..7 exist
  EXPECT_EQ(stack.cache().resident_pages(), 2u);
  EXPECT_EQ(stack.cache().dirty_pages(), 2u);
  EXPECT_TRUE(stack.cache().cached(file.inode, 7));
  EXPECT_FALSE(stack.cache().cached(file.inode, 8));
  EXPECT_EQ(stack.cache().stats().inserted, 2u);
  EXPECT_EQ(stack.cache().sync_file(file.inode), 2u);

  stack.cache().write(file, 100, 3);  // entirely past EOF: nothing happens
  EXPECT_EQ(stack.cache().resident_pages(), 2u);
  EXPECT_EQ(stack.cache().dirty_pages(), 0u);
}

// drop_all used to discard resident never-accessed speculative pages
// without counting them as prefetch waste, zeroing the signal between
// benchmark phases.
TEST(PageCacheBugfix, DropAllCountsPrefetchWaste) {
  sim::SimClock clock;
  sim::TracepointRegistry tp;
  sim::Device dev(sim::nvme_config(), clock);
  sim::PageCache cache(64, clock, dev, tp);
  sim::FileTable files(0);
  sim::FileHandle& file = files.create(64);

  cache.do_readahead(file, 0, 8, sim::PageCache::kNoMarker, 0);
  ASSERT_EQ(cache.resident_pages(), 8u);  // 1 demanded + 7 speculative
  cache.read(file, 1, 1);                 // one speculative page gets used
  ASSERT_EQ(cache.stats().prefetch_used, 1u);

  cache.drop_all();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(cache.stats().prefetch_wasted, 6u);  // 7 speculative - 1 used
  EXPECT_EQ(cache.stats().evicted, 0u);  // a drop is not an eviction
}

// do_readahead used to arm the PG_readahead marker on any resident page at
// marker_pgoff — including pages it did not insert — double-arming windows
// that issued no I/O.
TEST(PageCacheBugfix, MarkerOnlyArmedOnInsertedPages) {
  sim::StackConfig config;
  config.cache_pages = 256;
  sim::StorageStack stack(config);
  sim::FileHandle& file = stack.files().create(256);

  // Marker page inserted by the call: armed; hitting it opens an async
  // window.
  stack.cache().do_readahead(file, 0, 8, /*marker_pgoff=*/4, /*faulting=*/0);
  stack.cache().read(file, 4, 1);
  EXPECT_EQ(stack.cache().readahead().stats().async_windows, 1u);

  // Every page of [16, 24) is already resident: the second call inserts
  // nothing, so it must not arm a marker on page 20.
  stack.cache().do_readahead(file, 16, 8, sim::PageCache::kNoMarker, 16);
  const std::uint64_t windows_before =
      stack.cache().readahead().stats().async_windows;
  stack.cache().do_readahead(file, 16, 8, /*marker_pgoff=*/20,
                             /*faulting=*/16);
  stack.cache().read(file, 20, 1);
  EXPECT_EQ(stack.cache().readahead().stats().async_windows, windows_before);
}

// --- Feature extractor -------------------------------------------------------

data::TraceRecord rec(sim::TraceEventType kind, std::uint64_t pgoff,
                      std::uint64_t inode = 1) {
  return data::TraceRecord{inode, pgoff, 0,
                           static_cast<std::uint8_t>(kind)};
}

TEST(CacheFeatures, HitFractionRunsAndReuseDistance) {
  eviction::CacheFeatureExtractor extractor;
  std::vector<data::TraceRecord> window{
      rec(sim::TraceEventType::kPageCacheMiss, 10),
      rec(sim::TraceEventType::kPageCacheHit, 10),
      rec(sim::TraceEventType::kPageCacheHit, 10),
      rec(sim::TraceEventType::kPageCacheMiss, 11),
      rec(sim::TraceEventType::kPageCacheHit, 11),
  };
  const eviction::CacheFeatureVector f =
      extractor.extract(window, sim::PageCacheStats{});
  EXPECT_NEAR(f[0], std::log2(6.0), 1e-9);  // log2(1 + 5 accesses)
  EXPECT_NEAR(f[1], 3.0 / 5.0, 1e-9);       // hit fraction
  // Two runs (2 hits, then 1 hit): mean run length 1.5.
  EXPECT_NEAR(f[2], std::log2(2.5), 1e-9);
  // Every re-touch has distance 1 -> bucket bit_width(1) == 1.
  EXPECT_NEAR(f[3], 1.0, 1e-9);
  EXPECT_NEAR(f[4], 0.0, 1e-9);  // no writebacks
  EXPECT_EQ(extractor.last_reuse_histogram()[1], 3u);
}

TEST(CacheFeatures, DirtyFraction) {
  eviction::CacheFeatureExtractor extractor;
  std::vector<data::TraceRecord> window{
      rec(sim::TraceEventType::kPageCacheHit, 1),
      rec(sim::TraceEventType::kWritebackDirtyPage, 1),
      rec(sim::TraceEventType::kPageCacheHit, 2),
      rec(sim::TraceEventType::kWritebackDirtyPage, 2),
  };
  const eviction::CacheFeatureVector f =
      extractor.extract(window, sim::PageCacheStats{});
  EXPECT_NEAR(f[4], 0.5, 1e-9);
}

TEST(CacheFeatures, ReuseDistanceBucketsAreLogScale) {
  eviction::CacheFeatureExtractor extractor;
  std::vector<data::TraceRecord> window;
  window.push_back(rec(sim::TraceEventType::kPageCacheHit, 100));
  for (std::uint64_t p = 0; p < 7; ++p) {
    window.push_back(rec(sim::TraceEventType::kPageCacheHit, p));
  }
  window.push_back(rec(sim::TraceEventType::kPageCacheHit, 100));
  const eviction::CacheFeatureVector f =
      extractor.extract(window, sim::PageCacheStats{});
  // Distance 8 -> bucket bit_width(8) == 4; it is the only sample.
  EXPECT_EQ(extractor.last_reuse_histogram()[4], 1u);
  EXPECT_NEAR(f[3], 4.0, 1e-9);
}

TEST(CacheFeatures, WasteRateFromStatsDeltas) {
  eviction::CacheFeatureExtractor extractor;
  std::vector<data::TraceRecord> window{
      rec(sim::TraceEventType::kPageCacheHit, 1)};
  sim::PageCacheStats stats;
  stats.inserted = 10;
  stats.prefetch_wasted = 0;
  // First window primes the baseline: no delta yet.
  EXPECT_NEAR(extractor.extract(window, stats)[5], 0.0, 1e-9);
  stats.inserted = 30;
  stats.prefetch_wasted = 10;  // 10 of the 20 new inserts were wasted
  EXPECT_NEAR(extractor.extract(window, stats)[5], 0.5, 1e-9);

  extractor.reset();  // back to unprimed
  stats.inserted = 50;
  stats.prefetch_wasted = 20;
  EXPECT_NEAR(extractor.extract(window, stats)[5], 0.0, 1e-9);
}

TEST(CacheFeatures, PhaseNames) {
  EXPECT_STREQ(eviction::cache_phase_name(eviction::CachePhase::kShifting),
               "shifting");
  EXPECT_STREQ(eviction::cache_phase_name(eviction::CachePhase::kScanMix),
               "scanmix");
  EXPECT_STREQ(eviction::cache_phase_name(eviction::CachePhase::kZipfHot),
               "zipfhot");
}

// --- CacheTuner --------------------------------------------------------------

runtime::HealthConfig quick_health() {
  runtime::HealthConfig config;
  config.warmup_steps = 0;
  config.strikes_to_degrade = 1;
  return config;
}

TEST(CacheTuner, ActuatesPredictedPolicyPerWindow) {
  sim::StackConfig config;
  config.cache_pages = 256;
  sim::StorageStack stack(config);
  eviction::CacheTunerConfig tuner_config;
  eviction::CacheTuner tuner(
      stack,
      [](const eviction::CacheFeatureVector&) {
        return static_cast<int>(eviction::CachePhase::kScanMix);
      },
      tuner_config);
  sim::FileHandle& file = stack.files().create(4096);

  for (std::uint64_t p = 0; p < 512; ++p) stack.cache().read(file, p, 1);
  stack.charge_cpu_ns(sim::kNsPerSec);
  tuner.on_tick(stack.clock().now_ns());

  ASSERT_EQ(tuner.windows(), 1u);
  const eviction::CacheTimelinePoint& point = tuner.timeline().back();
  EXPECT_EQ(point.predicted_class,
            static_cast<int>(eviction::CachePhase::kScanMix));
  EXPECT_TRUE(point.switched);
  EXPECT_GT(point.events, 0u);
  // scanmix maps to scan-resistant GCLOCK in the default table.
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kGclock);
  EXPECT_EQ(stack.cache().policy_params().gclock_insert_weight, 0u);
  EXPECT_EQ(stack.cache().stats().policy_switches, 1u);

  // Same prediction next window: actuation is a no-op, not a churn.
  for (std::uint64_t p = 0; p < 512; ++p) stack.cache().read(file, p, 1);
  stack.charge_cpu_ns(sim::kNsPerSec);
  tuner.on_tick(stack.clock().now_ns());
  EXPECT_EQ(tuner.windows(), 2u);
  EXPECT_FALSE(tuner.timeline().back().switched);
  EXPECT_EQ(stack.cache().stats().policy_switches, 1u);
}

TEST(CacheTuner, IdleWindowKeepsPolicy) {
  sim::StackConfig config;
  config.cache_pages = 64;
  config.eviction_policy = sim::EvictionPolicyType::kClock;
  sim::StorageStack stack(config);
  eviction::CacheTuner tuner(
      stack, [](const eviction::CacheFeatureVector&) { return 0; },
      eviction::CacheTunerConfig{});
  stack.charge_cpu_ns(sim::kNsPerSec);
  tuner.on_tick(stack.clock().now_ns());
  ASSERT_EQ(tuner.windows(), 1u);
  EXPECT_EQ(tuner.timeline().back().predicted_class, -1);
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kClock);
}

TEST(CacheTuner, HealthDegradationPinsVanillaLru) {
  sim::StackConfig config;
  config.cache_pages = 256;
  config.eviction_policy = sim::EvictionPolicyType::kGclock;
  sim::StorageStack stack(config);

  runtime::HealthMonitor monitor(quick_health());
  monitor.observe_train_step(std::numeric_limits<double>::quiet_NaN(),
                             false);
  ASSERT_NE(monitor.state(), runtime::HealthState::kHealthy);

  eviction::CacheTunerConfig tuner_config;
  tuner_config.health = &monitor;
  eviction::CacheTuner tuner(
      stack,
      [](const eviction::CacheFeatureVector&) {
        return static_cast<int>(eviction::CachePhase::kScanMix);
      },
      tuner_config);
  sim::FileHandle& file = stack.files().create(4096);

  for (std::uint64_t p = 0; p < 512; ++p) stack.cache().read(file, p, 1);
  stack.charge_cpu_ns(sim::kNsPerSec);
  tuner.on_tick(stack.clock().now_ns());

  // Degraded: the model is not consulted and the cache reverts to LRU.
  ASSERT_EQ(tuner.windows(), 1u);
  EXPECT_TRUE(tuner.timeline().back().degraded);
  EXPECT_EQ(tuner.timeline().back().predicted_class, -1);
  EXPECT_EQ(tuner.degraded_windows(), 1u);
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kLru);
  ASSERT_EQ(stack.cache().stats().policy_switches, 1u);

  // The vanilla pin is applied once, not per window.
  stack.charge_cpu_ns(sim::kNsPerSec);
  tuner.on_tick(stack.clock().now_ns());
  EXPECT_EQ(tuner.degraded_windows(), 2u);
  EXPECT_EQ(stack.cache().stats().policy_switches, 1u);
}

// --- Phase workload + RL smoke ----------------------------------------------

TEST(PhaseWorkload, DriverRunsEveryPhaseAndReportsRates) {
  sim::StackConfig config;
  config.cache_pages = 512;
  sim::StorageStack stack(config);
  eviction::PhaseWorkloadConfig workload;
  workload.file_pages = 4096;
  workload.window_pages = 256;
  workload.hot_pages = 300;
  workload.cpu_ns_per_op = 50'000;  // few ops per segment keep this fast
  eviction::PhaseDriver driver(stack, workload);

  const auto schedule = eviction::default_phase_schedule(1, 1);
  ASSERT_EQ(schedule.size(), 3u);  // shifting, scanmix, zipfhot
  const auto results = driver.run_schedule(schedule);
  ASSERT_EQ(results.size(), 3u);
  for (const eviction::PhaseResult& r : results) {
    EXPECT_GT(r.ops, 0u);
    EXPECT_GE(r.hit_rate, 0.0);
    EXPECT_LE(r.hit_rate, 1.0);
  }
  EXPECT_GT(driver.ops_completed(), 0u);
}

TEST(CacheRl, PolicyActuatorAppliesTableEntries) {
  sim::StackConfig config;
  config.cache_pages = 128;
  sim::StorageStack stack(config);
  const auto table = eviction::default_policy_table();
  auto actuate = eviction::make_policy_actuator(stack, table);
  actuate(static_cast<std::uint32_t>(eviction::CachePhase::kScanMix));
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kGclock);
  actuate(static_cast<std::uint32_t>(eviction::CachePhase::kShifting));
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kLru);
  actuate(99);  // out of range: ignored
  EXPECT_EQ(stack.cache().policy_type(), sim::EvictionPolicyType::kLru);
}

TEST(CacheRl, QLearnerDrivesPolicySwitches) {
  sim::StackConfig config;
  config.cache_pages = 128;
  sim::StorageStack stack(config);
  readahead::RlConfig rl_config = eviction::cache_rl_config();
  ASSERT_EQ(rl_config.actions_kb.size(),
            static_cast<std::size_t>(eviction::kNumCachePhases));
  readahead::QLearningTuner rl(
      stack, rl_config,
      eviction::make_policy_actuator(stack,
                                     eviction::default_policy_table()));
  sim::FileHandle& file = stack.files().create(2048);
  math::Rng rng(3);
  for (int window = 0; window < 5; ++window) {
    for (int i = 0; i < 200; ++i) {
      stack.cache().read(file, rng.next_below(512), 1);
      stack.charge_cpu_ns(20'000);
    }
    stack.charge_cpu_ns(sim::kNsPerSec);
    rl.on_tick(stack.clock().now_ns(), stack.cache().stats().hits);
  }
  ASSERT_GE(rl.timeline().size(), 4u);
  for (const readahead::RlTimelinePoint& point : rl.timeline()) {
    if (point.action >= 0) {
      EXPECT_LT(point.action, eviction::kNumCachePhases);
    }
  }
}

}  // namespace
}  // namespace kml
