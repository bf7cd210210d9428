// Tests for src/kv: Bloom filter, table geometry, dense/sorted runs, the
// memtable, MiniKV point-lookup/write/flush/compaction behaviour, and the
// merged iterator (forward, reverse, seek, direction switches, dedupe).
#include "kv/iterator.h"
#include "kv/minikv.h"

#include <gtest/gtest.h>

#include <memory>

namespace kml::kv {
namespace {

sim::StackConfig tiny_stack() {
  sim::StackConfig config;
  config.device = sim::nvme_config();
  config.cache_pages = 4096;
  return config;
}

KVConfig tiny_kv(std::uint64_t keys = 10000) {
  KVConfig config;
  config.num_keys = keys;
  config.geom.entry_bytes = 128;
  config.geom.block_pages = 4;
  config.memtable_limit_bytes = 64 << 10;  // flush after 512 puts
  return config;
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (std::uint64_t k = 0; k < 1000; ++k) bloom.add(k * 7);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(bloom.may_contain(k * 7)) << k;
  }
}

TEST(Bloom, FalsePositiveRateNearOnePercent) {
  BloomFilter bloom(10000, 10);
  for (std::uint64_t k = 0; k < 10000; ++k) bloom.add(k);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.may_contain(1000000 + static_cast<std::uint64_t>(i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.03);
  EXPECT_GT(rate, 0.0001);  // a real filter, not a hash set
}

TEST(Geometry, EntryBlockPageMath) {
  TableGeometry geom;
  geom.entry_bytes = 1024;
  geom.block_pages = 16;
  EXPECT_EQ(geom.entries_per_block(), 64u);
  EXPECT_EQ(geom.pages_for(64), 16u);
  EXPECT_EQ(geom.pages_for(65), 32u);  // rounds up to whole blocks
  EXPECT_EQ(geom.pages_for(1), 16u);
}

TEST(DenseRunTest, FindAndBounds) {
  sim::StorageStack stack(tiny_stack());
  TableGeometry geom;
  DenseRun run(stack, geom, 1000);
  EXPECT_EQ(run.entry_count(), 1000u);
  EXPECT_EQ(run.find(42).value(), 42u);
  EXPECT_FALSE(run.find(1000).has_value());
  EXPECT_TRUE(run.may_contain(999));
  EXPECT_FALSE(run.may_contain(1000));
  EXPECT_EQ(run.lower_bound(500), 500u);
  EXPECT_EQ(run.lower_bound(5000), 1000u);
}

TEST(SortedRunTest, FindLowerBoundAndBloom) {
  sim::StorageStack stack(tiny_stack());
  TableGeometry geom;
  SortedRun run(stack, geom, {10, 20, 30, 40}, 10);
  EXPECT_EQ(run.entry_count(), 4u);
  EXPECT_EQ(run.find(30).value(), 2u);
  EXPECT_FALSE(run.find(25).has_value());
  EXPECT_EQ(run.key_at(1), 20u);
  EXPECT_EQ(run.lower_bound(25), 2u);
  EXPECT_EQ(run.lower_bound(45), 4u);
  EXPECT_FALSE(run.may_contain(5));   // below range
  EXPECT_FALSE(run.may_contain(50));  // above range
  EXPECT_TRUE(run.may_contain(20));
}

TEST(SortedRunTest, FlushChargesDeviceWrite) {
  sim::StorageStack stack(tiny_stack());
  TableGeometry geom;
  const std::uint64_t t0 = stack.clock().now_ns();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 1000; ++k) keys.push_back(k);
  SortedRun run(stack, geom, std::move(keys), 10);
  EXPECT_GT(stack.clock().now_ns(), t0);
  EXPECT_GT(stack.device().stats().pages_written, 0u);
}

TEST(MemtableTest, PutContainsClear) {
  Memtable mem(128);
  // The index tags a slot with key + 1, which wraps to "empty" for the top
  // key: it must be absent until put and present after.
  EXPECT_FALSE(mem.contains(UINT64_MAX));
  EXPECT_TRUE(mem.put(5));
  EXPECT_FALSE(mem.put(5));  // overwrite, not new
  EXPECT_TRUE(mem.contains(5));
  EXPECT_FALSE(mem.contains(6));
  EXPECT_EQ(mem.entry_count(), 1u);
  EXPECT_EQ(mem.approximate_bytes(), 128u);
  EXPECT_FALSE(mem.contains(UINT64_MAX));
  EXPECT_TRUE(mem.put(UINT64_MAX));
  EXPECT_FALSE(mem.put(UINT64_MAX));
  EXPECT_TRUE(mem.contains(UINT64_MAX));
  EXPECT_EQ(mem.entry_count(), 2u);
  mem.clear();
  EXPECT_TRUE(mem.empty());
  EXPECT_FALSE(mem.contains(UINT64_MAX));
}

TEST(MemtableTest, SortedKeysAreSorted) {
  Memtable mem(128);
  mem.put(30);
  mem.put(10);
  mem.put(20);
  const auto keys = mem.sorted_keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 10u);
  EXPECT_EQ(keys[2], 30u);
}

TEST(MemtableTest, TracksHighestSequenceNumber) {
  Memtable mem(128);
  EXPECT_EQ(mem.max_seq(), 0u);
  mem.put(10, 5);
  mem.put(20, 9);
  mem.put(10, 12);  // overwrite carries the newer seq
  EXPECT_EQ(mem.max_seq(), 12u);
  EXPECT_EQ(mem.entry_count(), 2u);
}

TEST(MemtableTest, IndexFullTripsAtLoadCeiling) {
  // capacity_hint 1 clamps to the 32-entry floor: a 64-slot index with its
  // load ceiling at 32 entries.
  Memtable mem(128, /*capacity_hint=*/1);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_FALSE(mem.index_full()) << k;
    mem.put(k * 1000 + 7);
  }
  EXPECT_TRUE(mem.index_full());
  // The index stays exact at the ceiling (it never drops inserts).
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_TRUE(mem.contains(k * 1000 + 7)) << k;
  }
  EXPECT_FALSE(mem.contains(1));
}

TEST(MiniKVTest, GetFindsEveryBaseKey) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(1000));
  for (std::uint64_t k = 0; k < 1000; k += 97) {
    EXPECT_TRUE(db.get(k)) << k;
  }
  EXPECT_FALSE(db.get(1000));
  EXPECT_FALSE(db.get(UINT64_MAX));  // never written
  EXPECT_FALSE(db.get_concurrent(UINT64_MAX));
  EXPECT_EQ(db.stats().gets, 13u);  // 11 present keys + 2 absent probes
}

TEST(MiniKVTest, GetChargesVirtualTime) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv());
  const std::uint64_t t0 = stack.clock().now_ns();
  db.get(1234);
  EXPECT_GT(stack.clock().now_ns(), t0);
}

TEST(MiniKVTest, MemtableServesFreshWrites) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv());
  db.put(42);
  const std::uint64_t hits_before = db.stats().memtable_hits;
  EXPECT_TRUE(db.get(42));
  EXPECT_EQ(db.stats().memtable_hits, hits_before + 1);
}

TEST(MiniKVTest, FlushCreatesOverlayRun) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv());
  EXPECT_EQ(db.run_count(), 1u);
  for (std::uint64_t k = 0; k < 600; ++k) db.put(k * 3);  // > 64 KiB
  EXPECT_GE(db.stats().flushes, 1u);
  EXPECT_GE(db.run_count(), 2u);
  // Flushed keys are still readable (from the overlay now).
  EXPECT_TRUE(db.get(3));
}

TEST(MiniKVTest, CompactionBoundsRunCount) {
  sim::StorageStack stack(tiny_stack());
  KVConfig config = tiny_kv();
  config.max_overlay_runs = 2;
  MiniKV db(stack, config);
  for (std::uint64_t k = 0; k < 5000; ++k) db.put(k % 2000);
  EXPECT_GE(db.stats().compactions, 1u);
  EXPECT_LE(db.run_count(), 1u + config.max_overlay_runs + 1u);
  EXPECT_TRUE(db.get(1999));
}

TEST(MiniKVTest, WalGroupCommit) {
  sim::StorageStack stack(tiny_stack());
  KVConfig config = tiny_kv();
  config.wal_buffer_bytes = 4096;  // flush every 32 puts (128 B entries)
  MiniKV db(stack, config);
  for (std::uint64_t k = 0; k < 100; ++k) db.put(k);
  EXPECT_GE(db.stats().wal_flushes, 3u);
}

TEST(IteratorTest, ForwardScanVisitsAllKeysInOrder) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(1000));
  auto it = db.new_iterator();
  std::uint64_t expected = 0;
  for (it->seek_to_first(); it->valid(); it->next()) {
    EXPECT_EQ(it->key(), expected++);
  }
  EXPECT_EQ(expected, 1000u);
}

TEST(IteratorTest, ReverseScanVisitsAllKeysDescending) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(500));
  auto it = db.new_iterator();
  std::uint64_t expected = 499;
  std::uint64_t count = 0;
  for (it->seek_to_last(); it->valid(); it->prev()) {
    EXPECT_EQ(it->key(), expected--);
    ++count;
  }
  EXPECT_EQ(count, 500u);
}

TEST(IteratorTest, SeekLandsOnLowerBound) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  auto it = db.new_iterator();
  it->seek(42);
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 42u);
  it->seek(1000);
  EXPECT_FALSE(it->valid());
}

TEST(IteratorTest, MergedViewDeduplicatesOverlayKeys) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  // Overwrite some base keys; they live in the memtable too now.
  db.put(10);
  db.put(20);
  auto it = db.new_iterator();
  std::uint64_t count = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (it->seek_to_first(); it->valid(); it->next()) {
    if (!first) EXPECT_GT(it->key(), prev);  // strictly increasing => dedup
    prev = it->key();
    first = false;
    ++count;
  }
  EXPECT_EQ(count, 100u);  // no duplicates from the overlay
}

TEST(IteratorTest, MemtableOnlyKeysAppearInScan) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  db.put(100);  // beyond the base key range
  db.put(105);
  auto it = db.new_iterator();
  it->seek(100);
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 100u);
  it->next();
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 105u);
  it->next();
  EXPECT_FALSE(it->valid());
}

TEST(IteratorTest, DirectionSwitchMidStream) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  auto it = db.new_iterator();
  it->seek(50);
  it->next();  // 51
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 51u);
  it->prev();  // back to 50
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 50u);
  it->prev();  // 49
  EXPECT_EQ(it->key(), 49u);
  it->next();  // 50 again
  EXPECT_EQ(it->key(), 50u);
}

TEST(IteratorTest, PrevFromFirstInvalidates) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(10));
  auto it = db.new_iterator();
  it->seek_to_first();
  it->prev();
  EXPECT_FALSE(it->valid());
}

TEST(IteratorTest, ScanTouchesPageCache) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(1000));
  auto it = db.new_iterator();
  for (it->seek_to_first(); it->valid(); it->next()) {
  }
  EXPECT_GT(stack.cache().stats().hits + stack.cache().stats().misses, 0u);
  EXPECT_GT(stack.device().stats().pages_read, 0u);
}

TEST(MiniKVTest, GenerationAdvancesOnEveryMutation) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  const std::uint64_t g0 = db.generation();
  db.put(500);
  const std::uint64_t g1 = db.generation();
  EXPECT_GT(g1, g0);
  EXPECT_TRUE(db.checkpoint());
  const std::uint64_t g2 = db.generation();
  EXPECT_GT(g2, g1);
  db.get(5);  // reads do not invalidate iterators
  EXPECT_EQ(db.generation(), g2);
}

TEST(IteratorTest, StaleIteratorFailsLoudlyNotSilently) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  auto it = db.new_iterator();
  it->seek_to_first();
  ASSERT_TRUE(it->valid());
  EXPECT_FALSE(it->invalidated());
  db.put(500);  // generation moves; `it` is now stale
#ifdef NDEBUG
  // Release builds: the first use after invalidation parks the iterator in
  // a permanent, loud error state — never a silent read of retired runs.
  it->next();
  EXPECT_TRUE(it->invalidated());
  EXPECT_FALSE(it->valid());
  it->seek_to_first();  // every further call stays a no-op
  EXPECT_FALSE(it->valid());
  EXPECT_TRUE(it->invalidated());
#else
  // Debug builds: the same misuse trips the assert.
  EXPECT_DEATH(it->next(), "invalidated");
#endif
}

TEST(IteratorTest, FreshIteratorAfterMutationSeesTheWrite) {
  sim::StorageStack stack(tiny_stack());
  MiniKV db(stack, tiny_kv(100));
  auto stale = db.new_iterator();
  db.put(500);
  auto it = db.new_iterator();  // a new snapshot is the recovery path
  it->seek(500);
  ASSERT_TRUE(it->valid());
  EXPECT_EQ(it->key(), 500u);
  EXPECT_FALSE(it->invalidated());
}

TEST(MiniKVTest, BloomSavesProbesForAbsentKeys) {
  sim::StorageStack stack(tiny_stack());
  KVConfig config = tiny_kv(1000);
  MiniKV db(stack, config);
  // Create one overlay run holding only high keys.
  for (std::uint64_t k = 0; k < 600; ++k) db.put(2000 + k);
  ASSERT_GE(db.run_count(), 2u);
  // Lookups of base-range keys should rarely probe the overlay.
  db.reset_stats();
  for (std::uint64_t k = 0; k < 500; ++k) db.get(k);
  EXPECT_LT(db.stats().bloom_false_positives, 25u);
}

}  // namespace
}  // namespace kml::kv
