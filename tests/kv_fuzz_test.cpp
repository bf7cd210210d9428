// Randomized differential tests: MiniKV against a trivial reference model
// (std::set of present keys). Random interleavings of puts, gets, scans,
// and reverse scans — across flushes and compactions — must always agree
// with the reference. The crash fuzz at the bottom extends the same idea
// to durability: randomized kill points at every fault seam, each followed
// by a recovery that must honor the exact-ack contract.
#include "kv/iterator.h"

#include "kv_crash_harness.h"
#include "math/rng.h"
#include "kv/minikv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace kml::kv {
namespace {

sim::StackConfig fuzz_stack() {
  sim::StackConfig config;
  config.cache_pages = 2048;
  return config;
}

KVConfig fuzz_kv(std::uint64_t base_keys) {
  KVConfig config;
  config.num_keys = base_keys;
  config.geom.entry_bytes = 128;
  config.geom.block_pages = 4;
  config.memtable_limit_bytes = 16 << 10;  // flush every 128 puts
  config.max_overlay_runs = 2;             // compact aggressively
  return config;
}

class KvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvFuzz, GetsAgreeWithReferenceAcrossFlushesAndCompactions) {
  sim::StorageStack stack(fuzz_stack());
  const std::uint64_t base = 2000;
  MiniKV db(stack, fuzz_kv(base));
  std::set<std::uint64_t> reference;
  for (std::uint64_t k = 0; k < base; ++k) reference.insert(k);

  kml::math::Rng rng(GetParam());
  const std::uint64_t key_space = 3 * base;  // includes absent keys
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t key = rng.next_below(key_space);
    if (rng.next_below(3) == 0) {
      db.put(key);
      reference.insert(key);
    } else {
      EXPECT_EQ(db.get(key), reference.count(key) > 0) << "key " << key;
    }
  }
  EXPECT_GT(db.stats().flushes, 2u);      // the mix crossed flush boundaries
  EXPECT_GT(db.stats().compactions, 0u);  // ... and compactions
}

TEST_P(KvFuzz, ForwardScanMatchesSortedReference) {
  sim::StorageStack stack(fuzz_stack());
  const std::uint64_t base = 1000;
  MiniKV db(stack, fuzz_kv(base));
  std::set<std::uint64_t> reference;
  for (std::uint64_t k = 0; k < base; ++k) reference.insert(k);

  kml::math::Rng rng(GetParam() ^ 0xf00d);
  for (int op = 0; op < 700; ++op) {
    const std::uint64_t key = rng.next_below(4 * base);
    db.put(key);
    reference.insert(key);
  }

  auto it = db.new_iterator();
  auto ref_it = reference.begin();
  std::uint64_t count = 0;
  for (it->seek_to_first(); it->valid(); it->next(), ++ref_it, ++count) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it->key(), *ref_it);
  }
  EXPECT_EQ(count, reference.size());
}

TEST_P(KvFuzz, ReverseScanMatchesReverseReference) {
  sim::StorageStack stack(fuzz_stack());
  const std::uint64_t base = 800;
  MiniKV db(stack, fuzz_kv(base));
  std::set<std::uint64_t> reference;
  for (std::uint64_t k = 0; k < base; ++k) reference.insert(k);

  kml::math::Rng rng(GetParam() ^ 0xbeef);
  for (int op = 0; op < 500; ++op) {
    const std::uint64_t key = rng.next_below(3 * base);
    db.put(key);
    reference.insert(key);
  }

  auto it = db.new_iterator();
  auto ref_it = reference.rbegin();
  std::uint64_t count = 0;
  for (it->seek_to_last(); it->valid(); it->prev(), ++ref_it, ++count) {
    ASSERT_NE(ref_it, reference.rend());
    EXPECT_EQ(it->key(), *ref_it);
  }
  EXPECT_EQ(count, reference.size());
}

TEST_P(KvFuzz, SeeksMatchReferenceLowerBound) {
  sim::StorageStack stack(fuzz_stack());
  const std::uint64_t base = 1000;
  MiniKV db(stack, fuzz_kv(base));
  std::set<std::uint64_t> reference;
  for (std::uint64_t k = 0; k < base; ++k) reference.insert(k);
  // Keys whose only copy is in the memtable: put since the last flush and
  // in no run. The walks below must cross some of them.
  std::set<std::uint64_t> in_runs = reference;
  std::set<std::uint64_t> in_mem;

  kml::math::Rng rng(GetParam() ^ 0x5eec);
  std::uint64_t memtable_only_steps = 0;
  std::uint64_t direction_switches = 0;
  for (int probe = 0; probe < 300; ++probe) {
    // Puts between scans, as the mixgraph workload issues them; each one
    // invalidates the previous iterator, so every probe takes a fresh one.
    for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
      const std::uint64_t key = rng.next_below(4 * base);
      const std::uint64_t flushes = db.stats().flushes;
      db.put(key);
      reference.insert(key);
      in_mem.insert(key);
      if (db.stats().flushes != flushes) {
        in_runs.insert(in_mem.begin(), in_mem.end());
        in_mem.clear();
      }
    }
    auto it = db.new_iterator();
    const std::uint64_t target = rng.next_below(5 * base);
    it->seek(target);
    auto ref = reference.lower_bound(target);
    if (ref == reference.end()) {
      EXPECT_FALSE(it->valid()) << "target " << target;
      continue;
    }
    ASSERT_TRUE(it->valid()) << "target " << target;
    ASSERT_EQ(it->key(), *ref) << "target " << target;

    // A random walk from the seek: next()/prev() steps that switch
    // direction, each checked against the reference.
    bool forward = true;
    for (int step = 0; step < 24; ++step) {
      const bool next = rng.next_below(3) != 0 ? forward : !forward;
      if (next != forward) ++direction_switches;
      forward = next;
      if (next) {
        it->next();
        ++ref;
        if (ref == reference.end()) {
          EXPECT_FALSE(it->valid()) << "next past " << target;
          break;
        }
      } else {
        it->prev();
        if (ref == reference.begin()) {
          EXPECT_FALSE(it->valid()) << "prev before " << target;
          break;
        }
        --ref;
      }
      ASSERT_TRUE(it->valid()) << "probe " << probe << " step " << step;
      ASSERT_EQ(it->key(), *ref) << "probe " << probe << " step " << step;
      if (in_mem.count(*ref) > 0 && in_runs.count(*ref) == 0) {
        ++memtable_only_steps;
      }
    }
  }
  EXPECT_GT(db.stats().flushes, 1u);
  EXPECT_GT(memtable_only_steps, 0u);
  EXPECT_GT(direction_switches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvFuzz,
                         ::testing::Values(1ull, 42ull, 20260706ull));

// --- Randomized crash-point recovery fuzz ------------------------------------
//
// Each iteration is one independent kill-and-recover cycle: arm a random
// durability fault site to fire after a random number of hits, run a random
// put/checkpoint mix until the store crashes (or power-cut it if the fault
// never fired), then recover the directory and check the exact-ack
// contract — every acknowledged write present, no un-acked write
// resurrected, no torn manifest accepted. 350 iterations x 3 seeds =
// 1050 randomized crash points per suite run.

class KvCrashFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvCrashFuzz, RandomCrashPointsNeverLoseAckedWrites) {
  const std::uint64_t seed = GetParam();
  const std::string dir =
      testutil::crash_dir("kv_crash_fuzz_" + std::to_string(seed));
  // One directory reused across iterations: a fresh store rewrites every
  // file its manifest references, so stale files from a prior crash are
  // inert — exactly the situation a long-lived deployment directory is in.
  const KVConfig config = testutil::crash_kv(dir);
  math::Rng rng(seed ^ 0xc4a5ull);
  constexpr FaultSite kSites[] = {FaultSite::kWalAppend,
                                  FaultSite::kCheckpointWrite,
                                  FaultSite::kManifestRename,
                                  FaultSite::kRunFlush};
  constexpr int kCrashPoints = 350;

  for (int iter = 0; iter < kCrashPoints; ++iter) {
    SCOPED_TRACE("crash point " + std::to_string(iter));
    testutil::WriteJournal journal;
    std::uint64_t durable = 0;
    {
      sim::StorageStack stack(testutil::crash_stack());
      MiniKV db(stack, config);
      ASSERT_FALSE(db.failed());
      const FaultSite site = kSites[rng.next_below(4)];
      kml_fault_arm_nth(site, 1 + rng.next_below(12));
      testutil::drive_until_crash(db, journal, rng, 60 + rng.next_below(240));
      kml_fault_disarm_all();
      // Fault never fired within the budget: cut the power mid-buffer
      // instead — an equally legitimate crash point.
      if (!db.failed()) db.crash();
      durable = db.durable_seq();
    }
    sim::StorageStack stack(testutil::crash_stack());
    auto db = MiniKV::recover(stack, config);
    ASSERT_NE(db, nullptr) << "post-crash directory failed to recover";
    testutil::verify_recovery(*db, journal, durable, config.num_keys);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasFailure()) {
      FAIL() << "recovery invariants violated; directory kept at " << dir;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvCrashFuzz,
                         ::testing::Values(1ull, 42ull, 20260706ull));

}  // namespace
}  // namespace kml::kv
