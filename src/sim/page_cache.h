// page_cache.h — simulated OS page cache with pluggable eviction.
//
// The surface both ML case studies observe and actuate:
//  * every page inserted fires the add_to_page_cache tracepoint (what KML's
//    data-collection hooks attach to); hits and misses fire their own
//    per-access tracepoints for the eviction study,
//  * every page dirtied fires writeback_dirty_page,
//  * misses are served through the ondemand readahead engine, whose maximum
//    window is the per-file ra_pages that KML tunes,
//  * reclaim order is delegated to an EvictionPolicy (LRU/CLOCK/GCLOCK) that
//    the eviction tuner switches per workload phase — the reclaim-side
//    analogue of the ra_pages knob.
//
// Storage is slot-based: pages live in a slab with stable uint32_t slot
// indices, so a policy tracks ordering with flat per-slot arrays instead of
// owning the pages. A page is found through a per-file index of fixed-size
// chunks of slot numbers, the analogue of Linux's address_space->i_pages
// (DESIGN.md §13). Reads are charged synchronously on the virtual clock
// (DESIGN.md §2): the modeled benefit of readahead is command batching, the
// first-order effect on SSDs.
#pragma once

#include "sim/device.h"
#include "sim/eviction_policy.h"
#include "sim/file.h"
#include "sim/readahead.h"
#include "sim/tracepoint.h"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace kml::sim {

struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  // Pages brought in by readahead beyond the faulting page that were
  // evicted without ever being accessed — the waste KML eliminates.
  std::uint64_t prefetch_wasted = 0;
  std::uint64_t prefetch_used = 0;
  // Dirty-page lifecycle: pages written back by sync_file() vs. the
  // expensive path — a dirty victim forced out by eviction.
  std::uint64_t synced_pages = 0;
  std::uint64_t dirty_evictions = 0;
  // Eviction-policy changes applied through set_policy() (tuner actuations
  // that actually changed something; no-op re-application is not counted).
  std::uint64_t policy_switches = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class PageCache {
 public:
  PageCache(std::uint64_t capacity_pages, SimClock& clock, Device& device,
            TracepointRegistry& tracepoints,
            EvictionPolicyType policy = EvictionPolicyType::kLru,
            const EvictionParams& params = EvictionParams{});

  // Buffered read of `count` pages starting at `pgoff` — the
  // generic_file_read path: per page, hit -> policy touch (and async
  // readahead if it carries the marker), miss -> sync readahead.
  void read(FileHandle& file, std::uint64_t pgoff, std::uint64_t count);

  // Buffered write: dirties pages (insert if absent, no device read) and
  // fires writeback_dirty_page. No device cost yet — dirty data reaches the
  // device through sync_file() (batched, cheap) or, worst case, through
  // eviction of a dirty victim (single-page write, expensive), mirroring
  // delayed allocation + reclaim writeback. Clamped at EOF like read():
  // the simulated files are fixed-size, there is no append path.
  void write(FileHandle& file, std::uint64_t pgoff, std::uint64_t count);

  // fsync analogue: write back every dirty page of `inode` in maximal
  // contiguous device commands and mark them clean. Returns pages synced.
  std::uint64_t sync_file(std::uint64_t inode);

  // Flush every dirty page of every file (the flusher-thread sweep).
  // Returns pages synced.
  std::uint64_t sync_all();

  // Dirty pages currently resident (all files).
  std::uint64_t dirty_pages() const { return dirty_count_; }

  // Drop every cached page (echo 3 > /proc/sys/vm/drop_caches) — the paper
  // clears the cache between benchmark runs. Resident speculative pages
  // never accessed count as prefetch waste (they were read from the device
  // for nothing), but not as evictions — the drop is not reclaim pressure.
  void drop_all();

  bool cached(std::uint64_t inode, std::uint64_t pgoff) const;

  // Switch the reclaim policy (and its knobs) in place. Residency is
  // preserved; the new policy is seeded by registering the resident pages
  // in slot (≈ insertion-age) order, so a switch costs no hits, only the
  // fine-grained recency/frequency history. Returns true when anything
  // changed; re-applying the current policy+params is a free no-op so the
  // tuner can actuate every window without churn.
  bool set_policy(EvictionPolicyType type,
                  const EvictionParams& params = EvictionParams{});
  EvictionPolicyType policy_type() const { return policy_type_; }
  const EvictionParams& policy_params() const { return policy_params_; }

  std::uint64_t capacity_pages() const { return capacity_; }
  std::uint64_t resident_pages() const {
    return slots_.size() - free_slots_.size();
  }
  const PageCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PageCacheStats{}; }
  ReadaheadEngine& readahead() { return ra_engine_; }

  // Called by the readahead engine: read [start, start+count) of `file`
  // from the device, skipping already-cached pages (each contiguous
  // uncached run becomes one device command), insert the pages, and set
  // the readahead re-arm marker on page `marker_pgoff` — only if this call
  // inserted it (marking an already-resident page would re-arm a stream
  // that did not issue the I/O). Pass kNoMarker to skip. `faulting` is the
  // page the application actually demanded; other inserted pages are
  // accounted as speculative prefetch.
  static constexpr std::uint64_t kNoMarker = UINT64_MAX;
  void do_readahead(FileHandle& file, std::uint64_t start,
                    std::uint64_t count, std::uint64_t marker_pgoff,
                    std::uint64_t faulting);

 private:
  struct PageKey {
    std::uint64_t inode;
    std::uint64_t pgoff;
    bool operator==(const PageKey&) const = default;
  };
  struct PageKeyHash {
    std::size_t operator()(const PageKey& k) const {
      // splitmix-style combine
      std::uint64_t x = k.inode * 0x9e3779b97f4a7c15ULL ^ k.pgoff;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Page {
    PageKey key;
    bool in_use = false;
    bool ra_marker = false;   // PG_readahead analogue
    bool speculative = false; // inserted by prefetch, not yet accessed
    bool dirty = false;
  };
  // sync_file, sync_all and set_policy scan every slot; a wider Page costs
  // them cache lines.
  static_assert(sizeof(Page) == 24);

  // One chunk of the page index: the slots of kChunkPages consecutive pages
  // of one file, kNoSlot where a page is not resident. Keyed in chunks_ by
  // (inode, pgoff >> kChunkShift); allocated with its first resident page
  // and freed with its last, so index memory is bounded by resident pages.
  static constexpr unsigned kChunkShift = 6;
  static constexpr std::uint64_t kChunkPages = 1ull << kChunkShift;
  static constexpr std::uint64_t kChunkMask = kChunkPages - 1;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  struct Chunk {
    std::array<std::uint32_t, kChunkPages> slot;
    std::uint32_t resident = 0;
  };
  static PageKey chunk_id(const PageKey& key) {
    return PageKey{key.inode, key.pgoff >> kChunkShift};
  }

  // Slot of a resident page, kNoSlot if absent; goes through the memo.
  std::uint32_t slot_of(const PageKey& key);
  // The chunk covering `key`: the memo when the last lookup landed in the
  // same chunk, else one directory probe. Absent -> nullptr, or a fresh
  // empty chunk with `create`.
  Chunk* chunk_of(const PageKey& key, bool create);
  void insert(const PageKey& key, bool speculative, bool dirty);
  void evict_one();

  std::uint64_t capacity_;
  SimClock& clock_;
  Device& device_;
  TracepointRegistry& tracepoints_;
  ReadaheadEngine ra_engine_;
  // Slot slab: stable indices for resident pages; freed slots are recycled
  // LIFO. chunks_ maps a key to its slot; the policy orders the slots.
  std::vector<Page> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<PageKey, Chunk, PageKeyHash> chunks_;
  // One-entry memo of the last chunk looked up (nullptr = known absent).
  // Consecutive pages of a readahead window or a MiniKV block share a
  // chunk, so they cost one directory probe. The initial id names no chunk:
  // pgoff >> kChunkShift never reaches UINT64_MAX.
  static constexpr PageKey kNoChunk{0, UINT64_MAX};
  PageKey memo_id_ = kNoChunk;
  Chunk* memo_ = nullptr;
  EvictionPolicyType policy_type_;
  EvictionParams policy_params_;
  std::unique_ptr<EvictionPolicy> policy_;
  PageCacheStats stats_;
  std::uint64_t dirty_count_ = 0;
};

}  // namespace kml::sim
