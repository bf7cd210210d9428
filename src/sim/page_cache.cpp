#include "sim/page_cache.h"

#include "observe/flight_recorder.h"
#include "observe/metrics.h"

#include <algorithm>
#include <cassert>

namespace kml::sim {

PageCache::PageCache(std::uint64_t capacity_pages, SimClock& clock,
                     Device& device, TracepointRegistry& tracepoints,
                     EvictionPolicyType policy, const EvictionParams& params)
    : capacity_(capacity_pages == 0 ? 1 : capacity_pages),
      clock_(clock),
      device_(device),
      tracepoints_(tracepoints),
      policy_type_(policy),
      policy_params_(params),
      policy_(make_eviction_policy(policy, params)) {}

void PageCache::read(FileHandle& file, std::uint64_t pgoff,
                     std::uint64_t count) {
  for (std::uint64_t p = pgoff; p < pgoff + count; ++p) {
    if (p >= file.size_pages) break;
    const std::uint32_t slot = slot_of(PageKey{file.inode, p});
    if (slot != kNoSlot) {
      ++stats_.hits;
      KML_COUNTER_INC(observe::kMetricCacheHit);
      tracepoints_.emit(TraceEventType::kPageCacheHit, file.inode, p,
                        clock_.now_ns());
      Page& page = slots_[slot];
      if (page.speculative) {
        page.speculative = false;
        ++stats_.prefetch_used;
      }
      const bool was_marker = page.ra_marker;
      page.ra_marker = false;
      policy_->on_access(slot);
      if (was_marker) {
        ra_engine_.on_marker_hit(*this, file, p);
      } else {
        file.ra.prev_pos = p;
      }
      continue;
    }
    ++stats_.misses;
    KML_COUNTER_INC(observe::kMetricCacheMiss);
    tracepoints_.emit(TraceEventType::kPageCacheMiss, file.inode, p,
                      clock_.now_ns());
    ra_engine_.on_sync_miss(*this, file, p);
    // Under extreme cache pressure the fresh page can already be evicted;
    // the reader still consumed it (it was copied to userspace), so no
    // retry loop is needed.
  }
}

void PageCache::write(FileHandle& file, std::uint64_t pgoff,
                      std::uint64_t count) {
  for (std::uint64_t p = pgoff; p < pgoff + count; ++p) {
    // Same EOF clamp as read(): files are fixed-size and a page beyond EOF
    // has no backing block — before this check, writes past EOF inserted
    // phantom dirty pages that sync_file() then "wrote back" to the device.
    if (p >= file.size_pages) break;
    const PageKey key{file.inode, p};
    const std::uint32_t slot = slot_of(key);
    if (slot == kNoSlot) {
      insert(key, /*speculative=*/false, /*dirty=*/true);
    } else {
      Page& page = slots_[slot];
      if (!page.dirty) ++dirty_count_;
      page.dirty = true;
      page.speculative = false;
      policy_->on_access(slot);
    }
    tracepoints_.emit(TraceEventType::kWritebackDirtyPage, file.inode, p,
                      clock_.now_ns());
  }
}

std::uint64_t PageCache::sync_all() {
  std::vector<std::uint64_t> inodes;
  for (const Page& page : slots_) {
    if (page.in_use && page.dirty) inodes.push_back(page.key.inode);
  }
  std::sort(inodes.begin(), inodes.end());
  inodes.erase(std::unique(inodes.begin(), inodes.end()), inodes.end());
  std::uint64_t total = 0;
  for (std::uint64_t inode : inodes) total += sync_file(inode);
  return total;
}

std::uint64_t PageCache::sync_file(std::uint64_t inode) {
  // Gather this file's dirty offsets, then issue maximal contiguous runs.
  std::vector<std::uint64_t> dirty;
  for (Page& page : slots_) {
    if (page.in_use && page.key.inode == inode && page.dirty) {
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

void PageCache::drop_all() {
  // Speculative pages that were resident and never touched are prefetch
  // waste exactly as if reclaim had taken them — the device I/O was spent
  // either way. Before this accounting, a drop between benchmark phases
  // silently zeroed the waste a readahead policy had just caused.
  for (const Page& page : slots_) {
    if (page.in_use && page.speculative) ++stats_.prefetch_wasted;
  }
  slots_.clear();
  free_slots_.clear();
  chunks_.clear();
  memo_id_ = kNoChunk;
  memo_ = nullptr;
  policy_->clear();
  dirty_count_ = 0;  // benchmark reset: dirty data is discarded, not synced
}

bool PageCache::cached(std::uint64_t inode, std::uint64_t pgoff) const {
  const auto it = chunks_.find(chunk_id(PageKey{inode, pgoff}));
  return it != chunks_.end() && it->second.slot[pgoff & kChunkMask] != kNoSlot;
}

PageCache::Chunk* PageCache::chunk_of(const PageKey& key, bool create) {
  const PageKey id = chunk_id(key);
  if (memo_id_ == id && (memo_ != nullptr || !create)) return memo_;
  if (create) {
    const auto [it, fresh] = chunks_.try_emplace(id);
    if (fresh) it->second.slot.fill(kNoSlot);
    memo_ = &it->second;
  } else {
    const auto it = chunks_.find(id);
    memo_ = it == chunks_.end() ? nullptr : &it->second;
  }
  memo_id_ = id;
  return memo_;
}

std::uint32_t PageCache::slot_of(const PageKey& key) {
  const Chunk* chunk = chunk_of(key, /*create=*/false);
  return chunk == nullptr ? kNoSlot : chunk->slot[key.pgoff & kChunkMask];
}

bool PageCache::set_policy(EvictionPolicyType type,
                           const EvictionParams& params) {
  if (type == policy_type_ && params == policy_params_) return false;
  const EvictionPolicyType old_type = policy_type_;
  policy_ = make_eviction_policy(type, params);
  policy_type_ = type;
  policy_params_ = params;
  // Seed the new policy with the resident set in slot order. Slot indices
  // are recycled LIFO so this is only an approximation of insertion age —
  // which is fine: the policies converge on real ordering within one
  // working-set pass, and residency (the expensive part) carries over.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].in_use) policy_->on_insert(slot);
  }
  ++stats_.policy_switches;
  observe::counter_add(observe::kMetricCachePolicySwitches);
  observe::gauge_set(observe::kMetricCachePolicyId,
                     static_cast<std::uint64_t>(type));
  KML_EVENT(observe::EventId::kCachePolicySwitch,
            static_cast<std::uint64_t>(type),
            static_cast<std::uint64_t>(old_type));
  return true;
}

void PageCache::do_readahead(FileHandle& file, std::uint64_t start,
                             std::uint64_t count, std::uint64_t marker_pgoff,
                             std::uint64_t faulting) {
  if (start >= file.size_pages) return;
  if (start + count > file.size_pages) count = file.size_pages - start;

  // Split [start, start+count) into maximal runs of uncached pages; each
  // run is one device command (cached gaps are skipped, as the kernel's
  // __do_page_cache_readahead does).
  bool marker_inserted = false;
  std::uint64_t run_start = PageCache::kNoMarker;
  for (std::uint64_t p = start; p <= start + count; ++p) {
    const bool in_range = p < start + count;
    const bool is_cached =
        in_range && slot_of(PageKey{file.inode, p}) != kNoSlot;
    if (in_range && !is_cached) {
      if (run_start == PageCache::kNoMarker) run_start = p;
      continue;
    }
    if (run_start != PageCache::kNoMarker) {
      const std::uint64_t run_len = p - run_start;
      device_.read(file.inode, run_start, run_len);
      for (std::uint64_t q = run_start; q < p; ++q) {
        insert(PageKey{file.inode, q}, /*speculative=*/q != faulting,
               /*dirty=*/false);
        if (q == marker_pgoff) marker_inserted = true;
      }
      run_start = PageCache::kNoMarker;
    }
  }

  // Arm the marker only on a page this call actually read. The previous
  // behaviour marked any resident page at marker_pgoff — hijacking a page
  // another stream (or an interleaved reader) already owned, double-arming
  // windows that issued no I/O. The residency re-check still matters: under
  // extreme pressure the page can be evicted within this very call.
  if (marker_inserted) {
    const std::uint32_t slot = slot_of(PageKey{file.inode, marker_pgoff});
    if (slot != kNoSlot) slots_[slot].ra_marker = true;
  }
}

void PageCache::insert(const PageKey& key, bool speculative, bool dirty) {
  assert(slot_of(key) == kNoSlot);
  while (resident_pages() >= capacity_) evict_one();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Page& page = slots_[slot];
  page.key = key;
  page.in_use = true;
  page.ra_marker = false;
  page.speculative = speculative;
  page.dirty = dirty;
  // After reclaim: an eviction may have freed the chunk `key` falls in.
  Chunk* chunk = chunk_of(key, /*create=*/true);
  chunk->slot[key.pgoff & kChunkMask] = slot;
  ++chunk->resident;
  policy_->on_insert(slot);
  if (dirty) ++dirty_count_;
  ++stats_.inserted;
  tracepoints_.emit(TraceEventType::kAddToPageCache, key.inode, key.pgoff,
                    clock_.now_ns());
}

void PageCache::evict_one() {
  assert(resident_pages() != 0);
  const std::uint32_t slot = policy_->pick_victim();
  Page& victim = slots_[slot];
  if (victim.speculative) ++stats_.prefetch_wasted;
  if (victim.dirty) {
    // Reclaim writeback: the worst-case path — a synchronous single-page
    // write stalls the allocation that needed this frame.
    device_.write(victim.key.inode, victim.key.pgoff, 1);
    --dirty_count_;
    ++stats_.dirty_evictions;
  }
  ++stats_.evicted;
  // Victims are rarely near the page being inserted, so this probe bypasses
  // the memo rather than evicting the inserting chunk from it.
  const PageKey id = chunk_id(victim.key);
  const auto it = chunks_.find(id);
  assert(it != chunks_.end());
  it->second.slot[victim.key.pgoff & kChunkMask] = kNoSlot;
  if (--it->second.resident == 0) {
    if (memo_id_ == id) memo_ = nullptr;  // now known absent
    chunks_.erase(it);
  }
  victim.in_use = false;
  free_slots_.push_back(slot);
}

}  // namespace kml::sim
