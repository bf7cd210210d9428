#include "kv/memtable.h"

namespace kml::kv {
namespace {

// splitmix64 finalizer — full-avalanche mix so sequential keys (the common
// benchmark pattern) spread across the index instead of clustering.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t pow2_at_least(std::uint64_t n) {
  std::uint64_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Memtable::Memtable(std::uint32_t entry_bytes, std::uint64_t capacity_hint)
    : entry_bytes_(entry_bytes) {
  const std::uint64_t cap =
      pow2_at_least((capacity_hint < 32 ? 32 : capacity_hint) * 2);
  slots_.reset(new std::atomic<std::uint64_t>[cap]());
  slot_mask_ = cap - 1;
  index_limit_ = cap / 2;
}

bool Memtable::put(std::uint64_t key, std::uint64_t seq) {
  const auto [it, inserted] = entries_.insert_or_assign(key, seq);
  (void)it;
  if (seq > max_seq_) max_seq_ = seq;
  if (inserted && key == UINT64_MAX) {
    has_max_key_.store(true, std::memory_order_release);
  } else if (inserted) {
    // Publish into the lock-free index. Linear probe; the writer is the
    // only mutator, so an empty slot it observes stays empty until its own
    // release store below fills it.
    const std::uint64_t tagged = key + 1;
    std::uint64_t i = mix64(key) & slot_mask_;
    for (;;) {
      const std::uint64_t cur = slots_[i].load(std::memory_order_relaxed);
      if (cur == tagged) break;  // re-insert after clear() raced? writer-only
      if (cur == 0) {
        slots_[i].store(tagged, std::memory_order_release);
        break;
      }
      i = (i + 1) & slot_mask_;
    }
  }
  return inserted;
}

bool Memtable::contains(std::uint64_t key) const {
  if (key == UINT64_MAX) return has_max_key_.load(std::memory_order_acquire);
  const std::uint64_t tagged = key + 1;
  std::uint64_t i = mix64(key) & slot_mask_;
  // index_limit_ bounds occupancy at 50%, so an empty slot always stops the
  // probe; the full-table guard is pure paranoia.
  for (std::uint64_t probes = 0; probes <= slot_mask_; ++probes) {
    const std::uint64_t cur = slots_[i].load(std::memory_order_acquire);
    if (cur == tagged) return true;
    if (cur == 0) return false;
    i = (i + 1) & slot_mask_;
  }
  return false;
}

std::vector<std::uint64_t> Memtable::sorted_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, seq] : entries_) keys.push_back(key);
  return keys;  // std::map iterates in key order
}

void Memtable::clear() {
  entries_.clear();
  max_seq_ = 0;
  has_max_key_.store(false, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i <= slot_mask_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace kml::kv
