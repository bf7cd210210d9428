// memtable.h — MiniKV's in-memory write buffer.
//
// Ordered map standing in for RocksDB's skiplist memtable: puts are absorbed
// in memory (after a WAL append) and flushed to a SortedRun when the buffer
// reaches its size limit.
//
// Two structures, one truth:
//  * entries_ — std::map, writer-thread only. Ordered iteration for flush
//    and merged scans (sorted_keys / lower_bound / begin / end).
//  * index_   — fixed-capacity open-addressing hash of atomic slots, the
//    lock-free read path. contains() probes it with acquire loads, so pool
//    workers running MiniKV::get_concurrent() can query a memtable that the
//    writer is still appending to. Slots hold key+1 (0 = empty) and are
//    published with release stores; a concurrent reader sees either the key
//    or empty — never a torn slot. UINT64_MAX, whose tag would wrap to the
//    empty mark, lives in its own atomic flag instead.
//
// The index never shrinks and clear() is NOT safe under concurrent readers;
// MiniKV never clears a shared memtable — flush retires the whole Memtable
// through the epoch domain and starts a fresh one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace kml::kv {

class Memtable {
 public:
  // `capacity_hint` is the expected entry count at flush time; the atomic
  // index is sized to stay below 50% load at that point. The default suits
  // unit tests; MiniKV passes memtable_limit_bytes / entry_bytes.
  explicit Memtable(std::uint32_t entry_bytes,
                    std::uint64_t capacity_hint = 1024);

  // Insert or overwrite a key (writer thread only). Returns true if the
  // key was new. `seq` is the write's sequence number; callers that do not
  // track sequences (unit tests) may omit it and get a local counter.
  bool put(std::uint64_t key, std::uint64_t seq);
  bool put(std::uint64_t key) { return put(key, ++local_seq_); }

  // Lock-free membership probe; safe from any thread concurrently with the
  // writer's put().
  bool contains(std::uint64_t key) const;

  // True when the hash index is at its load-factor ceiling; the owner must
  // flush before the next put. (With default sizing the byte limit always
  // triggers first; this is the belt for degenerate configs.)
  bool index_full() const { return entries_.size() >= index_limit_; }

  std::uint64_t entry_count() const { return entries_.size(); }
  std::uint64_t approximate_bytes() const {
    return entries_.size() * entry_bytes_;
  }
  bool empty() const { return entries_.empty(); }

  // Highest sequence number inserted (0 if empty / untracked).
  std::uint64_t max_seq() const { return max_seq_; }

  // Sorted key list for flushing; does not clear.
  std::vector<std::uint64_t> sorted_keys() const;

  // Writer-thread only, and only while no concurrent reader can reach this
  // memtable (unit-test convenience; MiniKV retires instead of clearing).
  void clear();

  // Iterator support (merged scans; writer thread only).
  using ConstIter = std::map<std::uint64_t, std::uint64_t>::const_iterator;
  ConstIter begin() const { return entries_.begin(); }
  ConstIter end() const { return entries_.end(); }
  ConstIter lower_bound(std::uint64_t key) const {
    return entries_.lower_bound(key);
  }

 private:
  std::uint32_t entry_bytes_;
  std::map<std::uint64_t, std::uint64_t> entries_;  // key -> write seqno
  std::uint64_t local_seq_ = 0;  // for the seq-less put() overload
  std::uint64_t max_seq_ = 0;

  // Open-addressing index: slot = key + 1, 0 = empty. Power-of-two size.
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::atomic<bool> has_max_key_{false};  // UINT64_MAX: no slot tag
  std::uint64_t slot_mask_ = 0;
  std::uint64_t index_limit_ = 0;  // max entries before index_full()
};

}  // namespace kml::kv
