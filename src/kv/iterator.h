// iterator.h — merged iterator over MiniKV's memtable and runs.
//
// Block-structured like a RocksDB table iterator: advancing into a new data
// block loads the *whole block* through the page cache (pages in ascending
// order), then serves entries from memory. This holds for reverse iteration
// too — blocks are visited in descending order but each block's pages are
// still read forward, which is exactly the page-access pattern the paper's
// readreverse workload presents to the kernel readahead heuristic.
//
// The memtable is walked in place, not copied: any put invalidates the
// iterator (see invalidated()), so a valid one never sees the map change.
#pragma once

#include "kv/minikv.h"

namespace kml::kv {

class Iterator {
 public:
  explicit Iterator(MiniKV& db);

  void seek_to_first();
  void seek_to_last();
  void seek(std::uint64_t key);  // first entry with key >= `key`

  bool valid() const { return valid_; }
  std::uint64_t key() const { return current_key_; }

  void next();
  void prev();

  // An iterator captures MiniKV::generation() at construction; any
  // mutation (put/flush/compact/checkpoint) moves it. The first operation
  // on a stale iterator trips an assert in debug builds and, in all
  // builds, parks the iterator here permanently: valid() turns false and
  // every further call is a no-op. Loud beats silently reading runs that
  // compaction may have retired.
  bool invalidated() const { return invalidated_; }

 private:
  struct Source {
    const Table* table;       // nullptr for the memtable
    std::uint64_t idx = 0;    // run: current entry index
    Memtable::ConstIter pos;  // memtable: current entry
    bool exhausted = true;
    // Last block actually loaded for this source (dedupes block reads).
    std::uint64_t loaded_block = UINT64_MAX;
  };

  bool ensure_current();  // generation check; false = invalidated
  std::uint64_t source_key(const Source& s) const;  // key at the position
  void seek_source(Source& s, std::uint64_t target);  // first key >= target
  void seek_source_back(Source& s, std::uint64_t target);  // last <= target
  void step_source(Source& s, bool forward);
  void load_block(Source& s);
  void seek_forward(std::uint64_t target);
  void seek_backward(std::uint64_t target);
  void settle_forward();   // pick min key across sources, dedupe
  void settle_backward();  // pick max key across sources, dedupe

  MiniKV& db_;
  std::uint64_t generation_;  // db generation at construction
  // Keep the captured memtable and runs alive even if the db flushes or
  // compacts them away while this iterator is stale — the generation check
  // makes staleness loud, the pins make even a missed check memory-safe.
  std::shared_ptr<const Memtable> pinned_mem_;
  std::vector<std::shared_ptr<Table>> pinned_runs_;
  std::vector<Source> sources_;  // [0] = memtable, then runs newest->oldest
  bool valid_ = false;
  bool forward_ = true;
  bool invalidated_ = false;
  std::uint64_t current_key_ = 0;
};

}  // namespace kml::kv
