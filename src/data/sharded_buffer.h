// sharded_buffer.h — N-shard generalization of the SPSC collection ring.
//
// The single CircularBuffer serializes all data-collection hooks through one
// producer cursor; with per-CPU hooks (multi-core I/O paths, §3.1) that
// cursor becomes a contended cache line. A ShardedBuffer gives each producer
// its own SPSC ring — push(value, shard) keyed by the producer's stable id
// (CPU number in a kernel deployment, thread slot here) — preserving the
// wait-free, never-blocking producer contract per shard with ZERO new
// synchronization: every (producer, shard) pair is still exactly the SPSC
// shape CircularBuffer guarantees.
//
// Tenant→shard mapping contract (fleet serving): a producer id is a SHARD
// INDEX in [0, shard_count()), not an arbitrary key. Callers that map a
// large id space (tenant ids, inode numbers, CPU numbers beyond the shard
// count) onto shards must fold the key themselves — hash or modulo — and
// then guarantee that every producer landing on the same shard serializes
// with the others on that shard (one thread per shard is the easy way;
// kml::fleet::FleetService::shard_of is the reference implementation).
// Passing an unfolded id "works" only by accident: push() folds it modulo
// the shard count as a last resort, which silently turns two independent
// producers into two unsynchronized writers of one SPSC ring. That fold is
// now loud: a debug assert, plus the "data.buffer.folded_pushes" registry
// counter and folded_pushes() on release builds.
//
// The single consumer (training thread) drains shards round-robin via
// pop_many, so no shard can starve the others, and publishes the aggregated
// ring metrics at the same batch granularity as before. shards == 1 is
// bit-for-bit today's single-ring behavior.
#pragma once

#include "data/circular_buffer.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <vector>

namespace kml::data {

template <typename T>
class ShardedBuffer {
 public:
  static constexpr unsigned kMaxShards = 64;

  // `capacity` is the TOTAL capacity budget, split evenly across shards.
  // shards is clamped to [1, kMaxShards].
  //
  // Two sharp edges, clamped and accounted here:
  //   * The ceil-divide used to be written (capacity + shards - 1) / shards,
  //     which WRAPS for capacities within shards-1 of SIZE_MAX and silently
  //     built kMaxShards one-slot rings out of a near-SIZE_MAX budget (the
  //     same integer-wrap class as the round_up_pow2 bugs fixed in PRs 2
  //     and 7). Divide-first arithmetic cannot wrap; absurd budgets now
  //     reach CircularBuffer's own allocation guard and degrade loudly to
  //     drop-everything rings instead of quietly shrinking to nothing.
  //   * Each shard ring rounds its capacity up to a power of two, so the
  //     TOTAL allocated budget can exceed the request by up to 2x (e.g.
  //     65 slots over 64 shards -> 64 rings of 2 = 128 slots). capacity()
  //     reports what was actually allocated, requested_capacity() what was
  //     asked for, and a construction-time warning fires when the round-up
  //     inflates the budget by more than 50% — size the request as
  //     shards x power-of-two to make the two numbers agree.
  explicit ShardedBuffer(std::size_t capacity, unsigned shards = 1) {
    if (shards < 1) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    requested_capacity_ = capacity;
    std::size_t per = capacity / shards + (capacity % shards != 0 ? 1 : 0);
    if (per == 0) per = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<CircularBuffer<T>>(per));
    }
    const std::size_t actual = this->capacity();
    if (actual > capacity && actual - capacity > capacity / 2) {
      KML_WARN("ShardedBuffer: per-shard power-of-two round-up inflated the "
               "capacity budget %zu -> %zu over %u shards",
               capacity, actual, shards);
    }
  }

  ShardedBuffer(const ShardedBuffer&) = delete;
  ShardedBuffer& operator=(const ShardedBuffer&) = delete;

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

  // Producer side: wait-free, safe for one producer per shard. `shard` must
  // already be folded into [0, shard_count()) — see the tenant→shard
  // contract above. An out-of-range id is a contract violation: debug
  // builds assert; release builds fold modulo the shard count (the producer
  // then races any producer legitimately owning that shard) and count the
  // violation so it is visible in tool_metrics_dump and folded_pushes().
  bool push(const T& value, unsigned shard = 0) {
    const std::size_t n = shards_.size();
    if (shard >= n) {
      assert(!"ShardedBuffer::push: shard id not pre-folded into "
              "[0, shard_count()) — the SPSC contract is broken");
      folded_pushes_.fetch_add(1, std::memory_order_relaxed);
      KML_COUNTER_INC(observe::kMetricBufferFoldedPushes);
      shard = static_cast<unsigned>(shard % n);
    }
    return shards_[shard]->push(value);
  }

  // Consumer side: single consumer only. Round-robin drain across shards —
  // the cursor persists across calls so a hot shard cannot starve the rest.
  std::size_t pop_many(T* out, std::size_t max) {
    const std::size_t n_shards = shards_.size();
    std::size_t n = 0;
    std::size_t dry = 0;  // consecutive empty shards seen
    while (n < max && dry < n_shards) {
      if (shards_[cursor_]->pop(out[n])) {
        ++n;
        dry = 0;
      } else {
        ++dry;
      }
      cursor_ = (cursor_ + 1) % n_shards;
    }
    publish_metrics();
    return n;
  }

  // Aggregate the per-shard ring counters into the shared observe registry
  // (each shard publishes its own deltas; the registry sums them).
  void publish_metrics() {
    for (auto& s : shards_) s->publish_metrics();
  }

  // Aggregates across shards. Approximate under concurrent producers,
  // exactly like the single-ring size().
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s->size();
    return total;
  }

  bool empty() const { return size() == 0; }

  // Slots actually allocated (after the per-shard power-of-two round-up);
  // >= requested_capacity() whenever allocation succeeded.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s->capacity();
    return total;
  }

  // The capacity budget the constructor was asked for.
  std::size_t requested_capacity() const { return requested_capacity_; }

  std::uint64_t dropped() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->dropped();
    return total;
  }

  // Pushes that arrived with an unfolded (out-of-range) shard id and were
  // folded modulo the shard count — every one is a latent SPSC violation.
  std::uint64_t folded_pushes() const {
    return folded_pushes_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<CircularBuffer<T>>> shards_;
  std::size_t cursor_ = 0;  // consumer-side round-robin position
  std::size_t requested_capacity_ = 0;
  std::atomic<std::uint64_t> folded_pushes_{0};
};

}  // namespace kml::data
