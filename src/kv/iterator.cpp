#include "kv/iterator.h"

#include <cassert>
#include <iterator>

namespace kml::kv {

// Sources: [0] = memtable (newest), then overlay runs newest->oldest, then
// the base run. Lower source index wins on duplicate keys.
Iterator::Iterator(MiniKV& db) : db_(db), generation_(db.generation()) {
  Source mem;
  mem.table = nullptr;
  sources_.push_back(mem);
  const MiniKV::LiveState* state = db.live();
  pinned_mem_ = state->mem;
  pinned_runs_ = state->runs;
  for (auto it = pinned_runs_.rbegin(); it != pinned_runs_.rend(); ++it) {
    Source s;
    s.table = it->get();
    sources_.push_back(s);
  }
}

bool Iterator::ensure_current() {
  if (invalidated_) return false;
  if (db_.generation() != generation_) {
    // The backing store mutated under this iterator. Debug builds stop the
    // test on the spot; release builds park the iterator in a permanent,
    // queryable error state instead of serving stale (or, pre-generation-
    // counter, freed) runs.
    assert(!"kv::Iterator used after MiniKV mutation invalidated it");
    invalidated_ = true;
    valid_ = false;
    return false;
  }
  return true;
}

std::uint64_t Iterator::source_key(const Source& s) const {
  return s.table != nullptr ? s.table->key_at(s.idx) : s.pos->first;
}

void Iterator::seek_source(Source& s, std::uint64_t target) {
  if (s.table != nullptr) {
    s.idx = s.table->lower_bound(target);
    s.exhausted = s.idx >= s.table->entry_count();
  } else {
    s.pos = pinned_mem_->lower_bound(target);
    s.exhausted = s.pos == pinned_mem_->end();
  }
}

void Iterator::seek_source_back(Source& s, std::uint64_t target) {
  // One step back from the first key > target.
  if (s.table != nullptr) {
    const std::uint64_t after = target == UINT64_MAX
                                    ? s.table->entry_count()
                                    : s.table->lower_bound(target + 1);
    s.exhausted = after == 0;
    if (!s.exhausted) s.idx = after - 1;
  } else {
    const Memtable::ConstIter after =
        target == UINT64_MAX ? pinned_mem_->end()
                             : pinned_mem_->lower_bound(target + 1);
    s.exhausted = after == pinned_mem_->begin();
    if (!s.exhausted) s.pos = std::prev(after);
  }
}

void Iterator::step_source(Source& s, bool forward) {
  if (s.table != nullptr) {
    if (forward) {
      s.exhausted = ++s.idx >= s.table->entry_count();
    } else if (s.idx == 0) {
      s.exhausted = true;
    } else {
      --s.idx;
    }
  } else {
    if (forward) {
      s.exhausted = ++s.pos == pinned_mem_->end();
    } else if (s.pos == pinned_mem_->begin()) {
      s.exhausted = true;
    } else {
      --s.pos;
    }
  }
}

void Iterator::load_block(Source& s) {
  if (s.table == nullptr) return;  // memtable: in memory already
  const std::uint64_t block =
      s.idx / s.table->geometry().entries_per_block();
  if (block == s.loaded_block) return;
  s.table->read_block_for(db_.stack(), s.idx);
  s.loaded_block = block;
}

void Iterator::seek_forward(std::uint64_t target) {
  forward_ = true;
  for (Source& s : sources_) seek_source(s, target);
  settle_forward();
}

void Iterator::seek_backward(std::uint64_t target) {
  forward_ = false;
  for (Source& s : sources_) seek_source_back(s, target);
  settle_backward();
}

void Iterator::settle_forward() {
  valid_ = false;
  std::uint64_t best = UINT64_MAX;
  for (const Source& s : sources_) {
    if (s.exhausted) continue;
    const std::uint64_t k = source_key(s);
    if (!valid_ || k < best) {
      best = k;
      valid_ = true;
    }
  }
  if (!valid_) return;
  current_key_ = best;
  // Charge the block read of the newest source holding the winning key.
  for (Source& s : sources_) {
    if (!s.exhausted && source_key(s) == best) {
      load_block(s);
      break;
    }
  }
}

void Iterator::settle_backward() {
  valid_ = false;
  std::uint64_t best = 0;
  for (const Source& s : sources_) {
    if (s.exhausted) continue;
    const std::uint64_t k = source_key(s);
    if (!valid_ || k > best) {
      best = k;
      valid_ = true;
    }
  }
  if (!valid_) return;
  current_key_ = best;
  for (Source& s : sources_) {
    if (!s.exhausted && source_key(s) == best) {
      load_block(s);
      break;
    }
  }
}

void Iterator::seek_to_first() {
  if (!ensure_current()) return;
  seek_forward(0);
}

void Iterator::seek_to_last() {
  if (!ensure_current()) return;
  seek_backward(UINT64_MAX);
}

void Iterator::seek(std::uint64_t key) {
  if (!ensure_current()) return;
  seek_forward(key);
}

void Iterator::next() {
  if (!ensure_current()) return;
  assert(valid_);
  db_.stack_->charge_cpu_ns(db_.config_.cpu_next_ns);
  ++db_.stats_.iter_steps;
  if (!forward_) {
    // Direction switch: reposition strictly after the current key.
    if (current_key_ == UINT64_MAX) {
      valid_ = false;
      return;
    }
    seek_forward(current_key_ + 1);
    return;
  }
  for (Source& s : sources_) {
    if (!s.exhausted && source_key(s) == current_key_) step_source(s, true);
  }
  settle_forward();
}

void Iterator::prev() {
  if (!ensure_current()) return;
  assert(valid_);
  db_.stack_->charge_cpu_ns(db_.config_.cpu_next_ns);
  ++db_.stats_.iter_steps;
  if (forward_) {
    if (current_key_ == 0) {
      valid_ = false;
      return;
    }
    seek_backward(current_key_ - 1);
    return;
  }
  for (Source& s : sources_) {
    if (!s.exhausted && source_key(s) == current_key_) step_source(s, false);
  }
  settle_backward();
}

}  // namespace kml::kv
