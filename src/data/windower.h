// windower.h — time-windowed event aggregation (§4).
//
// "In the readahead model, we process the collected data points every
// second and then extract features at runtime." The windower buffers raw
// trace records and fires a callback with the completed window each time
// the (virtual or wall) clock crosses a period boundary. Empty windows are
// reported too — "no I/O happened this second" is signal.
//
// It is the one place a record stream is cut into windows: the live tuners
// (readahead/closed_loop.h) drain their ring into it once per tick, and the
// offline collectors (readahead/pipeline.cpp, eviction/model.cpp) append
// from their hook or from a trace file.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace kml::data {

// The record schema the paper's data-collection hooks emit: inode number,
// page offset within the file, and time since module start (§4 "Data
// collection"). `kind` distinguishes the two tracepoints KML attaches to
// (0 = add_to_page_cache, 1 = writeback_dirty_page).
struct TraceRecord {
  std::uint64_t inode;
  std::uint64_t pgoff;
  std::uint64_t time_ns;
  std::uint8_t kind;
};

class Windower {
 public:
  using WindowFn =
      std::function<void(std::uint64_t window_index,
                         const std::vector<TraceRecord>& records)>;

  // period_ns: window length (paper default: 1 second). Boundaries are
  // anchored at start_ns: window k covers
  // [start_ns + k * period_ns, start_ns + (k + 1) * period_ns).
  Windower(std::uint64_t period_ns, WindowFn on_window,
           std::uint64_t start_ns = 0)
      : period_ns_(period_ns == 0 ? 1 : period_ns),
        on_window_(std::move(on_window)),
        next_boundary_(start_ns + period_ns_) {}

  // Append to the open window without consulting the clock. Live loops
  // drain, then advance_to(now): records drained on the tick that crosses
  // a boundary belong to the window that closes.
  void add(const TraceRecord& record) { current_.push_back(record); }

  // Close-then-append, for replay where each record carries its own time:
  // closes every window the record's timestamp has passed, then adds it.
  void push(const TraceRecord& record) {
    advance_to(record.time_ns);
    add(record);
  }

  // Close every window whose end boundary is <= now_ns, firing on_window
  // once per window, empty ones included.
  void advance_to(std::uint64_t now_ns) {
    while (now_ns >= next_boundary_) close_window();
  }

  // Close the open (partial) window now (end of run).
  void flush() { close_window(); }

  // Records in the open window.
  std::size_t pending() const { return current_.size(); }

 private:
  void close_window() {
    if (on_window_) on_window_(next_window_, current_);
    current_.clear();
    ++next_window_;
    next_boundary_ += period_ns_;
  }

  std::uint64_t period_ns_;
  WindowFn on_window_;
  // The open window. Cleared in place after each callback, so its capacity
  // is kept: a steady stream stops allocating after the first windows.
  std::vector<TraceRecord> current_;
  std::uint64_t next_window_ = 0;  // index of the window being filled
  std::uint64_t next_boundary_;    // end of the window being filled
};

}  // namespace kml::data
