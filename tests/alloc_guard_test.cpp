// alloc_guard_test.cpp — zero-allocation contracts that std containers
// could break.
//
// The runtime/capi/parallel guards count kml_malloc, so growth of a
// std::vector or std::unordered_set is invisible to them. This binary
// replaces the global operator new with a counting one: any heap
// allocation inside a measured region fails the test, whoever makes it.
//
// Window-closing tuner ticks stay outside the guard: they append to the
// timeline, an unbounded per-window history the benches read.
#include "fleet/service.h"
#include "fleet/workload.h"
#include "portability/kml_lib.h"
#include "readahead/features.h"
#include "readahead/tuner.h"
#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_new(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_new(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kml {
namespace {

TEST(StdAllocGuard, CountingOperatorNewSeesContainerGrowth) {
  const std::uint64_t before = allocations();
  std::vector<int> v;
  v.push_back(1);
  EXPECT_GT(allocations(), before);
}

TEST(StdAllocGuard, ReadaheadTunerDrainOnlyTicksAfterFirstWindow) {
  sim::StorageStack stack(sim::StackConfig{});
  readahead::ReadaheadTuner tuner(
      stack, [](const readahead::FeatureVector&) { return 1; },
      readahead::TunerConfig{});

  // The same number of records every window, 7 inodes: once the first
  // window has sized the window buffer, draining never needs more room.
  constexpr int kTicksPerWindow = 100;
  constexpr int kRecordsPerTick = 64;
  constexpr int kWindows = 4;
  const std::uint64_t tick_ns = sim::kNsPerSec / kTicksPerWindow;
  std::uint64_t now = stack.clock().now_ns();
  std::uint64_t pgoff = 0;
  std::uint64_t drain_ticks = 0;
  std::uint64_t drain_allocations = 0;
  for (int w = 0; w < kWindows; ++w) {
    for (int t = 0; t < kTicksPerWindow; ++t) {
      for (int r = 0; r < kRecordsPerTick; ++r) {
        stack.tracepoints().emit(sim::TraceEventType::kAddToPageCache,
                                 1 + static_cast<std::uint64_t>(r % 7),
                                 pgoff++, now);
      }
      now += tick_ns;
      const std::uint64_t windows = tuner.windows();
      const std::uint64_t before = allocations();
      tuner.on_tick(now);
      const std::uint64_t after = allocations();
      if (w > 0 && tuner.windows() == windows) {
        ++drain_ticks;
        drain_allocations += after - before;
      }
    }
  }
  ASSERT_EQ(tuner.windows(), static_cast<std::uint64_t>(kWindows));
  ASSERT_EQ(tuner.timeline().back().events,
            static_cast<std::uint64_t>(kTicksPerWindow * kRecordsPerTick));
  EXPECT_GT(drain_ticks, 0u);
  EXPECT_EQ(drain_allocations, 0u)
      << "drain-only ticks must append into the retained window buffer";
}

TEST(StdAllocGuard, FeatureExtractorExtractOnWarmedExtractor) {
  std::vector<data::TraceRecord> window;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    window.push_back(data::TraceRecord{1 + (i / 16) % 7, (i * 37) % 5000, i,
                                       static_cast<std::uint8_t>(i % 5 == 0)});
  }
  readahead::FeatureExtractor extractor;
  extractor.extract(window, 128);  // warm-up sizes the inode scratch

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10; ++i) {
    const readahead::CandidateVector all = extractor.extract(window, 128);
    EXPECT_EQ(all[6], 7.0);  // distinct inodes
    extractor.extract_selected(window, 256);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "a warmed extractor must not allocate per window";
}

TEST(StdAllocGuard, FleetDrainInSteadyState) {
  fleet::FleetWorkloadConfig wc;
  runtime::Engine engine(fleet::train_fleet_model(wc, /*seed=*/42,
                                                  /*samples=*/512,
                                                  /*epochs=*/20));
  engine.set_mode(runtime::Mode::kInference);
  fleet::FleetConfig fc;
  fc.shards = 4;
  fc.max_batch = 16;
  fleet::FleetService service(engine, fc);
  math::Rng rng(42);

  constexpr std::uint64_t kTenants = 64;
  const auto submit_round = [&] {
    service.tick(kml_now_ns());  // refill the token buckets
    double f[fleet::kMaxFleetFeatures] = {};
    for (std::uint64_t t = 0; t < kTenants; ++t) {
      fleet::make_window(f, engine.num_features(),
                         fleet::true_class_of(t, engine.num_classes()),
                         wc.noise, rng);
      ASSERT_EQ(service.submit(t, f, engine.num_features()),
                fleet::SubmitResult::kQueued);
    }
  };
  // Warm-up rounds admit every tenant and size the drain staging.
  for (int round = 0; round < 3; ++round) {
    submit_round();
    ASSERT_EQ(service.drain(kml_now_ns()), kTenants);
  }

  std::uint64_t drain_allocations = 0;
  for (int round = 0; round < 5; ++round) {
    submit_round();
    const std::uint64_t before = allocations();
    ASSERT_EQ(service.drain(kml_now_ns()), kTenants);
    drain_allocations += allocations() - before;
  }
  EXPECT_EQ(drain_allocations, 0u)
      << "steady-state FleetService::drain must not allocate";
}

}  // namespace
}  // namespace kml
