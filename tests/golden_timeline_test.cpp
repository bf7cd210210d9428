// Golden timelines: the exact per-window outcomes of short deterministic
// closed loops, and the exact feature rows of small collection runs.
//
// The expected values were captured from the hand-written per-application
// loops that data::Windower and ClosedLoopTuner replaced, so a drift in
// window boundaries or window contents fails here, in seconds, instead of
// only in the minutes-long bench_table2 / bench_cache comparisons.
// Predictors are feature oracles, not trained models, so every value is a
// pure function of the simulator. The oracles and digests read exact
// double bits, which hold for builds that do not contract multiply-adds
// into FMA instructions (the x86-64 default, no -mfma).
#include "eviction/model.h"
#include "eviction/tuner.h"
#include "eviction/workload.h"
#include "readahead/pipeline.h"
#include "readahead/rl_tuner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

namespace kml {
namespace {

// (events or reward, class or state, actuation) per window.
using Row = std::tuple<std::uint64_t, int, std::uint32_t>;

readahead::ExperimentConfig tiny_experiment() {
  readahead::ExperimentConfig config;
  config.num_keys = 100000;   // ~100 MiB at 1 KiB entries
  config.cache_pages = 2048;  // 8 MiB
  return config;
}

// Oracles keyed on the low digits of feature values, so the predicted
// class (and with it every later window) moves if a feature value moves:
// readahead [1] = log cumulative offset mean, [2] = log mean |Δoffset|;
// cache [1] = hit fraction, [3] = median log2 reuse distance.
int readahead_oracle(const readahead::FeatureVector& f) {
  return static_cast<int>(static_cast<std::uint64_t>((f[1] + f[2]) * 1e6) %
                          workloads::kNumTrainingClasses);
}

int cache_oracle(const eviction::CacheFeatureVector& f) {
  return static_cast<int>(static_cast<std::uint64_t>((f[1] + f[3]) * 1e6) %
                          eviction::kNumCachePhases);
}

// FNV-1a over the bit patterns of feature values and labels.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
};

std::uint64_t feature_digest(const data::Dataset& d) {
  Digest digest;
  for (int i = 0; i < d.size(); ++i) {
    for (int j = 0; j < d.num_features(); ++j) {
      digest.add_double(d.features(i)[j]);
    }
    digest.add(static_cast<std::uint64_t>(d.label(i)));
  }
  return digest.h;
}

TEST(GoldenTimeline, ReadaheadTunerOnTinyMixgraph) {
  sim::StorageStack stack(readahead::make_stack_config(tiny_experiment()));
  kv::MiniKV db(stack, readahead::make_kv_config(tiny_experiment()));
  readahead::TunerConfig config;
  config.class_ra_kb = {512, 16, 256, 32};
  readahead::ReadaheadTuner tuner(stack, readahead_oracle, config);
  workloads::WorkloadConfig wc;
  wc.type = workloads::WorkloadType::kMixGraph;
  wc.seed = 3;
  workloads::run_workload(db, wc, 8 * sim::kNsPerSec, UINT64_MAX,
                          [&tuner](std::uint64_t now) { tuner.on_tick(now); });

  std::vector<Row> got;
  for (const readahead::TimelinePoint& p : tuner.timeline()) {
    got.emplace_back(p.events, p.predicted_class, p.ra_kb);
  }
  const std::vector<Row> expected = {
      {790664, 0, 512}, {782104, 2, 256}, {791080, 3, 32}, {549587, 2, 256},
      {782490, 2, 256}, {778953, 3, 32},  {544482, 2, 256}, {778860, 2, 256}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(tuner.dropped_records(), 0u);
}

TEST(GoldenTimeline, CacheTunerOnPhaseSchedule) {
  sim::StackConfig stack_config;
  stack_config.cache_pages = 512;
  sim::StorageStack stack(stack_config);
  eviction::PhaseWorkloadConfig workload;
  workload.file_pages = 4096;
  workload.window_pages = 256;
  workload.hot_pages = 300;
  workload.shift_every_ops = 4000;
  workload.cpu_ns_per_op = 50'000;
  eviction::PhaseDriver driver(stack, workload);
  eviction::CacheTuner tuner(stack, cache_oracle,
                             eviction::CacheTunerConfig{});
  driver.run_schedule(eviction::default_phase_schedule(2, 1),
                      [&tuner](std::uint64_t now) { tuner.on_tick(now); });

  std::vector<Row> got;
  for (const eviction::CacheTimelinePoint& p : tuner.timeline()) {
    got.emplace_back(p.events, p.predicted_class,
                     static_cast<std::uint32_t>(p.policy));
  }
  const std::vector<Row> expected = {
      {19575, 0, 0},  {19583, 1, 2}, {119238, 1, 2},
      {119994, 1, 2}, {20005, 1, 2}, {19999, 1, 2}};
  EXPECT_EQ(got, expected);
}

TEST(GoldenTimeline, QLearningTunerOnTinyReadRandom) {
  sim::StorageStack stack(readahead::make_stack_config(tiny_experiment()));
  kv::MiniKV db(stack, readahead::make_kv_config(tiny_experiment()));
  readahead::RlConfig config;
  config.seed = 5;
  readahead::QLearningTuner agent(stack, config);
  workloads::WorkloadConfig wc;
  wc.type = workloads::WorkloadType::kReadRandom;
  wc.seed = 3;
  std::uint64_t ops = 0;
  workloads::run_workload(
      db, wc, 10 * sim::kNsPerSec, UINT64_MAX,
      [&](std::uint64_t now) { agent.on_tick(now, ++ops); });

  std::vector<Row> got;
  for (const readahead::RlTimelinePoint& p : agent.timeline()) {
    got.emplace_back(static_cast<std::uint64_t>(p.reward), p.state, p.ra_kb);
  }
  const std::vector<Row> expected = {
      {14791, 8, 8},    {21367, 11, 8},  {21481, 11, 16}, {22525, 8, 16},
      {22573, 8, 32},   {20633, 8, 64},  {16731, 8, 128}, {14729, 8, 256},
      {14713, 8, 512},  {16342, 8, 1024}};
  EXPECT_EQ(got, expected);
}

TEST(GoldenFeatures, CollectTrainingDataRows) {
  readahead::TraceGenConfig config;
  config.base = tiny_experiment();
  config.ra_values_kb = {32, 128};
  config.seconds_per_run = 3;
  const data::Dataset d = readahead::collect_training_data(config);
  EXPECT_EQ(d.size(), 16);
  EXPECT_EQ(feature_digest(d), 4123717250736366438ULL);
}

TEST(GoldenFeatures, CollectSequenceDataRows) {
  readahead::SequenceGenConfig config;
  config.base = tiny_experiment();
  config.ra_values_kb = {128};
  config.seconds_per_run = 3;
  config.steps_per_sequence = 4;
  config.sub_window_ms = 250;
  const readahead::SequenceDataset d = readahead::collect_sequence_data(config);
  Digest digest;
  for (int s = 0; s < d.size(); ++s) {
    const matrix::MatD& seq = d.sequences[static_cast<std::size_t>(s)];
    for (int t = 0; t < seq.rows(); ++t) {
      for (int j = 0; j < seq.cols(); ++j) digest.add_double(seq.at(t, j));
    }
    digest.add(static_cast<std::uint64_t>(d.labels[static_cast<std::size_t>(s)]));
  }
  EXPECT_EQ(d.size(), 8);
  EXPECT_EQ(digest.h, 17715430469924537542ULL);
}

TEST(GoldenFeatures, CollectCacheTrainingDataRows) {
  eviction::CacheTraceGenConfig config;
  config.stack.cache_pages = 512;
  config.workload.file_pages = 4096;
  config.workload.window_pages = 256;
  config.workload.hot_pages = 300;
  config.workload.shift_every_ops = 4000;
  config.workload.cpu_ns_per_op = 50'000;
  config.seconds_per_run = 3;
  const data::Dataset d = eviction::collect_cache_training_data(config);
  EXPECT_EQ(d.size(), 18);
  EXPECT_EQ(feature_digest(d), 10924807313506190670ULL);
}

}  // namespace
}  // namespace kml
