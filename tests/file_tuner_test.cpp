// Tests for src/readahead/file_tuner: per-inode demultiplexing, independent
// actuation, the min-events gate, and the mixed-tenant evaluation.
#include "readahead/file_tuner.h"
#include "readahead/pipeline.h"

#include <gtest/gtest.h>

namespace kml::readahead {
namespace {

ExperimentConfig tiny_experiment() {
  ExperimentConfig config;
  config.num_keys = 100000;
  config.cache_pages = 2048;
  return config;
}

// Predictor keyed on the pattern feature: sequential-looking streams are
// class 0, scattered ones class 1 (model-input order: [2] = log mean |Δ|).
int pattern_oracle(const FeatureVector& f) {
  return f[2] < 3.0 ? 0 : 1;
}

TEST(PerFileTunerTest, ActuatesFilesIndependently) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  sim::FileHandle& seq_file = stack.files().create(100000);
  sim::FileHandle& rand_file = stack.files().create(100000);

  TunerConfig config;
  config.class_ra_kb = {1024, 16, 512, 32};
  PerFileTuner tuner(stack, pattern_oracle, config, /*min_events=*/16);

  // Drive distinct patterns on the two files.
  math::Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    stack.cache().read(seq_file, static_cast<std::uint64_t>(i), 1);
    stack.cache().read(rand_file, rng.next_below(90000), 1);
    tuner.on_tick(stack.clock().now_ns());
  }
  tuner.on_tick(stack.clock().now_ns() + sim::kNsPerSec);

  ASSERT_EQ(tuner.windows(), 1u);
  EXPECT_EQ(stack.block_layer().file_readahead_kb(seq_file.inode), 1024u);
  EXPECT_EQ(stack.block_layer().file_readahead_kb(rand_file.inode), 16u);
  EXPECT_EQ(tuner.last_window_decisions().size(), 2u);
}

TEST(PerFileTunerTest, MinEventsGateSkipsQuietFiles) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  sim::FileHandle& busy = stack.files().create(100000);
  sim::FileHandle& quiet = stack.files().create(100000);

  TunerConfig config;
  config.class_ra_kb = {1024, 16, 512, 32};
  PerFileTuner tuner(stack, pattern_oracle, config, /*min_events=*/64);

  for (int i = 0; i < 200; ++i) {
    stack.cache().read(busy, static_cast<std::uint64_t>(i), 1);
    tuner.on_tick(stack.clock().now_ns());
  }
  stack.cache().read(quiet, 5, 1);  // far below the gate
  tuner.on_tick(stack.clock().now_ns() + sim::kNsPerSec);

  EXPECT_EQ(stack.block_layer().file_readahead_kb(quiet.inode), 128u);
  ASSERT_EQ(tuner.last_window_decisions().size(), 1u);
  EXPECT_EQ(tuner.last_window_decisions()[0].inode, busy.inode);
}

TEST(PerFileTunerTest, UnregistersHookOnDestruction) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  {
    PerFileTuner tuner(stack, pattern_oracle, TunerConfig{});
    EXPECT_EQ(stack.tracepoints().hook_count(), 1);
  }
  EXPECT_EQ(stack.tracepoints().hook_count(), 0);
}

TEST(PerFileTunerTest, SurvivesFileRemoval) {
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  sim::FileHandle& doomed = stack.files().create(100000);
  const std::uint64_t inode = doomed.inode;

  PerFileTuner tuner(stack, pattern_oracle, TunerConfig{},
                     /*min_events=*/16);
  for (int i = 0; i < 100; ++i) {
    stack.cache().read(stack.files().get(inode),
                       static_cast<std::uint64_t>(i), 1);
    tuner.on_tick(stack.clock().now_ns());
  }
  stack.files().remove(inode);  // compaction deleted the run
  tuner.on_tick(stack.clock().now_ns() + sim::kNsPerSec);  // must not crash
  EXPECT_TRUE(tuner.last_window_decisions().empty());
}

TEST(PerFileTunerTest, ForgetsDeletedFiles) {
  // Run files come and go with compaction and inode numbers are never
  // reused: state kept for a deleted inode would only ever accumulate.
  sim::StorageStack stack(make_stack_config(tiny_experiment()));
  const std::uint64_t keeper = stack.files().create(100000).inode;
  PerFileTuner tuner(stack, pattern_oracle, TunerConfig{},
                     /*min_events=*/16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t run = stack.files().create(64).inode;
    for (std::uint64_t p = 0; p < 32; ++p) {
      stack.cache().read(stack.files().get(run), p, 1);
    }
    stack.cache().read(stack.files().get(keeper), i, 1);
    stack.files().remove(run);
    stack.charge_cpu_ns(sim::kNsPerSec / 10);
    tuner.on_tick(stack.clock().now_ns());
  }
  tuner.on_tick(stack.clock().now_ns() + sim::kNsPerSec);

  ASSERT_GE(tuner.windows(), 100u);
  EXPECT_EQ(stack.files().count(), 1u);
  EXPECT_EQ(tuner.tracked_files(), stack.files().count());
}

TEST(MixedTenants, PerFileDominatesGlobalOnBothMetrics) {
  // With a pattern oracle: vanilla < {global, per-file} on gets, and
  // per-file must not sacrifice the scanner the way a random-favouring
  // global knob does.
  ExperimentConfig config = tiny_experiment();
  TunerConfig tuner_config;
  tuner_config.class_ra_kb = {1024, 16, 512, 32};

  const MixedTenantResult vanilla = evaluate_mixed_tenants(
      config, pattern_oracle, tuner_config, TuningMode::kVanilla, 5);
  const MixedTenantResult per_file = evaluate_mixed_tenants(
      config, pattern_oracle, tuner_config, TuningMode::kPerFile, 5);

  EXPECT_GT(per_file.get_ops_per_sec, vanilla.get_ops_per_sec * 1.1);
  EXPECT_GE(per_file.scan_entries_per_sec,
            vanilla.scan_entries_per_sec * 0.95);
  EXPECT_GT(per_file.combined_ops_per_sec, 0.0);
}

}  // namespace
}  // namespace kml::readahead
