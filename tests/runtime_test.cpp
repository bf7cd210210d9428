// Tests for src/runtime: the asynchronous training thread (data delivery,
// drop accounting, shutdown drain) and the engine (mode switch, inference,
// training, persistence, instrumentation).
#include "runtime/engine.h"
#include "runtime/training_thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

namespace kml::runtime {
namespace {

struct Collector {
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> checksum{0};
};

void collect_fn(void* user, const data::TraceRecord* records,
                std::size_t count) {
  auto* c = static_cast<Collector*>(user);
  c->records.fetch_add(count);
  c->calls.fetch_add(1);
  for (std::size_t i = 0; i < count; ++i) {
    c->checksum.fetch_add(records[i].pgoff);
  }
}

TEST(TrainingThread, DeliversAllSubmittedRecords) {
  Collector collector;
  std::uint64_t sum = 0;
  {
    TrainingThread trainer(1 << 12, 64, collect_fn, &collector);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      while (!trainer.submit(data::TraceRecord{1, i, i * 10, 0})) {
        kml_thread_yield();
      }
      sum += i;
    }
  }  // destructor joins and drains
  EXPECT_EQ(collector.records.load(), 1000u);
  EXPECT_EQ(collector.checksum.load(), sum);
  EXPECT_GE(collector.calls.load(), 1000u / 64);
}

TEST(TrainingThread, CountsDropsWhenConsumerIsGone) {
  // A tiny buffer with a slow consumer (batch 1 + contention) must drop
  // rather than block the producer — the paper's explicit design choice.
  Collector collector;
  TrainingThread trainer(8, 1, collect_fn, &collector);
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    if (trainer.submit(data::TraceRecord{1, i, i, 0})) ++accepted;
  }
  EXPECT_EQ(accepted + trainer.dropped(), 100000u);
  EXPECT_GT(accepted, 0u);
}

TEST(TrainingThread, ProcessedCounterAdvances) {
  Collector collector;
  TrainingThread trainer(1 << 10, 32, collect_fn, &collector);
  for (std::uint64_t i = 0; i < 100; ++i) {
    trainer.submit(data::TraceRecord{1, i, i, 0});
  }
  // Wait for the async thread to drain.
  for (int spin = 0; spin < 1000 && trainer.processed() < 100; ++spin) {
    kml_sleep_ms(1);
  }
  EXPECT_EQ(trainer.processed(), 100u);
}

nn::Network make_tiny_net(std::uint64_t seed = 5) {
  math::Rng rng(seed);
  nn::Network net = nn::build_mlp_classifier(2, 4, 2, rng);
  net.normalizer().import_moments({0.0, 0.0}, {1.0, 1.0});
  return net;
}

// Single-row classification through the engine's one inference entry.
int classify(Engine& engine, const double* features, int n) {
  int cls = -1;
  engine.infer_batch_scores(features, n, 1, nullptr, &cls);
  return cls;
}

TEST(Engine, ModeSwitch) {
  Engine engine(make_tiny_net());
  EXPECT_EQ(engine.mode(), Mode::kInference);
  engine.set_mode(Mode::kTraining);
  EXPECT_EQ(engine.mode(), Mode::kTraining);
}

TEST(Engine, InferenceCountsAndTimes) {
  Engine engine(make_tiny_net());
  const double f[2] = {0.5, -0.5};
  const int cls = classify(engine, f, 2);
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 2);
  EXPECT_EQ(engine.stats().inferences, 1u);
  EXPECT_GT(engine.stats().inference_ns_total, 0u);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().inferences, 0u);
}

TEST(Engine, InferenceAppliesNormalizer) {
  // With moments mean=100, std=1 a raw feature of 100 is z=0; verify via
  // determinism: two engines with different moments disagree on the same
  // raw input only through normalization.
  nn::Network net_a = make_tiny_net(7);
  net_a.normalizer().import_moments({0.0, 0.0}, {1.0, 1.0});
  nn::Network net_b = make_tiny_net(7);  // identical weights (same seed)
  net_b.normalizer().import_moments({1000.0, 1000.0}, {1.0, 1.0});

  Engine a(std::move(net_a));
  Engine b(std::move(net_b));
  // Raw input near 1000: engine B sees z ~ 0, engine A sees z ~ 1000 (deep
  // saturation) — outputs must be computed from different activations.
  const double f[2] = {1000.0, -1000.0};
  classify(a, f, 2);
  classify(b, f, 2);
  // Verify through the underlying forward pass rather than argmax (which
  // can coincide): normalized inputs differ.
  matrix::MatD xa(1, 2);
  xa.at(0, 0) = 1000.0;
  xa.at(0, 1) = -1000.0;
  const matrix::MatD za = a.network().normalizer().transform(xa);
  const matrix::MatD zb = b.network().normalizer().transform(xa);
  EXPECT_GT(matrix::max_abs_diff(za, zb), 100.0);
}

TEST(Engine, TrainBatchReducesLossOverIterations) {
  Engine engine(make_tiny_net());
  engine.set_mode(Mode::kTraining);
  math::Rng rng(11);
  matrix::MatD x(20, 2);
  matrix::MatD y(20, 2);
  for (int i = 0; i < 20; ++i) {
    const int cls = i % 2;
    x.at(i, 0) = rng.normal(cls == 0 ? -1.0 : 1.0, 0.2);
    x.at(i, 1) = rng.normal(cls == 0 ? 1.0 : -1.0, 0.2);
    y.at(i, cls) = 1.0;
  }
  nn::CrossEntropyLoss loss;
  nn::SGD opt(0.5, 0.9);
  opt.attach(engine.network().params());
  const double first = engine.train_batch(x, y, loss, opt);
  double last = first;
  for (int i = 0; i < 100; ++i) last = engine.train_batch(x, y, loss, opt);
  EXPECT_LT(last, first);
  EXPECT_EQ(engine.stats().train_iterations, 101u);
  EXPECT_GT(engine.stats().avg_train_us(), 0.0);
}

TEST(Engine, TrainsWithAdamThroughTheOptimizerInterface) {
  Engine engine(make_tiny_net(17));
  engine.set_mode(Mode::kTraining);
  math::Rng rng(19);
  matrix::MatD x(16, 2);
  matrix::MatD y(16, 2);
  for (int i = 0; i < 16; ++i) {
    const int cls = i % 2;
    x.at(i, 0) = rng.normal(cls == 0 ? -1.0 : 1.0, 0.2);
    x.at(i, 1) = rng.normal(cls == 0 ? 1.0 : -1.0, 0.2);
    y.at(i, cls) = 1.0;
  }
  nn::CrossEntropyLoss loss;
  nn::Adam opt(0.05);
  opt.attach(engine.network().params());
  const double first = engine.train_batch(x, y, loss, opt);
  double last = first;
  for (int i = 0; i < 80; ++i) last = engine.train_batch(x, y, loss, opt);
  EXPECT_LT(last, first * 0.3);
}

TEST(Engine, FromFileRoundTrip) {
  const char* path = "/tmp/kml_engine_roundtrip.kml";
  Engine original(make_tiny_net(13));
  ASSERT_TRUE(nn::save_model(original.network(), path));

  Engine loaded{nn::Network{}};
  ASSERT_TRUE(Engine::from_file(loaded, path));
  const double f[2] = {0.3, 0.7};
  EXPECT_EQ(classify(loaded, f, 2), classify(original, f, 2));
  std::remove(path);
}

TEST(Engine, FromFileMissingFails) {
  Engine e{nn::Network{}};
  EXPECT_FALSE(Engine::from_file(e, "/tmp/kml_engine_missing.kml"));
}

TEST(Engine, FromFileFailureLeavesEngineIntact) {
  // A deployed engine asked to hot-load a bad model file must keep serving
  // with its current weights and stats.
  Engine engine(make_tiny_net(29));
  const double f[2] = {0.2, -0.9};
  const int before_class = classify(engine, f, 2);
  const std::uint64_t before_inferences = engine.stats().inferences;

  EXPECT_FALSE(Engine::from_file(engine, "/tmp/kml_engine_missing.kml"));

  EXPECT_EQ(engine.stats().inferences, before_inferences);
  EXPECT_EQ(engine.network().num_layers(), make_tiny_net(29).num_layers());
  EXPECT_EQ(classify(engine, f, 2), before_class);
}

// --- Zero-allocation hot paths -----------------------------------------------
// These are the ctest guards for the allocation contract: after one warm-up
// call, steady-state inference and training must not touch the heap. Every
// matrix allocation flows through kml_malloc, so the accounting is exact.

TEST(Engine, SteadyStateInferencePerformsZeroAllocations) {
  Engine engine(make_tiny_net());
  const double f[2] = {0.5, -0.5};
  double scores[2];
  int expected = -1;
  // Warm-up allocates caches.
  ASSERT_EQ(engine.infer_batch_scores(f, 2, 1, scores, &expected), 1);

  const std::uint64_t before = kml_mem_stats().total_allocs;
  for (int i = 0; i < 1000; ++i) {
    int cls = -1;
    ASSERT_EQ(engine.infer_batch_scores(f, 2, 1, scores, &cls), 1);
    ASSERT_EQ(cls, expected);
  }
  EXPECT_EQ(kml_mem_stats().total_allocs, before)
      << "steady-state inference must not allocate";
}

TEST(Engine, WarmUpMakesFirstInferenceAllocationFree) {
  Engine engine(make_tiny_net());
  engine.warm_up(/*max_batch_rows=*/4);
  const double f[2] = {0.5, -0.5};

  const std::uint64_t before = kml_mem_stats().total_allocs;
  classify(engine, f, 2);
  double batch[4 * 2] = {0.5, -0.5, 1.0, 2.0, -1.0, 0.0, 0.25, 0.75};
  int classes[4] = {};
  engine.infer_batch_scores(batch, 2, 4, nullptr, classes);
  EXPECT_EQ(kml_mem_stats().total_allocs, before)
      << "after warm_up even the first calls must not allocate";
}

TEST(Engine, SteadyStateTrainingPerformsZeroAllocations) {
  Engine engine(make_tiny_net());
  engine.set_mode(Mode::kTraining);
  matrix::MatD x(4, 2);
  matrix::MatD y(4, 2);
  for (int i = 0; i < 4; ++i) {
    x.at(i, 0) = 0.1 * i;
    x.at(i, 1) = -0.1 * i;
    y.at(i, i % 2) = 1.0;
  }
  nn::CrossEntropyLoss loss;
  nn::SGD opt(0.1, 0.9);
  opt.attach(engine.network().params());
  engine.train_batch(x, y, loss, opt);  // warm-up allocates caches

  const std::uint64_t before = kml_mem_stats().total_allocs;
  for (int i = 0; i < 100; ++i) engine.train_batch(x, y, loss, opt);
  EXPECT_EQ(kml_mem_stats().total_allocs, before)
      << "steady-state training must not allocate";
}

TEST(Engine, InferBatchAgreesWithLoopedInfer) {
  Engine engine(make_tiny_net(23));
  math::Rng rng(47);
  constexpr int kCount = 17;  // not a multiple of any tile size
  std::vector<double> features;
  for (int i = 0; i < kCount * 2; ++i) {
    features.push_back(rng.next_double() * 4.0 - 2.0);
  }

  int batched[kCount];
  double batched_scores[kCount * 2];
  ASSERT_EQ(engine.infer_batch_scores(features.data(), 2, kCount,
                                      batched_scores, batched),
            kCount);
  for (int i = 0; i < kCount; ++i) {
    // The same entry at count 1: identical class and identical score bits.
    double scores[2];
    int cls = -1;
    ASSERT_EQ(engine.infer_batch_scores(&features[i * 2], 2, 1, scores, &cls),
              1);
    EXPECT_EQ(batched[i], cls) << i;
    EXPECT_EQ(batched_scores[i * 2], scores[0]) << i;
    EXPECT_EQ(batched_scores[i * 2 + 1], scores[1]) << i;
  }
  // Stats: the batch counted each sample as one inference.
  EXPECT_EQ(engine.stats().inferences,
            static_cast<std::uint64_t>(kCount + kCount));
}

TEST(Engine, InferBatchRejectsBadArguments) {
  Engine engine(make_tiny_net());
  const double f[2] = {0.5, -0.5};
  double scores[2] = {-1.0, -1.0};
  int cls = -1;
  EXPECT_EQ(engine.infer_batch_scores(nullptr, 2, 1, scores, &cls), 0);
  EXPECT_EQ(engine.infer_batch_scores(f, 2, 1, nullptr, nullptr), 0);
  EXPECT_EQ(engine.infer_batch_scores(f, 2, 0, scores, &cls), 0);
  EXPECT_EQ(engine.infer_batch_scores(f, 2, -3, scores, &cls), 0);
  EXPECT_EQ(engine.infer_batch_scores(f, 0, 1, scores, &cls), 0);
  const double wide[3] = {0.5, -0.5, 1.0};  // the model takes 2 features
  EXPECT_EQ(engine.infer_batch_scores(wide, 3, 1, scores, &cls), 0);
  EXPECT_EQ(cls, -1);
  EXPECT_EQ(scores[0], -1.0);
  EXPECT_EQ(engine.stats().inferences, 0u);
}

TEST(Engine, CheckpointRollbackSteadyStateDoesNotAllocate) {
  Engine engine(make_tiny_net());
  engine.checkpoint();  // warm-up sizes the checkpoint buffers
  const std::uint64_t before = kml_mem_stats().total_allocs;
  engine.checkpoint();
  EXPECT_TRUE(engine.rollback());
  EXPECT_EQ(kml_mem_stats().total_allocs, before);
}

TEST(Workspace, SlotsWarmAndAccountBytes) {
  Workspace ws;
  EXPECT_EQ(ws.bytes(), 0u);
  ws.warm(0, 4, 8);
  ws.warm(1, 2, 2);
  EXPECT_EQ(ws.bytes(), (4 * 8 + 2 * 2) * sizeof(double));
  double* ptr = ws.slot(0).data();
  ws.warm(0, 2, 8);  // shrink: same storage
  EXPECT_EQ(ws.slot(0).data(), ptr);
  EXPECT_EQ(ws.bytes(), (4 * 8 + 2 * 2) * sizeof(double));
}

// --- Shutdown-drain stress ---------------------------------------------------

TEST(TrainingThread, DrainsFullBufferAtShutdown) {
  // Fill the buffer to capacity with the consumer effectively parked (first
  // train_fn call sleeps), then destroy: the destructor's drain must deliver
  // every accepted record, with no deadlock and no loss.
  struct SlowStart {
    Collector collector;
    std::atomic<bool> first{true};
  } state;

  const auto slow_first_fn = [](void* user, const data::TraceRecord* records,
                                std::size_t count) {
    auto* s = static_cast<SlowStart*>(user);
    if (s->first.exchange(false)) kml_sleep_ms(50);  // park the consumer
    collect_fn(&s->collector, records, count);
  };

  std::uint64_t accepted = 0;
  std::uint64_t sum = 0;
  {
    TrainingThread trainer(256, 32, slow_first_fn, &state);
    // Overfill: some records drop while the consumer sleeps; all *accepted*
    // records must still arrive.
    for (std::uint64_t i = 0; i < 5000; ++i) {
      if (trainer.submit(data::TraceRecord{1, i, i, 0})) {
        ++accepted;
        sum += i;
      }
    }
  }  // destructor joins; must not deadlock with a full buffer
  EXPECT_EQ(state.collector.records.load(), accepted);
  EXPECT_EQ(state.collector.checksum.load(), sum);
}

TEST(TrainingThread, SlowConsumerShutdownAccountsEveryRecord) {
  // A train_fn that sleeps on every call: shutdown still terminates and
  // processed + dropped == submitted.
  struct Slow {
    Collector collector;
  } state;
  const auto slow_fn = [](void* user, const data::TraceRecord* records,
                          std::size_t count) {
    kml_sleep_ms(1);
    collect_fn(&static_cast<Slow*>(user)->collector, records, count);
  };

  const std::uint64_t submitted = 2000;
  std::uint64_t dropped = 0;
  {
    TrainingThread trainer(64, 16, slow_fn, &state);
    for (std::uint64_t i = 0; i < submitted; ++i) {
      if (!trainer.submit(data::TraceRecord{1, i, i, 0})) ++dropped;
    }
    // Snapshot before destruction: drops only happen on the producer side,
    // which is this thread, so the counter is final.
    dropped = trainer.dropped();
  }
  EXPECT_EQ(state.collector.records.load() + dropped, submitted);
}

TEST(TrainingThread, HeartbeatsReachAttachedMonitor) {
  HealthMonitor monitor;
  Collector collector;
  TrainingThread trainer(1 << 10, 32, collect_fn, &collector);
  trainer.attach_health(&monitor);
  for (int spin = 0; spin < 1000 && monitor.stats().heartbeats == 0; ++spin) {
    kml_sleep_ms(1);
  }
  EXPECT_GT(monitor.stats().heartbeats, 0u);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
}

TEST(TrainingThread, DropStormTripsAttachedMonitor) {
  HealthMonitor monitor;  // default: >50% drops over >=1024 records
  Collector collector;
  // Tiny buffer + sleeping consumer: almost everything drops.
  const auto sleepy_fn = [](void* user, const data::TraceRecord* records,
                            std::size_t count) {
    kml_sleep_ms(5);
    collect_fn(static_cast<Collector*>(user), records, count);
  };
  {
    TrainingThread trainer(8, 1, sleepy_fn, &collector);
    trainer.attach_health(&monitor);
    for (std::uint64_t i = 0; i < 200000; ++i) {
      trainer.submit(data::TraceRecord{1, i, i, 0});
    }
    for (int spin = 0;
         spin < 2000 && monitor.state() == HealthState::kHealthy; ++spin) {
      kml_sleep_ms(1);
    }
  }
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_GT(monitor.stats().drop_rate_trips, 0u);
}

}  // namespace
}  // namespace kml::runtime
