// parallel_test.cpp — the determinism contract of the thread pool.
//
// The parallel kernels promise bit-identical results at ANY thread count
// (static chunking, each output element computed by exactly one worker with
// the same k-ascending loop), and the data-parallel trainer promises
// run-to-run reproducibility at a FIXED thread count (gradients are reduced
// in worker-index order; across thread counts only float-summation rounding
// differs — DESIGN.md §10). These tests pin both promises, plus the
// zero-allocation guarantee of the parallel steady-state paths.
//
// Each TEST runs in its own process (gtest_discover_tests), so the global
// thread-count knob set here cannot leak into other suites.
#include "data/sharded_buffer.h"
#include "matrix/linalg.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/sgd.h"
#include "portability/kml_lib.h"
#include "portability/threadpool.h"
#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

// The near-SIZE_MAX ShardedBuffer regression below exercises the graceful
// out-of-memory path: aligned_alloc returns nullptr and the ring degrades
// loudly. ASan's default is to abort on allocation-size-too-big instead of
// returning null; opt this binary into glibc-compatible behavior so the
// test verifies the same path under sanitizers.
extern "C" const char* __asan_default_options() {
  return "allocator_may_return_null=1";
}

namespace {

using namespace kml;

// Exact elementwise equality — the contract is bit-identity, not tolerance.
void expect_bit_identical(const matrix::MatD& a, const matrix::MatD& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) *
                               sizeof(double)))
      << what << ": results differ across thread counts";
}

// Engine nets need fitted normalizer moments: infer paths call
// transform_row, which requires import_moments (identity here).
nn::Network make_engine_net(int in, int hidden, int classes, unsigned seed) {
  math::Rng rng(seed);
  nn::Network net = nn::build_mlp_classifier(in, hidden, classes, rng);
  net.normalizer().import_moments(std::vector<double>(in, 0.0),
                                  std::vector<double>(in, 1.0));
  return net;
}

struct Shape {
  int m, k, n;
};

// Ragged shapes straddling every dispatch regime: below the parallel work
// threshold (serial inline), at the register-tile boundary, and large enough
// to fan out across 8 workers with uneven tail chunks.
const Shape kShapes[] = {{1, 1, 1},    {3, 5, 7},    {8, 8, 8},
                         {17, 9, 33},  {64, 64, 64}, {61, 67, 73},
                         {128, 33, 96}, {5, 128, 130}};

TEST(ParallelDeterminism, MatmulBitIdenticalAcrossThreadCounts) {
  for (const Shape& s : kShapes) {
    math::Rng rng(101);
    const matrix::MatD a = matrix::random_uniform(s.m, s.k, -2.0, 2.0, rng);
    const matrix::MatD b = matrix::random_uniform(s.k, s.n, -2.0, 2.0, rng);
    matrix::MatD ref(s.m, s.n);
    kml_pool_set_threads(1);
    matrix::matmul(a, b, ref);
    for (unsigned t : {2u, 8u}) {
      kml_pool_set_threads(t);
      matrix::MatD out(s.m, s.n);
      matrix::matmul(a, b, out);
      expect_bit_identical(ref, out, "matmul");
    }
  }
  kml_pool_shutdown();
}

TEST(ParallelDeterminism, MatmulBtBitIdenticalAcrossThreadCounts) {
  for (const Shape& s : kShapes) {
    math::Rng rng(103);
    // out = a * b^T: a is m x k, b is n x k.
    const matrix::MatD a = matrix::random_uniform(s.m, s.k, -2.0, 2.0, rng);
    const matrix::MatD b = matrix::random_uniform(s.n, s.k, -2.0, 2.0, rng);
    matrix::MatD ref(s.m, s.n);
    kml_pool_set_threads(1);
    matrix::matmul_bt(a, b, ref);
    for (unsigned t : {2u, 8u}) {
      kml_pool_set_threads(t);
      matrix::MatD out(s.m, s.n);
      matrix::matmul_bt(a, b, out);
      expect_bit_identical(ref, out, "matmul_bt");
    }
  }
  kml_pool_shutdown();
}

TEST(ParallelDeterminism, MatmulAtBitIdenticalAcrossThreadCounts) {
  for (const Shape& s : kShapes) {
    math::Rng rng(107);
    // out = a^T * b: a is k x m, b is k x n.
    const matrix::MatD a = matrix::random_uniform(s.k, s.m, -2.0, 2.0, rng);
    const matrix::MatD b = matrix::random_uniform(s.k, s.n, -2.0, 2.0, rng);
    matrix::MatD ref(s.m, s.n);
    kml_pool_set_threads(1);
    matrix::matmul_at(a, b, ref);
    for (unsigned t : {2u, 8u}) {
      kml_pool_set_threads(t);
      matrix::MatD out(s.m, s.n);
      matrix::matmul_at(a, b, out);
      expect_bit_identical(ref, out, "matmul_at");
    }
  }
  kml_pool_shutdown();
}

TEST(ParallelDeterminism, ElementwiseKernelsBitIdenticalAcrossThreadCounts) {
  math::Rng rng(109);
  const matrix::MatD a = matrix::random_uniform(300, 257, -3.0, 3.0, rng);
  const matrix::MatD b = matrix::random_uniform(300, 257, -3.0, 3.0, rng);
  const matrix::MatD bias = matrix::random_uniform(1, 257, -1.0, 1.0, rng);

  struct Result {
    matrix::MatD add, sub, had, axpy, sm, biased;
  };
  const auto run_all = [&](unsigned threads) {
    kml_pool_set_threads(threads);
    Result r;
    r.add.ensure_shape(a.rows(), a.cols());
    r.sub.ensure_shape(a.rows(), a.cols());
    r.had.ensure_shape(a.rows(), a.cols());
    r.sm.ensure_shape(a.rows(), a.cols());
    matrix::add(a, b, r.add);
    matrix::sub(a, b, r.sub);
    matrix::hadamard(a, b, r.had);
    r.axpy.copy_from(a);
    matrix::axpy(0.37, b, r.axpy);
    matrix::scale(r.axpy, 1.13);
    matrix::softmax_rows(a, r.sm);
    r.biased.copy_from(a);
    matrix::add_bias_row(r.biased, bias);
    return r;
  };

  const Result ref = run_all(1);
  for (unsigned t : {2u, 8u}) {
    const Result got = run_all(t);
    expect_bit_identical(ref.add, got.add, "add");
    expect_bit_identical(ref.sub, got.sub, "sub");
    expect_bit_identical(ref.had, got.had, "hadamard");
    expect_bit_identical(ref.axpy, got.axpy, "axpy+scale");
    expect_bit_identical(ref.sm, got.sm, "softmax_rows");
    expect_bit_identical(ref.biased, got.biased, "add_bias_row");
  }
  kml_pool_shutdown();
}

TEST(ParallelDeterminism, InferBatchBitIdenticalAcrossThreadCounts) {
  runtime::Engine engine(make_engine_net(64, 32, 64, 7));
  constexpr int kCount = 67;  // ragged: not a multiple of any chunk size
  engine.warm_up(kCount);

  math::Rng rng(11);
  std::vector<double> features;
  for (int i = 0; i < kCount * 64; ++i) {
    features.push_back(rng.next_double() * 8.0 - 4.0);
  }

  kml_pool_set_threads(1);
  std::vector<int> ref(kCount, -1);
  ASSERT_EQ(engine.infer_batch_scores(features.data(), 64, kCount, nullptr,
                                      ref.data()),
            kCount);
  for (unsigned t : {2u, 8u}) {
    kml_pool_set_threads(t);
    std::vector<int> got(kCount, -2);
    ASSERT_EQ(engine.infer_batch_scores(features.data(), 64, kCount, nullptr,
                                        got.data()),
              kCount);
    EXPECT_EQ(ref, got) << "batched inference diverged at " << t
                        << " threads";
  }
  kml_pool_shutdown();
}

// --- Training reproducibility ------------------------------------------------

matrix::MatD make_train_x(int rows, int cols, unsigned seed) {
  math::Rng rng(seed);
  return matrix::random_uniform(rows, cols, -1.0, 1.0, rng);
}

matrix::MatD make_train_y(int rows, int classes, unsigned seed) {
  math::Rng rng(seed);
  matrix::MatD y(rows, classes);
  for (int i = 0; i < rows; ++i) {
    y.at(i, static_cast<int>(rng.next_below(
                static_cast<std::uint32_t>(classes)))) = 1.0;
  }
  return y;
}

// Run the full Network::train loop from a fixed seed and return the final
// flattened parameters.
std::vector<double> train_and_dump(unsigned threads) {
  kml_pool_set_threads(threads);
  math::Rng net_rng(42);
  nn::Network net = nn::build_mlp_classifier(8, 16, 4, net_rng);
  const matrix::MatD x = make_train_x(96, 8, 5);
  const matrix::MatD y = make_train_y(96, 4, 6);
  nn::CrossEntropyLoss loss;
  nn::SGD opt(0.05, 0.9);
  opt.attach(net.params());
  math::Rng shuffle_rng(77);
  net.train(x, y, loss, opt, /*epochs=*/3, /*batch_size=*/32, shuffle_rng);

  std::vector<double> flat;
  for (const nn::ParamRef& p : net.params()) {
    const matrix::MatD& v = *p.value;
    flat.insert(flat.end(), v.data(), v.data() + v.size());
  }
  return flat;
}

TEST(ParallelDeterminism, TrainRunToRunReproducibleAtFixedThreadCount) {
  for (unsigned t : {1u, 4u}) {
    const std::vector<double> first = train_and_dump(t);
    const std::vector<double> second = train_and_dump(t);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                             first.size() * sizeof(double)))
        << "training not reproducible at " << t << " threads";
  }
  kml_pool_shutdown();
}

TEST(ParallelDeterminism, TrainLossAgreesAcrossThreadCountsWithinRounding) {
  // Across thread counts gradient values differ only by float-summation
  // order; three epochs of SGD must land in the same neighborhood.
  const std::vector<double> serial = train_and_dump(1);
  const std::vector<double> par = train_and_dump(4);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], par[i], 1e-6) << "param " << i;
  }
  kml_pool_shutdown();
}

// --- Zero-allocation parallel steady state -----------------------------------

TEST(ParallelZeroAlloc, SteadyStateTrainBatchAtFourThreads) {
  kml_pool_set_threads(4);
  runtime::Engine engine(make_engine_net(8, 16, 4, 9));
  engine.set_mode(runtime::Mode::kTraining);
  // 32 rows / kTrainRowsPerWorker(8) = 4 chunks -> all 4 workers engage.
  const matrix::MatD x = make_train_x(32, 8, 21);
  const matrix::MatD y = make_train_y(32, 4, 22);
  nn::CrossEntropyLoss loss;
  nn::SGD opt(0.05, 0.9);
  opt.attach(engine.network().params());
  // Warm-up: sizes every per-worker slice and spawns the pool workers.
  engine.train_batch(x, y, loss, opt);
  engine.train_batch(x, y, loss, opt);

  const std::uint64_t before = kml_mem_stats().total_allocs;
  for (int i = 0; i < 100; ++i) engine.train_batch(x, y, loss, opt);
  EXPECT_EQ(kml_mem_stats().total_allocs, before)
      << "parallel steady-state training must not allocate";
  kml_pool_shutdown();
}

TEST(ParallelZeroAlloc, SteadyStateInferBatchAtFourThreads) {
  kml_pool_set_threads(4);
  runtime::Engine engine(make_engine_net(64, 32, 64, 13));
  constexpr int kCount = 256;  // large enough to cross the parallel grain
  engine.warm_up(kCount);

  math::Rng rng(17);
  std::vector<double> features;
  for (int i = 0; i < kCount * 64; ++i) {
    features.push_back(rng.next_double());
  }
  std::vector<int> classes(kCount, -1);
  // Warm-up dispatch spawns the pool workers.
  ASSERT_EQ(engine.infer_batch_scores(features.data(), 64, kCount, nullptr,
                                      classes.data()),
            kCount);

  const std::uint64_t before = kml_mem_stats().total_allocs;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(engine.infer_batch_scores(features.data(), 64, kCount, nullptr,
                                        classes.data()),
              kCount);
  }
  EXPECT_EQ(kml_mem_stats().total_allocs, before)
      << "parallel steady-state batched inference must not allocate";
  kml_pool_shutdown();
}

// --- Pool knob & dispatch basics ---------------------------------------------

TEST(ThreadPool, KnobClampsAndReports) {
  kml_pool_set_threads(3);
  EXPECT_EQ(kml_pool_threads(), 3u);
  kml_pool_set_threads(1);
  EXPECT_EQ(kml_pool_threads(), 1u);
  kml_pool_set_threads(0);  // 0 = hardware concurrency
  EXPECT_GE(kml_pool_threads(), 1u);
  kml_pool_shutdown();
}

TEST(ThreadPool, WorkersForRespectsGrainAndThreads) {
  kml_pool_set_threads(8);
  EXPECT_EQ(kml_pool_workers_for(0, 1), 1u);
  EXPECT_EQ(kml_pool_workers_for(7, 8), 1u);    // one chunk -> serial
  EXPECT_EQ(kml_pool_workers_for(16, 8), 2u);   // two chunks
  EXPECT_EQ(kml_pool_workers_for(1000, 8), 8u); // capped by thread knob
  kml_pool_set_threads(2);
  EXPECT_EQ(kml_pool_workers_for(1000, 8), 2u);
  kml_pool_shutdown();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  kml_pool_set_threads(4);
  constexpr long kN = 10'007;  // prime: guarantees a ragged tail chunk
  std::vector<int> hits(kN, 0);
  parallel_for(kN, 16, [&](long b, long e, int) {
    for (long i = b; i < e; ++i) hits[static_cast<std::size_t>(i)] += 1;
  });
  for (long i = 0; i < kN; ++i) ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
      << "index " << i;
  kml_pool_shutdown();
}

// --- ShardedBuffer -----------------------------------------------------------

TEST(ShardedBuffer, SingleShardIsPlainFifo) {
  data::ShardedBuffer<int> buf(8, 1);
  EXPECT_EQ(buf.shard_count(), 1u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(buf.push(i));
  EXPECT_EQ(buf.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(buf.pop_many(&v, 1), 1u);
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(buf.empty());
}

TEST(ShardedBuffer, RoundRobinDrainCoversAllShards) {
  data::ShardedBuffer<int> buf(64, 4);
  EXPECT_EQ(buf.shard_count(), 4u);
  // 10 values per shard, tagged by shard.
  for (unsigned s = 0; s < 4; ++s) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(buf.push(static_cast<int>(s) * 100 + i, s));
    }
  }
  EXPECT_EQ(buf.size(), 40u);

  int out[64];
  std::size_t total = 0;
  int next_per_shard[4] = {0, 0, 0, 0};
  while (total < 40) {
    const std::size_t got = buf.pop_many(out, 7);
    ASSERT_GT(got, 0u);
    for (std::size_t i = 0; i < got; ++i) {
      const int shard = out[i] / 100;
      const int seq = out[i] % 100;
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, 4);
      // Per-shard FIFO order must be preserved by the round-robin drain.
      EXPECT_EQ(seq, next_per_shard[shard]++);
    }
    total += got;
  }
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.pop_many(out, 7), 0u);
}

TEST(ShardedBuffer, OutOfRangeShardIdIsALoudContractViolation) {
  // An unfolded shard id used to fold silently — two producers landing on
  // one SPSC ring with zero synchronization. Debug builds now assert;
  // release builds still fold (dropping data would be worse) but count
  // every violation so tool_metrics_dump and this accessor expose it.
  data::ShardedBuffer<int> buf(16, 2);
  EXPECT_TRUE(buf.push(1, 0));
  EXPECT_EQ(buf.folded_pushes(), 0u);
#ifdef NDEBUG
  EXPECT_TRUE(buf.push(2, 2));  // folds onto shard 0
  EXPECT_TRUE(buf.push(3, 5));  // folds onto shard 1
  EXPECT_EQ(buf.folded_pushes(), 2u);
  EXPECT_EQ(buf.size(), 3u);
  int out[4];
  EXPECT_EQ(buf.pop_many(out, 4), 3u);
#else
  EXPECT_DEATH(buf.push(2, 2), "pre-folded");
#endif
}

TEST(ShardedBuffer, NearMaxCapacityDoesNotWrapToTinyRings) {
  // Regression: the ceil-divide was (capacity + shards - 1) / shards, which
  // wraps for capacity within shards-1 of SIZE_MAX and silently built 64
  // one-slot rings out of a near-SIZE_MAX budget. Divide-first arithmetic
  // forwards the absurd per-shard size to CircularBuffer's allocation
  // guard, which degrades to zero-capacity drop-everything rings — loud
  // (KML_ERROR + dropped()), never quietly tiny.
  data::ShardedBuffer<int> buf(SIZE_MAX - 1, 64);
  EXPECT_EQ(buf.requested_capacity(), SIZE_MAX - 1);
  EXPECT_NE(buf.capacity(), 64u);  // the old wrapped outcome
  if (!buf.push(1, 0)) {
    EXPECT_GT(buf.dropped(), 0u);
  }
}

TEST(ShardedBuffer, RoundUpInflationIsAccounted) {
  // 65 slots over 64 shards: ceil-divide gives 2 per shard, the power-of-
  // two round-up keeps 2, so 128 slots are actually allocated — nearly
  // double the request. Both numbers must be visible so callers can size
  // budgets as shards x power-of-two and make them agree.
  data::ShardedBuffer<int> buf(65, 64);
  EXPECT_EQ(buf.requested_capacity(), 65u);
  EXPECT_EQ(buf.capacity(), 128u);
  EXPECT_EQ(buf.shard_count(), 64u);
}

TEST(ShardedBuffer, PopManyHotShardCannotStarveColdShards) {
  // One hot shard (Zipf head) with 1000 queued items, three cold shards
  // with 10 each: a batch of 40 popped round-robin must carry every cold
  // shard's items, not 40 hot ones.
  data::ShardedBuffer<int> buf(4096, 4);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(buf.push(0 + i * 4, 0));
  for (unsigned s = 1; s < 4; ++s) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(buf.push(static_cast<int>(s) + i * 4, s));
    }
  }
  int out[40];
  ASSERT_EQ(buf.pop_many(out, 40), 40u);
  int per_shard[4] = {0, 0, 0, 0};
  for (int v : out) ++per_shard[v % 4];
  // Round-robin interleave: 10 per shard while all four have items.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(per_shard[s], 8) << "shard " << s << " starved";
  }
}

TEST(ShardedBuffer, DroppedAggregatesAcrossShards) {
  // Total capacity 8 over 2 shards -> 4 slots each; every rejected push
  // increments the shard's dropped counter, so nothing goes missing.
  data::ShardedBuffer<int> buf(8, 2);
  for (int i = 0; i < 10; ++i) buf.push(i, 0);
  for (int i = 0; i < 10; ++i) buf.push(i, 1);
  EXPECT_GT(buf.dropped(), 0u);
  EXPECT_EQ(buf.size() + buf.dropped(), 20u);
}

}  // namespace
