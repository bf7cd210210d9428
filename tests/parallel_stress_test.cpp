// parallel_stress_test.cpp — concurrency stress, written to run TSan-clean.
//
// Build the thread-sanitizer flavor with
//   cmake -B build-tsan -S . -DKML_SANITIZE=thread && cmake --build build-tsan
// and run this binary (or the whole suite) from it. The tests also run —
// and assert real invariants — in the plain build, so they double as
// ordinary regression coverage. All cross-thread traffic in the hot paths
// flows through the portability atomics (std::atomic underneath), which
// TSan models precisely; a data race anywhere in the pool, the sharded
// ring, or the engine read paths is a test failure under the sanitizer.
//
// Threads are created ONLY through the portability seam (kml_thread_create),
// same as the production training thread — the repo_hygiene check enforces
// this repo-wide.
#include "data/sharded_buffer.h"
#include "matrix/linalg.h"
#include "nn/network.h"
#include "portability/kml_lib.h"
#include "portability/thread.h"
#include "portability/threadpool.h"
#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace {

using namespace kml;

// Inference paths normalize their input, so the net needs fitted moments
// (identity transform keeps expectations simple).
nn::Network make_engine_net(int in, int hidden, int classes, unsigned seed) {
  math::Rng rng(seed);
  nn::Network net = nn::build_mlp_classifier(in, hidden, classes, rng);
  net.normalizer().import_moments(std::vector<double>(in, 0.0),
                                  std::vector<double>(in, 1.0));
  return net;
}

// --- thread-pool hammer ------------------------------------------------------

TEST(ParallelStress, PoolHammerManyDispatches) {
  kml_pool_set_threads(4);
  constexpr long kN = 4096;
  std::vector<std::int64_t> out(kN);
  for (int round = 0; round < 200; ++round) {
    parallel_for(kN, 8, [&](long b, long e, int) {
      for (long i = b; i < e; ++i) {
        out[static_cast<std::size_t>(i)] = i + round;
      }
    });
    // Spot-check a few slots each round, full check on the last.
    ASSERT_EQ(out[0], static_cast<std::int64_t>(round));
    ASSERT_EQ(out[kN - 1], kN - 1 + round);
  }
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i + 199);
  }
  kml_pool_shutdown();
}

TEST(ParallelStress, PoolSurvivesThreadCountChanges) {
  constexpr long kN = 1000;
  std::vector<int> hits(kN);
  for (unsigned t : {1u, 4u, 2u, 8u, 1u, 3u}) {
    kml_pool_set_threads(t);
    for (int round = 0; round < 20; ++round) {
      std::fill(hits.begin(), hits.end(), 0);
      parallel_for(kN, 4, [&](long b, long e, int) {
        for (long i = b; i < e; ++i) hits[static_cast<std::size_t>(i)] += 1;
      });
      for (long i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "threads=" << t;
      }
    }
  }
  kml_pool_shutdown();
}

// Concurrent submitters: only one wins the pool; the others must run their
// loops serially inline, still correctly. Each submitter fills its own
// private output so the only shared state is the pool itself.
struct SubmitterArg {
  std::vector<std::int64_t>* out;
  int rounds;
};

void submitter_main(void* arg) {
  auto* a = static_cast<SubmitterArg*>(arg);
  const long n = static_cast<long>(a->out->size());
  for (int r = 0; r < a->rounds; ++r) {
    parallel_for(n, 4, [&](long b, long e, int) {
      for (long i = b; i < e; ++i) {
        (*a->out)[static_cast<std::size_t>(i)] = 3 * i + r;
      }
    });
  }
}

TEST(ParallelStress, ConcurrentSubmittersStayCorrect) {
  kml_pool_set_threads(4);
  constexpr int kSubmitters = 3;
  constexpr long kN = 512;
  constexpr int kRounds = 50;
  std::vector<std::int64_t> outs[kSubmitters];
  SubmitterArg args[kSubmitters];
  KmlThread* threads[kSubmitters];
  for (int s = 0; s < kSubmitters; ++s) {
    outs[s].assign(kN, -1);
    args[s] = SubmitterArg{&outs[s], kRounds};
    threads[s] = kml_thread_create(&submitter_main, &args[s], "submitter");
    ASSERT_NE(threads[s], nullptr);
  }
  // The main thread submits too, for a fourth contender.
  std::vector<std::int64_t> main_out(kN, -1);
  SubmitterArg main_arg{&main_out, kRounds};
  submitter_main(&main_arg);
  for (KmlThread* t : threads) kml_thread_join(t);

  for (int s = 0; s < kSubmitters; ++s) {
    for (long i = 0; i < kN; ++i) {
      ASSERT_EQ(outs[s][static_cast<std::size_t>(i)], 3 * i + (kRounds - 1))
          << "submitter " << s;
    }
  }
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(main_out[static_cast<std::size_t>(i)], 3 * i + (kRounds - 1));
  }
  kml_pool_shutdown();
}

// --- sharded ring: one producer thread per shard, one consumer ---------------

struct ProducerArg {
  data::ShardedBuffer<std::int64_t>* buf;
  unsigned shard;
  std::int64_t count;
};

void producer_main(void* arg) {
  auto* a = static_cast<ProducerArg*>(arg);
  for (std::int64_t i = 0; i < a->count;) {
    // Tag each record with its shard so the consumer can check per-shard
    // FIFO order. Retry on full: the stress wants total counts to balance.
    if (a->buf->push(a->shard * 1'000'000 + i, a->shard)) {
      ++i;
    } else {
      kml_thread_yield();
    }
  }
}

TEST(ParallelStress, ShardedBufferMultiProducerSingleConsumer) {
  constexpr unsigned kShards = 4;
  constexpr std::int64_t kPerProducer = 20'000;
  data::ShardedBuffer<std::int64_t> buf(1 << 10, kShards);
  ASSERT_EQ(buf.shard_count(), kShards);

  ProducerArg args[kShards];
  KmlThread* threads[kShards];
  for (unsigned s = 0; s < kShards; ++s) {
    args[s] = ProducerArg{&buf, s, kPerProducer};
    threads[s] = kml_thread_create(&producer_main, &args[s], "producer");
    ASSERT_NE(threads[s], nullptr);
  }

  std::int64_t next_seq[kShards] = {};
  std::int64_t total = 0;
  std::int64_t batch[256];
  while (total < static_cast<std::int64_t>(kShards) * kPerProducer) {
    const std::size_t got = buf.pop_many(batch, 256);
    if (got == 0) {
      kml_thread_yield();
      continue;
    }
    for (std::size_t i = 0; i < got; ++i) {
      const std::int64_t shard = batch[i] / 1'000'000;
      const std::int64_t seq = batch[i] % 1'000'000;
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, static_cast<std::int64_t>(kShards));
      ASSERT_EQ(seq, next_seq[shard]++) << "shard " << shard;
    }
    total += static_cast<std::int64_t>(got);
  }
  for (KmlThread* t : threads) kml_thread_join(t);

  EXPECT_EQ(buf.pop_many(batch, 256), 0u);
  // Note: dropped() may be nonzero — each rejected push counts as a drop
  // even though these producers retried; the sequence checks above prove
  // every record still arrived exactly once, in per-shard order.
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_EQ(next_seq[s], kPerProducer) << "shard " << s;
  }
}

// --- engine: inference concurrent with checkpointing -------------------------

// Single-row classification through the engine's one inference entry.
int classify(runtime::Engine& engine, const double* features, int n) {
  int cls = -1;
  engine.infer_batch_scores(features, n, 1, nullptr, &cls);
  return cls;
}

struct InferArg {
  runtime::Engine* engine;
  const double* features;
  int n;
  int iters;
  int expected;
  bool ok;
};

void infer_main(void* arg) {
  auto* a = static_cast<InferArg*>(arg);
  a->ok = true;
  for (int i = 0; i < a->iters; ++i) {
    if (classify(*a->engine, a->features, a->n) != a->expected) {
      a->ok = false;
      return;
    }
  }
}

TEST(ParallelStress, InferConcurrentWithCheckpointThenRollback) {
  kml_pool_set_threads(1);  // isolate engine concurrency from pool dispatch
  runtime::Engine engine(make_engine_net(8, 16, 4, 31));
  engine.warm_up(4);
  const double features[8] = {0.5, -0.25, 1.0, 0.75, -1.0, 0.1, 0.0, 2.0};
  const int expected = classify(engine, features, 8);

  // checkpoint() only READS the live weights (it deep-copies them into the
  // engine-private shadow), so it may overlap inference. rollback() WRITES
  // the live weights and therefore runs only after the inference thread is
  // joined — the same single-writer discipline the training loop follows
  // (trainer quiesces inference consumers before restoring weights).
  InferArg infer{&engine, features, 8, 20'000, expected, false};
  KmlThread* t = kml_thread_create(&infer_main, &infer, "infer");
  ASSERT_NE(t, nullptr);
  for (int i = 0; i < 2'000; ++i) engine.checkpoint();
  kml_thread_join(t);
  EXPECT_TRUE(infer.ok) << "inference diverged while checkpointing";

  EXPECT_TRUE(engine.rollback());
  EXPECT_EQ(classify(engine, features, 8), expected);
  kml_pool_shutdown();
}

// Pool dispatch concurrent with a separate engine's batched inference: the
// pool is a process-wide singleton, so a training thread's parallel kernels
// and a tuner thread's (serial) inference must coexist.
struct BatchInferArg {
  runtime::Engine* engine;
  const std::vector<double>* features;
  int n;
  int count;
  std::vector<int>* ref;
  int iters;
  bool ok;
};

void batch_infer_main(void* arg) {
  auto* a = static_cast<BatchInferArg*>(arg);
  a->ok = true;
  std::vector<int> got(static_cast<std::size_t>(a->count), -1);
  for (int i = 0; i < a->iters; ++i) {
    if (a->engine->infer_batch_scores(a->features->data(), a->n, a->count,
                                      nullptr, got.data()) != a->count ||
        got != *a->ref) {
      a->ok = false;
      return;
    }
  }
}

TEST(ParallelStress, PoolKernelsConcurrentWithForeignInference) {
  kml_pool_set_threads(4);
  // Engine A runs batched inference on its own thread; engine B (main
  // thread) hammers parallel matmuls through the shared pool. A's batches
  // are small enough to stay on the serial inline path, so the two never
  // contend for pool slots — only for the submit lock, which must be safe.
  runtime::Engine a(make_engine_net(8, 16, 4, 37));
  a.warm_up(16);
  std::vector<double> features;
  math::Rng frng(41);
  for (int i = 0; i < 16 * 8; ++i) features.push_back(frng.next_double());
  std::vector<int> ref(16, -1);
  ASSERT_EQ(a.infer_batch_scores(features.data(), 8, 16, nullptr, ref.data()),
            16);

  BatchInferArg arg{&a, &features, 8, 16, &ref, 2'000, false};
  KmlThread* t = kml_thread_create(&batch_infer_main, &arg, "batch-infer");
  ASSERT_NE(t, nullptr);

  math::Rng mrng(43);
  const matrix::MatD ma = matrix::random_uniform(64, 64, -1.0, 1.0, mrng);
  const matrix::MatD mb = matrix::random_uniform(64, 64, -1.0, 1.0, mrng);
  matrix::MatD ref_out(64, 64);
  matrix::matmul_naive(ma, mb, ref_out);
  matrix::MatD out(64, 64);
  for (int i = 0; i < 200; ++i) {
    matrix::matmul(ma, mb, out);
    ASSERT_EQ(0, std::memcmp(ref_out.data(), out.data(),
                             static_cast<std::size_t>(out.size()) *
                                 sizeof(double)));
  }
  kml_thread_join(t);
  EXPECT_TRUE(arg.ok) << "foreign inference diverged during pool traffic";
  kml_pool_shutdown();
}

}  // namespace
