#include "eviction/model.h"

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sgd.h"

#include <cassert>

namespace kml::eviction {

nn::Network train_cache_nn(const data::Dataset& train,
                           const CacheModelConfig& config) {
  assert(train.size() > 0);
  math::Rng rng(config.seed);
  nn::Network net = nn::build_mlp_classifier(
      train.num_features(), config.hidden, kNumCachePhases, rng);
  net.normalizer().fit(train.to_matrix());

  const matrix::MatD x = net.normalizer().transform(train.to_matrix());
  const matrix::MatD y = train.to_one_hot(kNumCachePhases);

  nn::CrossEntropyLoss loss;
  nn::SGD opt(config.learning_rate, config.momentum);
  opt.attach(net.params());
  net.train(x, y, loss, opt, config.epochs, config.batch_size, rng);
  return net;
}

double evaluate_cache_nn(nn::Network& net, const data::Dataset& test) {
  if (test.size() == 0) return 0.0;
  const matrix::MatD x = net.normalizer().transform(test.to_matrix());
  return net.accuracy(x, test.to_labels());
}

data::Dataset collect_cache_training_data(
    const CacheTraceGenConfig& config) {
  data::Dataset dataset(kNumCacheFeatures);

  for (int phase = 0; phase < kNumCachePhases; ++phase) {
    for (const PolicyChoice& policy : config.policies) {
      sim::StackConfig stack_config = config.stack;
      stack_config.eviction_policy = policy.type;
      stack_config.eviction_params = policy.params;
      sim::StorageStack stack(stack_config);
      PhaseDriver driver(stack, config.workload);
      CacheFeatureExtractor extractor;

      // Window the per-access stream on 1 s boundaries, exactly the
      // records the online tuner would see. Idle windows are skipped.
      std::uint64_t windows_taken = 0;
      data::Windower windower(
          sim::kNsPerSec,
          [&](std::uint64_t, const std::vector<data::TraceRecord>& window) {
            if (window.empty()) return;
            const CacheFeatureVector f =
                extractor.extract(window, stack.cache().stats());
            ++windows_taken;
            if (config.skip_first_window && windows_taken == 1) return;
            dataset.add(f.data(), phase);
          },
          stack.clock().now_ns());
      const readahead::TraceHook hook(
          stack.tracepoints(), sim::kCacheStudyTracepoints,
          [&windower](const data::TraceRecord& rec) { windower.add(rec); });

      driver.run_phase(
          static_cast<CachePhase>(phase),
          config.seconds_per_run * sim::kNsPerSec,
          [&windower](std::uint64_t now_ns) { windower.advance_to(now_ns); });
    }
  }
  return dataset;
}

}  // namespace kml::eviction
