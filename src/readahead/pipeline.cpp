#include "readahead/pipeline.h"

#include "kv/iterator.h"
#include "portability/log.h"
#include "workloads/generator.h"

#include <cassert>
#include <memory>

namespace kml::readahead {

kv::KVConfig make_kv_config(const ExperimentConfig& config) {
  kv::KVConfig kv;
  kv.num_keys = config.num_keys;
  kv.geom.entry_bytes = config.entry_bytes;
  kv.geom.block_pages = config.block_pages;
  return kv;
}

sim::StackConfig make_stack_config(const ExperimentConfig& config) {
  sim::StackConfig stack;
  stack.device = config.device;
  stack.cache_pages = config.cache_pages;
  return stack;
}

data::Dataset collect_training_data(const TraceGenConfig& config) {
  data::Dataset dataset(config.all_candidate_features ? kNumCandidateFeatures
                                                      : kNumSelectedFeatures);

  for (int w = 0; w < workloads::kNumTrainingClasses; ++w) {
    const auto type = static_cast<workloads::WorkloadType>(w);
    for (std::uint32_t ra_kb : config.ra_values_kb) {
      sim::StorageStack stack(make_stack_config(config.base));
      kv::MiniKV db(stack, make_kv_config(config.base));
      stack.block_layer().set_readahead_kb(ra_kb);

      // Window the tracepoint stream and label each window with the
      // running workload — the supervision signal of §4.
      FeatureExtractor extractor;
      data::Windower windower(
          sim::kNsPerSec, [&](std::uint64_t index,
                              const std::vector<data::TraceRecord>& window) {
            CandidateVector all = extractor.extract(
                window, stack.block_layer().readahead_kb());
            if (config.log_features) {
              all = FeatureExtractor::log_compress(all);
            }
            if (config.skip_first_window && index == 0) return;
            if (config.all_candidate_features) {
              dataset.add(all.data(), w);
            } else {
              const FeatureVector f = FeatureExtractor::select(all);
              dataset.add(f.data(), w);
            }
          });
      const TraceHook hook(
          stack.tracepoints(), sim::kKmlCollectionTracepoints,
          [&windower](const data::TraceRecord& rec) { windower.add(rec); });

      workloads::WorkloadConfig wc;
      wc.type = type;
      wc.seed = config.base.seed + static_cast<std::uint64_t>(w) * 131 +
                ra_kb;
      workloads::run_workload(
          db, wc, config.seconds_per_run * sim::kNsPerSec, UINT64_MAX,
          [&windower](std::uint64_t now_ns) { windower.advance_to(now_ns); });
    }
  }
  return dataset;
}

data::Dataset dataset_from_trace(sim::TraceReader& reader, int label,
                                 std::uint32_t ra_kb,
                                 std::uint64_t period_ns,
                                 bool skip_first_window) {
  data::Dataset dataset(kNumSelectedFeatures);
  FeatureExtractor extractor;
  data::Windower windower(
      period_ns, [&](std::uint64_t index,
                     const std::vector<data::TraceRecord>& window) {
        const FeatureVector f = extractor.extract_selected(window, ra_kb);
        if (!(skip_first_window && index == 0) && !window.empty()) {
          dataset.add(f.data(), label);
        }
      });

  sim::TraceEvent ev;
  while (reader.next(ev)) windower.push(to_record(ev));
  if (windower.pending() > 0) windower.flush();
  return dataset;
}

SequenceDataset collect_sequence_data(const SequenceGenConfig& config) {
  SequenceDataset dataset;
  const std::uint64_t period_ns = config.sub_window_ms * 1'000'000ULL;
  const int steps = config.steps_per_sequence;

  for (int w = 0; w < workloads::kNumTrainingClasses; ++w) {
    const auto type = static_cast<workloads::WorkloadType>(w);
    for (std::uint32_t ra_kb : config.ra_values_kb) {
      sim::StorageStack stack(make_stack_config(config.base));
      kv::MiniKV db(stack, make_kv_config(config.base));
      stack.block_layer().set_readahead_kb(ra_kb);

      FeatureExtractor extractor;
      std::vector<FeatureVector> rows;
      bool first_sequence = true;
      data::Windower windower(
          period_ns, [&](std::uint64_t,
                         const std::vector<data::TraceRecord>& window) {
            rows.push_back(extractor.extract_selected(
                window, stack.block_layer().readahead_kb()));
            if (static_cast<int>(rows.size()) < steps) return;
            if (!first_sequence) {  // skip the cold-cache sequence
              matrix::MatD seq(steps, kNumSelectedFeatures);
              for (int t = 0; t < steps; ++t) {
                for (int j = 0; j < kNumSelectedFeatures; ++j) {
                  seq.at(t, j) = rows[static_cast<std::size_t>(t)]
                                     [static_cast<std::size_t>(j)];
                }
              }
              dataset.sequences.push_back(std::move(seq));
              dataset.labels.push_back(w);
            }
            first_sequence = false;
            rows.clear();
          });
      const TraceHook hook(
          stack.tracepoints(), sim::kKmlCollectionTracepoints,
          [&windower](const data::TraceRecord& rec) { windower.add(rec); });

      workloads::WorkloadConfig wc;
      wc.type = type;
      wc.seed = config.base.seed + static_cast<std::uint64_t>(w) * 37 + ra_kb;
      workloads::run_workload(
          db, wc, config.seconds_per_run * sim::kNsPerSec, UINT64_MAX,
          [&windower](std::uint64_t now_ns) { windower.advance_to(now_ns); });
    }
  }
  return dataset;
}

std::vector<std::uint32_t> paper_ra_values() {
  return {8,   16,  24,  32,  48,  64,  96,  128, 192, 256,
          320, 384, 448, 512, 576, 640, 704, 768, 896, 1024};
}

std::vector<SweepPoint> readahead_sweep(
    const ExperimentConfig& config,
    const std::vector<workloads::WorkloadType>& workload_list,
    const std::vector<std::uint32_t>& ra_values_kb, std::uint64_t seconds) {
  std::vector<SweepPoint> points;
  for (workloads::WorkloadType type : workload_list) {
    for (std::uint32_t ra_kb : ra_values_kb) {
      sim::StorageStack stack(make_stack_config(config));
      kv::MiniKV db(stack, make_kv_config(config));
      stack.block_layer().set_readahead_kb(ra_kb);

      workloads::WorkloadConfig wc;
      wc.type = type;
      wc.seed = config.seed;
      const workloads::RunResult result = workloads::run_workload(
          db, wc, seconds * sim::kNsPerSec, UINT64_MAX);
      points.push_back(SweepPoint{type, ra_kb, result.ops_per_sec});
    }
  }
  return points;
}

std::array<std::uint32_t, workloads::kNumTrainingClasses> best_ra_table(
    const std::vector<SweepPoint>& sweep) {
  std::array<std::uint32_t, workloads::kNumTrainingClasses> table{};
  std::array<double, workloads::kNumTrainingClasses> best{};
  for (const SweepPoint& p : sweep) {
    const int w = static_cast<int>(p.workload);
    if (w < 0 || w >= workloads::kNumTrainingClasses) continue;
    const auto idx = static_cast<std::size_t>(w);
    if (p.ops_per_sec > best[idx]) {
      best[idx] = p.ops_per_sec;
      table[idx] = p.ra_kb;
    }
  }
  return table;
}

namespace {

// Runs one workload and records ops completed in each virtual second.
workloads::RunResult run_with_per_second(
    kv::MiniKV& db, const workloads::WorkloadConfig& wc,
    std::uint64_t seconds, std::vector<double>& per_second,
    const workloads::TickFn& extra_tick) {
  std::uint64_t ops_in_window = 0;
  std::uint64_t next_boundary =
      db.stack().clock().now_ns() + sim::kNsPerSec;
  const auto on_tick = [&](std::uint64_t now_ns) {
    ++ops_in_window;
    while (now_ns >= next_boundary) {
      per_second.push_back(static_cast<double>(ops_in_window));
      ops_in_window = 0;
      next_boundary += sim::kNsPerSec;
    }
    if (extra_tick) extra_tick(now_ns);
  };
  return workloads::run_workload(db, wc, seconds * sim::kNsPerSec,
                                 UINT64_MAX, on_tick);
}

}  // namespace

EvalOutcome evaluate_closed_loop(const ExperimentConfig& config,
                                 workloads::WorkloadType workload,
                                 const ReadaheadTuner::PredictFn& predictor,
                                 const TunerConfig& tuner_config,
                                 std::uint64_t seconds,
                                 const workloads::TickFn& kml_extra_tick) {
  EvalOutcome outcome;
  workloads::WorkloadConfig wc;
  wc.type = workload;
  wc.seed = config.seed;

  {
    // Vanilla: stock heuristic at the device default (128 KB).
    sim::StorageStack stack(make_stack_config(config));
    kv::MiniKV db(stack, make_kv_config(config));
    const workloads::RunResult r = run_with_per_second(
        db, wc, seconds, outcome.vanilla_per_second, {});
    outcome.vanilla_ops_per_sec = r.ops_per_sec;
  }
  {
    // KML: identical run with the tuner closed loop attached.
    sim::StorageStack stack(make_stack_config(config));
    kv::MiniKV db(stack, make_kv_config(config));
    ReadaheadTuner tuner(stack, predictor, tuner_config);
    const workloads::RunResult r = run_with_per_second(
        db, wc, seconds, outcome.kml_per_second,
        [&tuner, &kml_extra_tick](std::uint64_t now_ns) {
          tuner.on_tick(now_ns);
          if (kml_extra_tick) kml_extra_tick(now_ns);
        });
    outcome.kml_ops_per_sec = r.ops_per_sec;
    outcome.timeline = tuner.timeline();
    outcome.dropped_records = tuner.dropped_records();
    outcome.degraded_windows = tuner.degraded_windows();
  }
  outcome.speedup = outcome.vanilla_ops_per_sec > 0.0
                        ? outcome.kml_ops_per_sec / outcome.vanilla_ops_per_sec
                        : 0.0;
  return outcome;
}

MixedTenantResult evaluate_mixed_tenants(
    const ExperimentConfig& config,
    const ReadaheadTuner::PredictFn& predictor,
    const TunerConfig& tuner_config, TuningMode mode,
    std::uint64_t seconds) {
  sim::StorageStack stack(make_stack_config(config));
  kv::KVConfig kv_config = make_kv_config(config);
  kv_config.num_keys = config.num_keys / 2;  // two tenants share the budget
  kv::MiniKV scan_db(stack, kv_config);
  kv::MiniKV rand_db(stack, kv_config);

  std::unique_ptr<ReadaheadTuner> global_tuner;
  std::unique_ptr<PerFileTuner> file_tuner;
  if (mode == TuningMode::kGlobal) {
    global_tuner =
        std::make_unique<ReadaheadTuner>(stack, predictor, tuner_config);
  } else if (mode == TuningMode::kPerFile) {
    file_tuner =
        std::make_unique<PerFileTuner>(stack, predictor, tuner_config);
  }

  auto scan_it = scan_db.new_iterator();
  scan_it->seek_to_first();
  workloads::UniformKeys keys(rand_db.num_keys(), config.seed);

  const std::uint64_t deadline =
      stack.clock().now_ns() + seconds * sim::kNsPerSec;
  std::uint64_t scan_entries = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_ns = 0;
  std::uint64_t scan_ns = 0;
  // Interleave the tenants: one random get, then a slice of scanning of
  // comparable virtual cost.
  constexpr int kScanSlice = 64;
  while (stack.clock().now_ns() < deadline) {
    std::uint64_t mark = stack.clock().now_ns();
    rand_db.get(keys.next());
    get_ns += stack.clock().now_ns() - mark;
    ++gets;

    mark = stack.clock().now_ns();
    for (int i = 0; i < kScanSlice; ++i) {
      if (!scan_it->valid()) scan_it->seek_to_first();
      scan_it->next();
      ++scan_entries;
    }
    scan_ns += stack.clock().now_ns() - mark;

    const std::uint64_t now = stack.clock().now_ns();
    if (global_tuner != nullptr) global_tuner->on_tick(now);
    if (file_tuner != nullptr) file_tuner->on_tick(now);
  }

  MixedTenantResult result;
  result.scan_entries_per_sec =
      scan_ns == 0 ? 0.0
                   : static_cast<double>(scan_entries) * 1e9 / scan_ns;
  result.get_ops_per_sec =
      get_ns == 0 ? 0.0 : static_cast<double>(gets) * 1e9 / get_ns;
  result.combined_ops_per_sec =
      static_cast<double>(gets) / static_cast<double>(seconds);
  return result;
}

RlEvalOutcome evaluate_rl_closed_loop(const ExperimentConfig& config,
                                      workloads::WorkloadType workload,
                                      const RlConfig& rl_config,
                                      std::uint64_t seconds,
                                      std::uint64_t warmup_seconds) {
  RlEvalOutcome outcome;
  workloads::WorkloadConfig wc;
  wc.type = workload;
  wc.seed = config.seed;

  {
    sim::StorageStack stack(make_stack_config(config));
    kv::MiniKV db(stack, make_kv_config(config));
    std::vector<double> per_second;
    const workloads::RunResult r =
        run_with_per_second(db, wc, seconds, per_second, {});
    outcome.vanilla_ops_per_sec = r.ops_per_sec;
  }
  {
    sim::StorageStack stack(make_stack_config(config));
    kv::MiniKV db(stack, make_kv_config(config));
    QLearningTuner agent(stack, rl_config);
    std::uint64_t ops = 0;
    const workloads::RunResult r = workloads::run_workload(
        db, wc, seconds * sim::kNsPerSec, UINT64_MAX,
        [&](std::uint64_t now_ns) { agent.on_tick(now_ns, ++ops); });
    outcome.rl_ops_per_sec_all = r.ops_per_sec;
    outcome.timeline = agent.timeline();

    // Post-warmup throughput from the timeline's per-window rewards.
    double post_ops = 0.0;
    std::uint64_t post_windows = 0;
    for (const RlTimelinePoint& p : outcome.timeline) {
      if (p.window < warmup_seconds) continue;
      post_ops += p.reward;
      ++post_windows;
    }
    outcome.rl_ops_per_sec =
        post_windows > 0
            ? post_ops / (static_cast<double>(post_windows) *
                          (static_cast<double>(rl_config.period_ns) /
                           static_cast<double>(sim::kNsPerSec)))
            : outcome.rl_ops_per_sec_all;
  }
  outcome.speedup = outcome.vanilla_ops_per_sec > 0.0
                        ? outcome.rl_ops_per_sec / outcome.vanilla_ops_per_sec
                        : 0.0;
  return outcome;
}

}  // namespace kml::readahead
