// kml_perfbench — runs one benchmark workload and prints its metrics.
//
//   kml_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--fixtures DIR] [--scratch DIR] [--source-id ID]
//   kml_perfbench --make-fixtures DIR
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it records provenance (seed, source id,
// build type, host). perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads and every metric's definition.
#include "fixtures.h"
#include "workloads.h"

#include "portability/simd.h"
#include "portability/thread.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every untraced run prints every one of these (BENCHMARK.json
// "end_to_end"); README.md defines each per workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"}, {"p50_us", "us"},
    {"p99_us", "us"},        {"quality", "ratio"}, {"peak_rss_mb", "MB"},
};

// Every traced run prints every one of these (BENCHMARK.json "per_layer").
// A layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"workloads.op_share", "ratio"},
    {"workloads.op_us", "us"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.prefetch_useful_ratio", "ratio"},
    {"sim.device_reads_per_op", "1/op"},
    {"sim.pages_read_per_op", "1/op"},
    {"sim.policy_switches", "count"},
    {"sim.evictions_per_op", "1/op"},
    {"sim.trace_events_per_op", "1/op"},
    {"kv.bloom_fp_per_get", "1/get"},
    {"kv.flushes", "count"},
    {"kv.compactions", "count"},
    {"data.records_per_op", "1/op"},
    {"data.records_dropped_ratio", "ratio"},
    {"data.drain_share", "ratio"},
    {"readahead.tuner_share", "ratio"},
    {"readahead.ms_per_sim_s", "ms/sim_s"},
    {"readahead.window_close_us", "us"},
    {"readahead.ra_changes", "count"},
    {"eviction.tuner_share", "ratio"},
    {"eviction.ms_per_sim_s", "ms/sim_s"},
    {"eviction.window_close_us", "us"},
    {"runtime.infer_us", "us"},
    {"runtime.infer_ns_per_row", "ns"},
    {"runtime.health_share", "ratio"},
    {"fleet.submit_share", "ratio"},
    {"fleet.drain_share", "ratio"},
    {"fleet.tick_share", "ratio"},
    {"fleet.submit_ns", "ns"},
    {"fleet.drain_us", "us"},
    {"fleet.rows_per_batch", "1/batch"},
    {"fleet.refused_ratio", "ratio"},
    {"kv.put_us", "us"},
    {"kv.commit_share", "ratio"},
    {"kv.flush_share", "ratio"},
    {"kv.compaction_share", "ratio"},
    {"kv.bytes_written_per_put", "B/put"},
    {"kv.restart_ms", "ms"},
    {"kv.wal_records_replayed", "count"},
    {"kv.runs_loaded", "count"},
    {"kv.disk_bytes_per_key", "B/key"},
    {"kv.read_ops_per_s", "1/s"},
    {"kv.read_ns", "ns"},
    {"portability.epoch_retired", "count"},
    {"portability.epoch_stalls", "count"},
    {"trace.residue_share", "ratio"},
    {"trace.overhead", "ratio"},
};

template <std::size_t N>
const MetricDef* find(const MetricDef (&table)[N], const std::string& name) {
  for (const MetricDef& def : table) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

// Keep the recorded metrics of the run's table, in table order. A recorded
// metric in neither table, or in another unit than its table's, is a
// benchmark bug; so is a missing end-to-end metric. A missing per-layer
// metric reads 0.
template <std::size_t N>
bool select_metrics(Result& result, const MetricDef (&table)[N],
                    bool fill_zero) {
  for (const Result::Metric& m : result.metrics()) {
    const MetricDef* def = find(kEndToEnd, m.name);
    if (def == nullptr) def = find(kPerLayer, m.name);
    if (def == nullptr || m.unit != def->unit) {
      std::fprintf(stderr, "perfbench: %s (%s) is not a declared metric\n",
                   m.name.c_str(), m.unit.c_str());
      return false;
    }
  }
  std::vector<Result::Metric> out;
  for (const MetricDef& def : table) {
    const Result::Metric* found = nullptr;
    for (const Result::Metric& m : result.metrics()) {
      if (m.name == def.name) found = &m;
    }
    if (found == nullptr && !fill_zero) {
      std::fprintf(stderr, "perfbench: workload did not record %s\n",
                   def.name);
      return false;
    }
    out.push_back({def.name, found != nullptr ? found->value : 0.0,
                   def.unit});
  }
  result.metrics() = std::move(out);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: kml_perfbench --workload "
               "ra_mixgraph|cache_phases|fleet_zipf|kv_durable --seed N "
               "--seconds S --trace 0|1 [--tiny] [--fixtures DIR] "
               "[--scratch DIR] [--source-id ID]\n"
               "       kml_perfbench --make-fixtures DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--tiny") == 0) {
      options.tiny = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(arg, "--fixtures") == 0) {
      options.fixtures = value;
    } else if (std::strcmp(arg, "--scratch") == 0) {
      options.scratch = value;
    } else if (std::strcmp(arg, "--source-id") == 0) {
      source_id = value;
    } else if (std::strcmp(arg, "--make-fixtures") == 0) {
      return make_fixtures(value) ? 0 : 1;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) return usage();

  void (*run)(const Options&, Result&) = nullptr;
  if (options.workload == "ra_mixgraph") run = run_ra_mixgraph;
  if (options.workload == "cache_phases") run = run_cache_phases;
  if (options.workload == "fleet_zipf") run = run_fleet_zipf;
  if (options.workload == "kv_durable") run = run_kv_durable;
  if (run == nullptr) return usage();

  Result result;
  run(options, result);
  if (result.metrics().empty()) {
    std::fprintf(stderr, "perfbench: %s stopped before measuring\n",
                 options.workload.c_str());
    return 1;
  }
  const bool complete =
      options.trace ? select_metrics(result, kPerLayer, /*fill_zero=*/true)
                    : select_metrics(result, kEndToEnd, /*fill_zero=*/false);
  if (!complete) return 1;

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"source_id\": \"%s\", "
      "\"build_type\": \"%s\", \"cpu_model\": \"%s\", \"nproc\": %u, "
      "\"simd\": \"%s\"}}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, source_id.c_str(), PERFBENCH_BUILD_TYPE,
      cpu_model().c_str(), kml::kml_num_cpus(),
      kml::kml_simd_level_name(kml::kml_simd_level()));
  std::printf("%s\n", result.json().c_str());
  return 0;
}
