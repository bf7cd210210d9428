#include "fixtures.h"

#include "eviction/model.h"
#include "fleet/workload.h"
#include "nn/serialize.h"
#include "portability/checksum.h"
#include "readahead/model.h"
#include "readahead/pipeline.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

using namespace kml;

namespace {

std::string join(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

// The table's data row, exactly as written to (and CRC'd in) the file.
std::string table_row(const RaTable& table) {
  std::ostringstream row;
  for (std::size_t i = 0; i < table.size(); ++i) {
    row << (i == 0 ? "" : " ") << table[i];
  }
  return row.str();
}

bool save_ra_table(const std::string& path, const RaTable& table) {
  const std::string row = table_row(table);
  std::ofstream out(path);
  out << "# NVMe actuation table: predicted class -> readahead KB, in class\n"
         "# order readseq readrandom readreverse readrandomwriterandom.\n"
      << row << "\n";
  char crc[32];
  std::snprintf(crc, sizeof(crc), "crc32 %08x",
                kml_crc32(row.data(), row.size()));
  out << crc << "\n";
  return static_cast<bool>(out);
}

}  // namespace

std::unique_ptr<runtime::Engine> load_model_fixture(const std::string& dir,
                                                    const char* file,
                                                    int features,
                                                    int classes) {
  const std::string path = join(dir, file);
  nn::Network net;
  // load_model verifies the CRC footer and bounds every dimension.
  if (!nn::load_model(net, path.c_str())) {
    std::fprintf(stderr, "perfbench: fixture %s is missing or corrupt\n",
                 path.c_str());
    return nullptr;
  }
  auto engine = std::make_unique<runtime::Engine>(std::move(net));
  engine->set_mode(runtime::Mode::kInference);
  if (engine->num_features() != features ||
      engine->num_classes() != classes) {
    std::fprintf(stderr,
                 "perfbench: fixture %s is %dx%d, expected %dx%d\n",
                 path.c_str(), engine->num_features(), engine->num_classes(),
                 features, classes);
    return nullptr;
  }
  return engine;
}

bool load_ra_table(const std::string& dir, RaTable* table) {
  const std::string path = join(dir, kNvmeTableFile);
  std::ifstream in(path);
  std::string line;
  std::string row;
  std::string crc_line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (row.empty()) {
      row = line;
    } else {
      crc_line = line;
      break;
    }
  }
  unsigned stored = 0;
  if (row.empty() || std::sscanf(crc_line.c_str(), "crc32 %x", &stored) != 1 ||
      stored != kml_crc32(row.data(), row.size())) {
    std::fprintf(stderr, "perfbench: fixture %s is missing or corrupt\n",
                 path.c_str());
    return false;
  }
  std::istringstream values(row);
  RaTable parsed{};
  for (std::uint32_t& kb : parsed) {
    if (!(values >> kb) || kb == 0 || kb > 4096) {
      std::fprintf(stderr, "perfbench: fixture %s has a malformed row\n",
                   path.c_str());
      return false;
    }
  }
  std::string extra;
  if (values >> extra) {
    std::fprintf(stderr, "perfbench: fixture %s has extra columns\n",
                 path.c_str());
    return false;
  }
  *table = parsed;
  return true;
}

bool make_fixtures(const std::string& dir) {
  // Readahead model: the bench_table2 path — traces of the four training
  // workloads on NVMe (12 s per run), the paper's network and trainer.
  std::printf("readahead: collecting traces...\n");
  const data::Dataset ra_data =
      readahead::collect_training_data(readahead::TraceGenConfig{});
  nn::Network ra_net =
      readahead::train_readahead_nn(ra_data, readahead::ModelConfig{});
  std::printf("readahead: training-set accuracy %.3f on %d windows\n",
              readahead::evaluate_nn(ra_net, ra_data), ra_data.size());
  if (!nn::save_model(ra_net, join(dir, kReadaheadModelFile).c_str())) {
    return false;
  }

  // NVMe actuation table: the readahead study condensed as in bench_table2
  // (4 training workloads x 8 readahead sizes x 4 s).
  const std::vector<workloads::WorkloadType> types = {
      workloads::WorkloadType::kReadSeq, workloads::WorkloadType::kReadRandom,
      workloads::WorkloadType::kReadReverse,
      workloads::WorkloadType::kReadRandomWriteRandom};
  const RaTable table = readahead::best_ra_table(readahead::readahead_sweep(
      readahead::ExperimentConfig{}, types,
      {8, 16, 32, 64, 128, 256, 512, 1024}, 4));
  std::printf("nvme table: %s\n", table_row(table).c_str());
  if (!save_ra_table(join(dir, kNvmeTableFile), table)) return false;

  // Eviction model: the bench_cache path (64 MiB cache, 1 GiB file, phase
  // working sets of 12,000 and 15,500 pages, 8 s per collection run).
  eviction::CacheTraceGenConfig cache_config;
  cache_config.stack.cache_pages = 16384;
  cache_config.workload.file_pages = 1u << 18;
  cache_config.workload.window_pages = 12'000;
  cache_config.workload.hot_pages = 15'500;
  cache_config.workload.cpu_ns_per_op = 4'000;
  cache_config.seconds_per_run = 8;
  std::printf("eviction: collecting traces...\n");
  const data::Dataset cache_data =
      eviction::collect_cache_training_data(cache_config);
  nn::Network cache_net =
      eviction::train_cache_nn(cache_data, eviction::CacheModelConfig{});
  std::printf("eviction: training-set accuracy %.3f on %d windows\n",
              eviction::evaluate_cache_nn(cache_net, cache_data),
              cache_data.size());
  if (!nn::save_model(cache_net, join(dir, kCacheModelFile).c_str())) {
    return false;
  }

  // Fleet model: bench_fleet's shared model, train_fleet_model(seed 42).
  nn::Network fleet_net =
      fleet::train_fleet_model(fleet::FleetWorkloadConfig{}, /*seed=*/42);
  return nn::save_model(fleet_net, join(dir, kFleetModelFile).c_str());
}

}  // namespace perfbench
