// fixtures.h — the trained models and the actuation table the workloads
// load at setup.
//
// Training in the run would make setup time bimodal (minutes in a fresh
// directory, milliseconds once a model is cached), so the benchmark ships
// its models as files and regenerates them only on request
// (`kml_perfbench --make-fixtures <dir>`, see fixtures/README.md).
#pragma once

#include "readahead/tuner.h"
#include "runtime/engine.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

inline constexpr const char* kReadaheadModelFile = "readahead_model.kml";
inline constexpr const char* kCacheModelFile = "cache_model.kml";
inline constexpr const char* kFleetModelFile = "fleet_model.kml";
inline constexpr const char* kNvmeTableFile = "nvme_ra_table.txt";

using RaTable =
    std::array<std::uint32_t, kml::workloads::kNumTrainingClasses>;

// Load a model fixture into an inference-mode engine. Returns nullptr (and
// says why on stderr) on a missing file, a CRC mismatch, or a model whose
// input/output widths are not `features` x `classes`.
std::unique_ptr<kml::runtime::Engine> load_model_fixture(
    const std::string& dir, const char* file, int features, int classes);

// Load the NVMe actuation table; false on a missing file, a CRC mismatch,
// or a malformed row.
bool load_ra_table(const std::string& dir, RaTable* table);

// Regenerate every fixture into `dir` with the repository's own trainers.
// Takes minutes; returns false on any failure.
bool make_fixtures(const std::string& dir);

}  // namespace perfbench
