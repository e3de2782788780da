// Energy-exactness differential wall. The per-record energy report is a
// pure function of `EventCounters` / `SynchronizerStats`, which every host
// fast path (the region executor, the batch engine, sharded spools,
// recorded replays) keeps bit-exact — so the serialized energy columns
// must be byte-identical no matter which execution mode produced the
// record. This suite pins that for every builtin workload,
// and pins the design-space search against its committed golden frontiers
// (tests/golden/frontier_*.csv).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/batch.h"
#include "scenario/design_search.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/shard.h"
#include "util/wire.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/energy_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A bounded spec for `name` on its natural design (synchronized up to the
/// 8-core ceiling, crossbar-only above), with an energy report requested
/// at a mid-grid operating clock.
RunSpec spec_for(const std::string& name, unsigned samples) {
  RunSpec spec;
  spec.workload = name;
  spec.params.samples = samples;
  spec.max_cycles = 3'000'000;
  const auto workload = Registry::builtins().make(name, spec.params);
  spec.design = workload->num_cores() <= 8 ? DesignVariant::synchronized()
                                           : DesignVariant::xbar_only();
  spec.energy = EnergyRequest{EnergyRequest::Params::kAuto, 25.0, 0.0};
  return spec;
}

std::vector<std::string> builtin_names() {
  return Registry::builtins().names();
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (auto& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- per-builtin execution-mode wall ----------------------------------------

class EnergyExactness : public ::testing::TestWithParam<std::string> {};

TEST_P(EnergyExactness, ColumnsBitIdenticalAcrossEveryExecutionMode) {
  const RunSpec spec = spec_for(GetParam(), 32);
  const Engine scalar(Registry::builtins());
  const RunRecord reference = scalar.run_one(spec);
  ASSERT_TRUE(reference.ok()) << reference.verify_error;
  ASSERT_TRUE(reference.energy_report.feasible);
  ASSERT_GT(reference.energy_report.breakdown.total_mw(), 0.0);
  ASSERT_GT(reference.energy_report.energy_per_op_pj, 0.0);
  // Every format is part of the wall: the JSON record (which carries the
  // workload's report extras) as well as the CSV row.
  const std::string row = to_csv_row(reference);
  const std::string json = to_json(reference);
  const auto expect_same = [&](const RunRecord& record, const char* mode) {
    EXPECT_EQ(to_csv_row(record), row) << GetParam() << " (" << mode << ")";
    EXPECT_EQ(to_json(record), json) << GetParam() << " (" << mode << ")";
  };

  {  // multi-threaded engine
    EngineOptions options;
    options.jobs = 4;
    const Engine threaded(Registry::builtins(), options);
    const std::vector<RunSpec> specs(4, spec);
    for (const RunRecord& record : threaded.run(specs)) {
      expect_same(record, "jobs 4");
    }
  }
  {  // region executor disabled: the naive cycle-by-cycle loop
    RunSpec slow = spec;
    slow.fast_forward = false;
    expect_same(scalar.run_one(slow), "fast_forward off");
  }
  {  // batched many-platform engine (falls back to scalar lanes honestly)
    const BatchEngine batch(Registry::builtins());
    const std::vector<RunSpec> specs(2, spec);
    const BatchResult result = batch.run(specs);
    ASSERT_EQ(result.records.size(), specs.size());
    for (const RunRecord& record : result.records) {
      expect_same(record, "batch engine");
    }
  }
  {  // recorded-run envelope replays the same energy report
    const RecordOutcome outcome = record_one(spec, Registry::builtins());
    expect_same(outcome.record, "record");
    const ReplayReport report =
        replay_recorded_run(outcome.recorded, Registry::builtins());
    EXPECT_TRUE(report.bit_identical) << GetParam() << ": " << report.error;
    EXPECT_EQ(report.csv_row, row) << GetParam() << " (replay)";
    expect_same(report.record, "replay");
  }
}

TEST_P(EnergyExactness, TwoWorkerShardedMergeReproducesScalarCsvBytes) {
  // A small sweep exercising every EnergyRequest field: two kAuto clocks,
  // one explicit-voltage point, and one forced-baseline calibration.
  const RunSpec base = spec_for(GetParam(), 32);
  std::vector<RunSpec> specs;
  for (const double clock_mhz : {20.0, 40.0}) {
    RunSpec spec = base;
    spec.energy->f_mhz = clock_mhz;
    specs.push_back(std::move(spec));
  }
  {
    RunSpec spec = base;
    spec.energy = EnergyRequest{EnergyRequest::Params::kSynchronized, 30.0, 1.1};
    specs.push_back(std::move(spec));
  }
  {
    RunSpec spec = base;
    spec.energy = EnergyRequest{EnergyRequest::Params::kBaseline, 0.0, 0.0};
    specs.push_back(std::move(spec));
  }

  const Engine scalar(Registry::builtins());
  const std::string reference = to_csv(scalar.run(specs));

  const std::string dir = scratch_dir(GetParam());
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  std::thread worker_a([&] {
    (void)work_spool(dir, Registry::builtins(), {.worker_id = "a"});
  });
  std::thread worker_b([&] {
    (void)work_spool(dir, Registry::builtins(), {.worker_id = "b"});
  });
  worker_a.join();
  worker_b.join();
  EXPECT_EQ(merge_spool(dir), reference) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Builtins, EnergyExactness,
                         ::testing::ValuesIn(builtin_names()), param_name);

// --- golden frontier fixtures -----------------------------------------------

TEST(DesignSearchGolden, MrpfltrFrontierReproducesCommittedBytes) {
  SearchOptions options;  // the defaults ARE the fixture configuration
  options.jobs = 4;       // never changes the frontier
  const SearchResult result = design_search(Registry::builtins(), options);
  EXPECT_EQ(frontier_csv(options.workload, result),
            read_file(std::string(ULPSYNC_GOLDEN_DIR) +
                      "/frontier_mrpfltr.csv"));

  // The knee is the paper's chosen design point: the full 8-core platform
  // with the hardware synchronizer and interleaved IM banking, run at the
  // lowest clock that still meets the real-time target.
  ASSERT_GE(result.knee_index, 0);
  const FrontierPoint& knee =
      result.frontier[static_cast<std::size_t>(result.knee_index)];
  EXPECT_EQ(knee.candidate.cores, 8u);
  EXPECT_TRUE(knee.candidate.design.features.hardware_synchronizer);
  EXPECT_EQ(knee.candidate.im_line_slots, 16u);
  EXPECT_GE(knee.mops, 16.0);

  // The search's exact work counts: a change to the pruning schedule, the
  // run grouping or the frontier shape shows here even when the frontier
  // bytes happen to survive it. Each candidate's points of one rung share
  // one run: 122 records from 36 platform runs.
  EXPECT_EQ(result.candidates, 12u);
  EXPECT_EQ(result.specs_executed, 122u);
  EXPECT_EQ(result.runs_simulated, 36u);
  ASSERT_EQ(result.rungs.size(), 3u);
  const std::uint64_t horizons[] = {8000, 32000, 500000000};
  const std::size_t points_in[] = {72, 25, 25};
  const std::size_t survivors[] = {25, 25, 21};
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(result.rungs[r].horizon, horizons[r]) << "rung " << r;
    EXPECT_EQ(result.rungs[r].points_in, points_in[r]) << "rung " << r;
    EXPECT_EQ(result.rungs[r].survivors, survivors[r]) << "rung " << r;
  }
  EXPECT_EQ(result.frontier.size(), 21u);
}

TEST(DesignSearchGolden, Sqrt32FrontierReproducesCommittedBytes) {
  SearchOptions options;
  options.workload = "sqrt32";
  options.jobs = 2;
  const SearchResult result = design_search(Registry::builtins(), options);
  EXPECT_EQ(frontier_csv(options.workload, result),
            read_file(std::string(ULPSYNC_GOLDEN_DIR) +
                      "/frontier_sqrt32.csv"));
  ASSERT_GE(result.knee_index, 0);
  const FrontierPoint& knee =
      result.frontier[static_cast<std::size_t>(result.knee_index)];
  EXPECT_EQ(knee.candidate.cores, 8u);
  EXPECT_TRUE(knee.candidate.design.features.hardware_synchronizer);
  EXPECT_EQ(result.specs_executed, 119u);
  EXPECT_EQ(result.runs_simulated, 33u);
}

TEST(DesignSearchGolden, CommittedFrontierHashesAreStable) {
  // hashes.txt pins the frontier CSVs by raw-byte FNV-1a (the
  // `snapshot_tool hash` manifest hashes .csv files as plain bytes).
  std::ifstream manifest(std::string(ULPSYNC_GOLDEN_DIR) + "/hashes.txt");
  ASSERT_TRUE(manifest.is_open()) << "missing tests/golden/hashes.txt";
  std::string hash_hex, filename;
  std::size_t checked = 0;
  while (manifest >> hash_hex >> filename) {
    const std::size_t slash = filename.find_last_of('/');
    if (slash != std::string::npos) filename = filename.substr(slash + 1);
    if (filename.rfind("frontier_", 0) != 0) continue;
    const std::string bytes =
        read_file(std::string(ULPSYNC_GOLDEN_DIR) + "/" + filename);
    EXPECT_EQ(util::fnv1a64(bytes), std::stoull(hash_hex, nullptr, 16))
        << filename;
    ++checked;
  }
  EXPECT_EQ(checked, 2u) << "expected hash rows for both frontier fixtures";
}

}  // namespace
}  // namespace ulpsync::scenario
