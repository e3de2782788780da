// The distributed-sweep subsystem: shard-bundle and manifest round-trips,
// corrupt-spool rejection, concurrent claim races, byte-identical merges,
// budget fan-outs run once per group (also across a mid-group resume), and
// checkpoint-ring pruning / crash-resume equivalence for both
// default-drive and streaming workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/shard_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<RunSpec> small_sweep_specs() {
  std::vector<RunSpec> specs;
  for (const char* workload : {"mrpfltr", "sqrt32"}) {
    for (const bool synced : {false, true}) {
      RunSpec spec;
      spec.workload = workload;
      spec.params.samples = 32;
      spec.design = synced ? DesignVariant::synchronized()
                           : DesignVariant::baseline();
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// A budget fan-out: `horizons` budgets of one spec, which share one run.
std::vector<RunSpec> grouped_specs(unsigned horizons) {
  // Calibrate off one full run so every horizon but the last lands inside
  // the run.
  RunSpec probe;
  probe.workload = "mrpfltr";
  probe.params.samples = 32;
  const Engine engine(Registry::builtins());
  const RunRecord record = engine.run_one(probe);
  EXPECT_TRUE(record.ok()) << record.verify_error;
  const std::uint64_t total = record.cycles();
  std::vector<RunSpec> specs;
  for (unsigned i = 0; i < horizons; ++i) {
    RunSpec spec = probe;
    spec.max_cycles = total * (i + 1) / horizons + 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// `Engine::run`'s CSV of the specs, checked equal to each spec's own run.
std::string single_process_csv(const std::vector<RunSpec>& specs) {
  const Engine engine(Registry::builtins());
  std::vector<RunRecord> alone;
  for (const RunSpec& spec : specs) alone.push_back(engine.run_one(spec));
  const std::string csv = to_csv(engine.run(specs));
  EXPECT_EQ(csv, to_csv(alone));
  return csv;
}

// --- bundle / manifest round-trip -------------------------------------------

TEST(Spool, PlanRoundTripsSpecsExactly) {
  std::vector<RunSpec> specs = small_sweep_specs();
  // Exercise every optional field at least once.
  specs[0].arbitration = sim::ArbitrationPolicy::kRoundRobin;
  specs[0].im_line_slots = 2;
  specs[1].fast_forward = false;
  specs[2].max_cycles = 12345;
  specs[3].params.per_core_threshold_delta = {1, -2, 3, -4, 5, -6, 7, -8};
  specs[3].params.generator.noise_lsb = 17.25;

  const std::string dir = scratch_dir("roundtrip");
  const PlanResult plan =
      plan_spool(dir, specs, Registry::builtins(), {.shards = 3});
  EXPECT_EQ(plan.specs, specs.size());
  EXPECT_EQ(plan.fingerprint, spec_fingerprint(specs));

  std::vector<RunSpec> loaded(specs.size());
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/queue")) {
    const ShardBundle bundle = parse_bundle_bytes(
        util::read_file_bytes(entry.path().string()), "bundle");
    EXPECT_EQ(bundle.fingerprint, plan.fingerprint);
    for (std::size_t k = 0; k < bundle.specs.size(); ++k) {
      ASSERT_LT(bundle.indices[k], loaded.size());
      loaded[bundle.indices[k]] = bundle.specs[k];
      ++seen;
    }
  }
  ASSERT_EQ(seen, specs.size());
  // The fingerprint covers every serialized field, so equality proves the
  // round trip without a field-by-field RunSpec comparison...
  EXPECT_EQ(spec_fingerprint(loaded), plan.fingerprint);
  // ...but spot-check the optionals anyway.
  EXPECT_EQ(loaded[0].arbitration, sim::ArbitrationPolicy::kRoundRobin);
  EXPECT_EQ(loaded[0].im_line_slots, 2u);
  EXPECT_EQ(loaded[1].fast_forward, false);
  EXPECT_EQ(loaded[2].max_cycles, 12345u);
  EXPECT_EQ(loaded[3].params.per_core_threshold_delta[7], -8);
  EXPECT_EQ(loaded[3].params.generator.noise_lsb, 17.25);
}

TEST(Spool, PlanIsDeterministic) {
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string a = scratch_dir("det_a");
  const std::string b = scratch_dir("det_b");
  (void)plan_spool(a, specs, Registry::builtins(), {.shards = 2});
  (void)plan_spool(b, specs, Registry::builtins(), {.shards = 2});
  for (const auto& entry : fs::directory_iterator(a + "/queue")) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(util::read_file_bytes(a + "/queue/" + name),
              util::read_file_bytes(b + "/queue/" + name))
        << name;
  }
}

TEST(Spool, StatusTracksLifecycle) {
  const std::string dir = scratch_dir("status");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(),
                   {.shards = 2});
  SpoolStatus status = FsTransport(dir).status().spool;
  EXPECT_EQ(status.specs, 4u);
  ASSERT_EQ(status.shards.size(), 2u);
  for (const ShardState& shard : status.shards) {
    EXPECT_EQ(shard.state, "queued");
    EXPECT_FALSE(shard.part_final);
  }
  EXPECT_FALSE(status.complete());

  (void)work_spool(dir, Registry::builtins());
  status = FsTransport(dir).status().spool;
  for (const ShardState& shard : status.shards) {
    EXPECT_EQ(shard.state, "done");
    EXPECT_TRUE(shard.part_final);
  }
  EXPECT_TRUE(status.complete());
}

// --- corruption rejection ----------------------------------------------------

TEST(Spool, TruncatedBundleRejected) {
  const std::string dir = scratch_dir("truncate");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(),
                   {.shards = 1});
  const std::string bundle = dir + "/queue/shard-0000.bundle";
  const auto bytes = util::read_file_bytes(bundle);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(bundle, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(
        (void)parse_bundle_bytes(util::read_file_bytes(bundle), bundle),
        std::invalid_argument)
        << keep;
  }
}

TEST(Spool, BitFlippedBundleRejected) {
  const std::string dir = scratch_dir("bitflip");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(),
                   {.shards = 1});
  const std::string path = dir + "/queue/shard-0000.bundle";
  auto bytes = util::read_file_bytes(path);
  for (const std::size_t at :
       {std::size_t{3}, bytes.size() / 3, bytes.size() - 9}) {
    auto corrupt = bytes;
    corrupt[at] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(corrupt.data()),
              static_cast<std::streamsize>(corrupt.size()));
    out.close();
    EXPECT_THROW((void)parse_bundle_bytes(util::read_file_bytes(path), path),
                 std::invalid_argument)
        << at;
  }
}

TEST(Spool, FormerSpecCodecVersionRejected) {
  // Version 4 retired the `burst` knob and version 5 the shipped warm
  // states: a well-sealed bundle planned by an older build must fail
  // loudly instead of being worked.
  const std::string dir = scratch_dir("oldversion");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(),
                   {.shards = 1});
  const auto current = util::read_file_bytes(dir + "/queue/shard-0000.bundle");
  ASSERT_NO_THROW((void)parse_bundle_bytes(current, "bundle"));
  // Layout: 8-byte magic, u32 LE version, payload, u64 LE FNV of the rest.
  ASSERT_EQ(current[8], 5u);
  for (const std::uint8_t version : {4, 3}) {
    auto bytes = current;
    bytes[8] = version;
    const std::size_t body = bytes.size() - 8;
    const std::uint64_t hash =
        util::fnv1a64(std::span<const std::uint8_t>(bytes.data(), body));
    for (unsigned k = 0; k < 8; ++k)
      bytes[body + k] = static_cast<std::uint8_t>(hash >> (8 * k));
    const std::string expected =
        "unsupported version " + std::to_string(version);
    try {
      (void)parse_bundle_bytes(bytes, "bundle");
      ADD_FAILURE() << "a version-" << int{version} << " bundle parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
  }
}

TEST(Spool, SpecSettingTheRetiredBurstKnobRejected) {
  // The retired knob keeps its slot on the wire, always absent (the
  // recorded-run envelope shares the codec); a spec image that still sets
  // it is refused instead of being misread.
  RunSpec spec;
  spec.workload = "mrpfltr";
  util::WireWriter w;
  encode_run_spec(w, spec);
  std::vector<std::uint8_t> bytes = w.take();
  {
    util::WireReader r(bytes);
    EXPECT_EQ(decode_run_spec(r).workload, "mrpfltr");
  }
  // Tail without a checkpoint or energy request: slot, u64 max_cycles, two
  // absent optionals.
  const std::size_t slot = bytes.size() - 11;
  ASSERT_EQ(bytes[slot], 0u);
  bytes[slot] = 1;
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(slot) + 1, 0);
  util::WireReader r(bytes);
  EXPECT_THROW((void)decode_run_spec(r), std::invalid_argument);
}

TEST(Spool, SpecSettingTheRetiredCheckpointKnobRejected) {
  // The retired warm-up prefix end keeps its slot after `max_cycles`,
  // always absent; an image that sets it (followed by its u64, as the
  // codec once wrote it) is refused.
  RunSpec spec;
  spec.workload = "mrpfltr";
  spec.max_cycles = 30'000;
  util::WireWriter w;
  encode_run_spec(w, spec);
  std::vector<std::uint8_t> bytes = w.take();
  // Tail: u64 max_cycles, the retired slot, an absent energy request.
  const std::size_t slot = bytes.size() - 2;
  ASSERT_EQ(bytes[slot], 0u);
  ASSERT_EQ(bytes[slot - 8], 0x30u);  // 30'000 = 0x7530, little endian
  bytes[slot] = 1;
  const std::uint8_t prefix_end[8] = {0x20, 0x4E};  // 20'000
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(slot) + 1,
               std::begin(prefix_end), std::end(prefix_end));
  util::WireReader r(bytes);
  try {
    (void)decode_run_spec(r);
    ADD_FAILURE() << "a spec setting the retired prefix end decoded";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("retired"), std::string::npos)
        << error.what();
  }
}

TEST(Spool, SpecWithAnUnknownArbitrationPolicyRejected) {
  // Every policy byte past the last policy is refused at decode, not run
  // as fixed priority and written as "?" in the CSV.
  RunSpec spec;
  spec.workload = "mrpfltr";
  spec.arbitration = sim::ArbitrationPolicy::kRoundRobin;
  util::WireWriter w;
  encode_run_spec(w, spec);
  std::vector<std::uint8_t> bytes = w.take();
  {
    util::WireReader r(bytes);
    EXPECT_EQ(decode_run_spec(r).arbitration, spec.arbitration);
  }
  // Tail after the policy byte: three absent optionals (IM line, fast
  // forward, retired burst knob), u64 max_cycles, two absent optionals.
  const std::size_t policy = bytes.size() - 14;
  ASSERT_EQ(bytes[policy],
            static_cast<std::uint8_t>(sim::ArbitrationPolicy::kRoundRobin));
  bytes[policy] += 1;
  util::WireReader r(bytes);
  EXPECT_THROW((void)decode_run_spec(r), std::invalid_argument);
}

TEST(Spool, CorruptManifestRejected) {
  const std::string dir = scratch_dir("badmanifest");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(), {});
  std::ofstream(dir + "/MANIFEST", std::ios::trunc) << "not a spool\n";
  EXPECT_THROW((void)FsTransport(dir).status().spool, std::runtime_error);
  EXPECT_THROW((void)work_spool(dir, Registry::builtins()), std::runtime_error);
  EXPECT_THROW((void)merge_spool(dir), std::runtime_error);
}

TEST(Spool, PlanRefusesReplanAndEmptySweep) {
  const std::string dir = scratch_dir("replan");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(), {});
  EXPECT_THROW(
      (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(), {}),
      std::runtime_error);
  EXPECT_THROW((void)plan_spool(scratch_dir("empty"), {},
                                Registry::builtins(), {}),
               std::invalid_argument);
}

// --- work / merge ------------------------------------------------------------

TEST(Spool, MergeIsByteIdenticalToSingleProcess) {
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string dir = scratch_dir("merge");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 3});
  const WorkReport report = work_spool(dir, Registry::builtins());
  EXPECT_EQ(report.shards_completed, 3u);
  EXPECT_EQ(report.runs_executed, specs.size());
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

TEST(Spool, MergeBeforeCompletionThrows) {
  const std::string dir = scratch_dir("incomplete");
  (void)plan_spool(dir, small_sweep_specs(), Registry::builtins(),
                   {.shards = 2});
  (void)work_spool(dir, Registry::builtins(), {.max_shards = 1});
  EXPECT_THROW((void)merge_spool(dir), std::runtime_error);
}

TEST(Spool, ConcurrentWorkersRaceCleanly) {
  // Eight one-spec shards, two in-process workers racing the same queue:
  // every shard must be completed exactly once and the merge must still be
  // byte-identical to a single-process sweep.
  std::vector<RunSpec> specs;
  for (unsigned i = 0; i < 8; ++i) {
    RunSpec spec;
    spec.workload = "clip8";
    spec.params.samples = 16 + 8 * i;
    spec.design = DesignVariant::synchronized();
    specs.push_back(std::move(spec));
  }
  const std::string dir = scratch_dir("race");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 8});

  WorkReport reports[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      reports[w] = work_spool(dir, Registry::builtins(),
                              {.worker_id = "t" + std::to_string(w)});
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(reports[0].shards_completed + reports[1].shards_completed, 8u);
  EXPECT_EQ(reports[0].runs_executed + reports[1].runs_executed, specs.size());
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

TEST(Spool, FanOutPlanKeepsEachGroupOnOneShard) {
  // CI's horizon fan-out: the halting kernels' budgets form one run group
  // per spec, the windowed monitor's run alone. The planner keeps each
  // group on one shard, the worker runs it once, and the merge equals the
  // single-process sweep.
  std::vector<RunSpec> specs;
  for (const char* workload : {"mrpfltr", "sqrt32", "streaming"}) {
    for (const bool synced : {false, true}) {
      for (const std::uint64_t horizon : {30'000u, 60'000u, 200'000u}) {
        RunSpec spec;
        spec.workload = workload;
        spec.params.samples = 48;
        spec.design = synced ? DesignVariant::synchronized()
                             : DesignVariant::baseline();
        spec.max_cycles = horizon;
        specs.push_back(std::move(spec));
      }
    }
  }
  const auto groups = Engine(Registry::builtins()).run_groups(specs);
  EXPECT_EQ(groups.size(), 4u + 6u);  // 4 shared runs, 6 lone streaming runs

  const std::string dir = scratch_dir("horizons");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 3});
  std::vector<int> shard_of(specs.size(), -1);
  for (const auto& entry : fs::directory_iterator(dir + "/queue")) {
    const ShardBundle bundle = parse_bundle_bytes(
        util::read_file_bytes(entry.path().string()), "bundle");
    EXPECT_EQ(bundle.warm_ref,
              std::vector<std::int32_t>(bundle.specs.size(), -1));
    for (const std::uint64_t index : bundle.indices) {
      shard_of[index] = static_cast<int>(bundle.id);
    }
  }
  for (const auto& group : groups) {
    for (const std::size_t index : group) {
      EXPECT_EQ(shard_of[index], shard_of[group.front()]) << index;
    }
  }

  const WorkReport report = work_spool(dir, Registry::builtins());
  EXPECT_EQ(report.runs_executed, specs.size());
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

TEST(Spool, MidGroupResumeRunsTheGroupOnceForTheRest) {
  // A worker killed mid-group: its orphaned claim's partial part holds the
  // group's first row. The resumed worker adopts it and serves the other
  // rows from one run of the group.
  const std::vector<RunSpec> specs = grouped_specs(4);
  ASSERT_EQ(Engine(Registry::builtins()).run_groups(specs).size(), 1u);
  const std::string dir = scratch_dir("midgroup");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  fs::rename(dir + "/queue/shard-0000.bundle",
             dir + "/claimed/shard-0000.bundle");
  {
    std::ofstream partial(dir + "/parts/part-0000.partial", std::ios::binary);
    partial << to_csv_row(Engine(Registry::builtins()).run_one(specs[0]))
            << '\n';
  }

  const WorkReport report =
      work_spool(dir, Registry::builtins(), {.resume = true});
  EXPECT_EQ(report.shards_completed, 1u);  // the whole group is one shard
  EXPECT_EQ(report.rows_reused, 1u);
  EXPECT_EQ(report.runs_executed, specs.size() - 1);
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

TEST(Spool, ResumeReusesPartialRowsByteIdentically) {
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string dir = scratch_dir("partial");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  // Simulate a worker killed mid-shard: its claim is orphaned, its partial
  // part holds two finished rows and one torn row.
  ASSERT_TRUE(fs::exists(dir + "/queue/shard-0000.bundle"));
  fs::rename(dir + "/queue/shard-0000.bundle",
             dir + "/claimed/shard-0000.bundle");
  const Engine engine(Registry::builtins());
  std::ofstream partial(dir + "/parts/part-0000.partial", std::ios::binary);
  partial << to_csv_row(engine.run_one(specs[0])) << '\n'
          << to_csv_row(engine.run_one(specs[1])) << '\n'
          << "torn,row,without,newline";
  partial.close();

  const WorkReport report =
      work_spool(dir, Registry::builtins(), {.resume = true});
  EXPECT_EQ(report.shards_completed, 1u);
  EXPECT_EQ(report.rows_reused, 2u);
  EXPECT_EQ(report.runs_executed, specs.size() - 2);
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

// --- checkpoint rings --------------------------------------------------------

RunSpec streaming_spec(unsigned samples) {
  RunSpec spec;
  spec.workload = "streaming";
  spec.params.samples = samples;
  spec.design = DesignVariant::synchronized();
  return spec;
}

Engine ring_engine(const std::string& dir, std::uint64_t stride,
                   unsigned keep) {
  EngineOptions options;
  options.checkpoint_ring = {dir, stride, keep};
  return Engine(Registry::builtins(), options);
}

TEST(CheckpointRing, StreamingRunWithRingIsByteIdentical) {
  const RunSpec spec = streaming_spec(625);  // 5 acquisition windows
  const Engine plain(Registry::builtins());
  const std::string straight = to_csv_row(plain.run_one(spec));

  const std::string dir = scratch_dir("ring_ident");
  const std::string ringed =
      to_csv_row(ring_engine(dir, 2000, 3).run_one(spec));
  EXPECT_EQ(ringed, straight);
  EXPECT_TRUE(fs::exists(ring_run_dir(dir, 0) + "/MANIFEST"));
}

TEST(CheckpointRing, PruningBoundsTheRing) {
  const RunSpec spec = streaming_spec(1250);  // 10 windows, many offers
  const std::string dir = scratch_dir("ring_prune");
  (void)ring_engine(dir, 1000, 2).run_one(spec);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(ring_run_dir(dir, 0))) {
    if (entry.path().extension() == ".ring") ++entries;
  }
  EXPECT_LE(entries, 2u);
  EXPECT_GE(entries, 1u);
}

TEST(CheckpointRing, StreamingCrashResumeIsBitExact) {
  const RunSpec full = streaming_spec(1250);
  const Engine plain(Registry::builtins());
  const RunRecord straight = plain.run_one(full);
  ASSERT_TRUE(straight.ok()) << straight.verify_error;

  // "Crash" half way: same run truncated by the cycle budget, with a live
  // ring. The ring's identity excludes max_cycles, so the resumed full run
  // finds these entries.
  const std::string dir = scratch_dir("ring_resume");
  RunSpec truncated = full;
  truncated.max_cycles = straight.cycles() / 2;
  const RunRecord half = ring_engine(dir, 1500, 4).run_one(truncated);
  EXPECT_EQ(half.status, "max-cycles");

  const RunRecord resumed = ring_engine(dir, 1500, 4).run_one(full);
  EXPECT_EQ(to_csv_row(resumed), to_csv_row(straight));
  // The resumed run really did restore mid-soak (its ring was extended
  // past the crash point, which a cold rerun would also do — so assert on
  // the *windows* extra field surviving the host-state handoff instead).
  EXPECT_EQ(resumed.extra_value("windows"), straight.extra_value("windows"));
}

TEST(CheckpointRing, CorruptNewestEntryFallsBackBitExact) {
  const RunSpec full = streaming_spec(1250);
  const Engine plain(Registry::builtins());
  const RunRecord straight = plain.run_one(full);

  const std::string dir = scratch_dir("ring_corrupt");
  RunSpec truncated = full;
  truncated.max_cycles = straight.cycles() / 2;
  (void)ring_engine(dir, 1500, 4).run_one(truncated);

  // Corrupt the newest entry; resume must fall back to an older one (or a
  // cold start) and still produce the straight-run bytes.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(ring_run_dir(dir, 0))) {
    if (entry.path().extension() == ".ring") {
      entries.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(entries.empty());
  std::sort(entries.begin(), entries.end());
  auto bytes = util::read_file_bytes(entries.back());
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream out(entries.back(), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  const RunRecord resumed = ring_engine(dir, 1500, 4).run_one(full);
  EXPECT_EQ(to_csv_row(resumed), to_csv_row(straight));
}

TEST(CheckpointRing, VersionOneEntriesAreRefusedAndTheRunStartsCold) {
  // Version 1 entries carried nine PC-group histogram words after the two
  // lockstep counts. A ring whose entries are all version 1 is refused
  // entry by entry, so the resumed run starts cold and gives the cold
  // run's bytes.
  const RunSpec full = streaming_spec(1250);
  const Engine plain(Registry::builtins());
  const RunRecord straight = plain.run_one(full);
  ASSERT_TRUE(straight.ok()) << straight.verify_error;

  const std::string dir = scratch_dir("ring_v1");
  RunSpec truncated = full;
  truncated.max_cycles = straight.cycles() / 2;
  (void)ring_engine(dir, 1500, 4).run_one(truncated);

  // Rewrite each entry in the version-1 layout, with the same identity,
  // cycle, lockstep counts and snapshot, and its manifest hash to match.
  const std::string run_dir = ring_run_dir(dir, 0);
  const std::uint64_t identity = ring_identity(full);
  constexpr util::Magic kRingMagic = {'U', 'L', 'P', 'R', 'I', 'N', 'G', '\n'};
  std::ifstream manifest_in(run_dir + "/MANIFEST");
  std::string manifest;
  unsigned rewritten = 0;
  for (std::string line; std::getline(manifest_in, line);) {
    std::istringstream fields(line);
    std::string tag, file;
    std::uint64_t cycle = 0;
    fields >> tag >> cycle >> file;
    if (tag == "entry") {
      const auto entry = load_latest_ring_entry(run_dir, identity, cycle);
      ASSERT_TRUE(entry.has_value()) << cycle;
      ASSERT_EQ(entry->cycle, cycle);
      util::WireWriter state;
      state.u64(entry->state.lockstep.observed_cycles);
      state.u64(entry->state.lockstep.full_lockstep_cycles);
      for (int bin = 0; bin < 9; ++bin) state.u64(0);
      state.blob(entry->state.snapshot.serialize());
      const std::vector<std::uint8_t> bytes =
          util::seal(kRingMagic, 1, [&](util::WireWriter& w) {
            w.u64(identity);
            w.u64(cycle);
            w.blob(state.bytes());
          });
      util::write_file_atomic(run_dir + "/" + file, bytes);
      line = "entry " + std::to_string(cycle) + " " + file + " " +
             util::hex64(util::fnv1a64(bytes));
      ++rewritten;
    }
    manifest += line + "\n";
  }
  ASSERT_GE(rewritten, 1u);
  util::write_file_atomic(run_dir + "/MANIFEST", manifest);
  EXPECT_FALSE(
      load_latest_ring_entry(run_dir, identity, full.max_cycles).has_value());

  const RunRecord resumed = ring_engine(dir, 1500, 4).run_one(full);
  EXPECT_EQ(to_csv_row(resumed), to_csv_row(straight));
}

TEST(CheckpointRing, DefaultDriveCrashResumeIsBitExact) {
  // The default sliced drive: a halting kernel interrupted by the cycle
  // budget resumes from its ring to the same halt, bit for bit.
  RunSpec full;
  full.workload = "mrpfltr";
  full.params.samples = 32;
  const Engine plain(Registry::builtins());
  const RunRecord straight = plain.run_one(full);
  ASSERT_TRUE(straight.ok()) << straight.verify_error;

  const std::string dir = scratch_dir("ring_default");
  RunSpec truncated = full;
  truncated.max_cycles = straight.cycles() / 2;
  const RunRecord half = ring_engine(dir, 3000, 3).run_one(truncated);
  EXPECT_EQ(half.status, "max-cycles");

  const RunRecord resumed = ring_engine(dir, 3000, 3).run_one(full);
  EXPECT_EQ(to_csv_row(resumed), to_csv_row(straight));
}

TEST(CheckpointRing, WorkSpoolWithRingsStaysByteIdentical) {
  // End to end through the spool: rings enabled for every run must leave
  // the merged output byte-identical (the rings are pure output). The
  // real kill-and-resume path is exercised by the CI smoke with SIGKILL.
  const std::vector<RunSpec> specs = {streaming_spec(625),
                                      streaming_spec(750)};
  const std::string dir = scratch_dir("spool_ring");
  (void)plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  (void)work_spool(dir, Registry::builtins(), {.ring_stride = 2000});
  EXPECT_TRUE(fs::exists(dir + "/rings/" ));
  EXPECT_EQ(merge_spool(dir), single_process_csv(specs));
}

}  // namespace
}  // namespace ulpsync::scenario
