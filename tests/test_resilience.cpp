// The resilience-study subsystem: error-model expansion (multi-bit,
// burst, row, voltage-tied rate mode), outcome classification against the
// clean replay, report aggregation, the golden campaign CSV, and the
// spool-sharded campaign protocol (byte-identical merges, crash-resume).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/checkpoint_ring.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/resilience.h"
#include "scenario/transport.h"
#include "util/file.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/resilience_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A bounded sleepgen spec: duty-cycled, so its schedule has DM deposits
/// *and* wake-up interrupts — every error model has targets.
RunSpec sleepgen_spec(unsigned samples) {
  RunSpec spec;
  spec.workload = "sleepgen";
  spec.params.samples = samples;
  spec.max_cycles = 3'000'000;
  spec.design = DesignVariant::synchronized();
  return spec;
}

/// One small recording shared by every campaign test in this suite.
const RecordedRun& sleepgen_recording() {
  static const RecordedRun run = [] {
    RecordOutcome outcome =
        scenario::record_one(sleepgen_spec(12), Registry::builtins());
    EXPECT_TRUE(outcome.record.ok()) << outcome.record.verify_error;
    return std::move(outcome.recorded);
  }();
  return run;
}

/// Workload program + core count of a recording (what expand_campaign
/// needs alongside the schedule).
struct ExpansionInputs {
  assembler::Program program;
  unsigned num_cores = 0;
};

ExpansionInputs expansion_inputs(const RecordedRun& run) {
  const auto workload =
      Registry::builtins().make(run.spec.workload, run.spec.params);
  return {workload->program(run.spec.with_synchronizer()),
          workload->num_cores()};
}

/// A small all-models outcome campaign (two faults per sampled class).
CampaignConfig small_config() {
  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle, ErrorModel::kDmMulti,
                   ErrorModel::kDmBurst,  ErrorModel::kDmRow,
                   ErrorModel::kIm,       ErrorModel::kWakeDelay,
                   ErrorModel::kWakeDrop};
  config.count = 2;
  config.seed = 7;
  return config;
}

std::uint64_t hash_text(const std::string& text) {
  return fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

// --- names and parsing -------------------------------------------------------

TEST(FaultClassName, UnconditionalForEveryKind) {
  // Regression: the old tool-local helper returned "?" for kDropWake
  // unless a caller flag happened to be set.
  EXPECT_STREQ(fault_class_name(sim::FaultAction::Kind::kDmFlip), "dm-flip");
  EXPECT_STREQ(fault_class_name(sim::FaultAction::Kind::kDelayWake),
               "wake-delay");
  EXPECT_STREQ(fault_class_name(sim::FaultAction::Kind::kDropWake),
               "wake-drop");
}

TEST(ErrorModels, NamesRoundTripThroughParse) {
  for (const ErrorModel model :
       {ErrorModel::kDmSingle, ErrorModel::kDmMulti, ErrorModel::kDmBurst,
        ErrorModel::kDmRow, ErrorModel::kIm, ErrorModel::kWakeDelay,
        ErrorModel::kWakeDrop, ErrorModel::kRate}) {
    const auto parsed = parse_error_model(error_model_name(model));
    ASSERT_TRUE(parsed.has_value()) << error_model_name(model);
    EXPECT_EQ(*parsed, model);
  }
  EXPECT_FALSE(parse_error_model("gamma-ray").has_value());
  EXPECT_THROW((void)parse_error_models("dm,gamma-ray"), std::runtime_error);
  const auto models = parse_error_models("dm,rate,,wake-drop");
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[1], ErrorModel::kRate);
}

TEST(ErrorModels, VoltageListParsing) {
  const auto volts = parse_voltage_list("0.5,0.75,1.0");
  ASSERT_EQ(volts.size(), 3u);
  EXPECT_DOUBLE_EQ(volts[1], 0.75);
  EXPECT_TRUE(parse_voltage_list("").empty());
  EXPECT_THROW((void)parse_voltage_list("0.5,abc"), std::runtime_error);
  EXPECT_THROW((void)parse_voltage_list("-0.5"), std::runtime_error);
}

TEST(FaultActionMask, WordMaskSelectsBitOrPattern) {
  sim::FaultAction action;
  action.bit = 5;
  EXPECT_EQ(action.word_mask(), 1u << 5);
  action.mask = 0x00F0;
  EXPECT_EQ(action.word_mask(), 0x00F0);
}

// --- outcome classification --------------------------------------------------

TEST(ClassifyDivergence, CoreCountMismatchIsItsOwnOutcome) {
  // Snapshots with differing core counts are not comparable; the old
  // classifier silently diffed the common prefix.
  sim::Snapshot clean;
  clean.cores.resize(2);
  sim::Snapshot faulty;
  faulty.cores.resize(1);
  FaultTrialRow row;
  row.divergence_core = 7;
  classify_state_divergence(clean, faulty, row);
  EXPECT_EQ(row.outcome, "core-count-mismatch");
  EXPECT_EQ(row.state_class, "core-count-mismatch");
  EXPECT_EQ(row.divergence_core, -1);
}

// --- campaign expansion ------------------------------------------------------

TEST(Expansion, DeterministicAndWellShaped) {
  const RecordedRun& run = sleepgen_recording();
  const ExpansionInputs inputs = expansion_inputs(run);
  const CampaignConfig config = small_config();

  const auto faults = expand_campaign(config, run.schedule, inputs.program,
                                      inputs.num_cores);
  const auto again = expand_campaign(config, run.schedule, inputs.program,
                                     inputs.num_cores);
  ASSERT_EQ(faults.size(), config.models.size() * config.count);

  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].index, i);
    ASSERT_EQ(faults[i].model, again[i].model);
    EXPECT_EQ(faults[i].action.cycle, again[i].action.cycle);
    EXPECT_EQ(faults[i].action.addr, again[i].action.addr);
    EXPECT_EQ(faults[i].action.mask, again[i].action.mask);
    switch (faults[i].model) {
      case ErrorModel::kDmMulti: {
        // A contiguous run of `multi_bits` bits in one word.
        const std::uint16_t mask = faults[i].action.word_mask();
        EXPECT_EQ(std::popcount(mask), static_cast<int>(config.multi_bits));
        EXPECT_EQ(mask >> std::countr_zero(mask),
                  (1u << config.multi_bits) - 1u);
        EXPECT_EQ(faults[i].action.span, 1u);
        break;
      }
      case ErrorModel::kDmBurst:
        EXPECT_EQ(faults[i].action.span, config.burst_words);
        EXPECT_EQ(faults[i].action.mask, 0u);
        break;
      case ErrorModel::kDmRow:
        EXPECT_EQ(faults[i].action.span, config.row_words);
        EXPECT_EQ(faults[i].action.addr % config.row_words, 0u);
        break;
      case ErrorModel::kIm:
        EXPECT_TRUE(faults[i].is_im_flip);
        EXPECT_LT(faults[i].im_word, inputs.program.image.size());
        break;
      default:
        break;
    }
  }
}

TEST(Expansion, SampledModelsAreIdenticalAcrossVoltages) {
  const RecordedRun& run = sleepgen_recording();
  const ExpansionInputs inputs = expansion_inputs(run);
  CampaignConfig config = small_config();
  config.voltages = {0.6, 1.0};

  const auto faults = expand_campaign(config, run.schedule, inputs.program,
                                      inputs.num_cores);
  const std::size_t per_point = config.models.size() * config.count;
  ASSERT_EQ(faults.size(), 2 * per_point);
  for (std::size_t i = 0; i < per_point; ++i) {
    const CampaignFault& lo = faults[i];
    const CampaignFault& hi = faults[per_point + i];
    EXPECT_DOUBLE_EQ(lo.voltage, 0.6);
    EXPECT_DOUBLE_EQ(hi.voltage, 1.0);
    EXPECT_EQ(lo.model, hi.model);
    EXPECT_EQ(lo.is_im_flip, hi.is_im_flip);
    EXPECT_EQ(lo.im_word, hi.im_word);
    EXPECT_EQ(lo.im_bit, hi.im_bit);
    EXPECT_EQ(lo.action.cycle, hi.action.cycle);
    EXPECT_EQ(lo.action.addr, hi.action.addr);
    EXPECT_EQ(lo.action.bit, hi.action.bit);
    EXPECT_EQ(lo.action.mask, hi.action.mask);
    EXPECT_EQ(lo.action.span, hi.action.span);
    EXPECT_EQ(lo.action.event_index, hi.action.event_index);
  }
}

TEST(Expansion, RateDensityMonotoneNonIncreasingInVoltage) {
  // The ISSUE acceptance sweep: 0.5 V -> 1.0 V must show monotonically
  // non-increasing injected-fault density, by construction (each
  // candidate's uniform is voltage-independent and p(V) is monotone).
  const RecordedRun& run = sleepgen_recording();
  const ExpansionInputs inputs = expansion_inputs(run);
  CampaignConfig config;
  config.models = {ErrorModel::kRate};
  config.seed = 11;
  config.rate_scale = 10.0;
  config.voltages = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  const auto faults = expand_campaign(config, run.schedule, inputs.program,
                                      inputs.num_cores);
  std::map<double, std::set<std::tuple<std::uint64_t, std::uint32_t, unsigned>>>
      injected;
  for (const double v : config.voltages) injected[v];
  for (const CampaignFault& fault : faults) {
    ASSERT_EQ(fault.model, ErrorModel::kRate);
    injected[fault.voltage].insert(
        {fault.action.cycle, fault.action.addr, fault.action.bit});
  }
  ASSERT_GT(injected[0.5].size(), 0u) << "no faults at the lowest voltage";
  for (std::size_t i = 1; i < config.voltages.size(); ++i) {
    const auto& lower = injected[config.voltages[i - 1]];
    const auto& higher = injected[config.voltages[i]];
    EXPECT_LE(higher.size(), lower.size()) << "at " << config.voltages[i];
    // Stronger than counts: the higher voltage's set is a subset.
    EXPECT_TRUE(std::includes(lower.begin(), lower.end(), higher.begin(),
                              higher.end()))
        << "injected set at " << config.voltages[i]
        << " is not a subset of the set at " << config.voltages[i - 1];
  }
}

// --- campaign outcomes -------------------------------------------------------

TEST(Campaign, JobsCountNeverChangesTheCsv) {
  const RecordedRun& run = sleepgen_recording();
  CampaignConfig config = small_config();
  const Registry& registry = Registry::builtins();

  const std::string serial = campaign_csv(run_campaign(run, registry,
                                                       config, 1));
  const std::string threaded = campaign_csv(run_campaign(run, registry,
                                                         config, 3));
  EXPECT_EQ(serial, threaded);
}

TEST(Campaign, OutcomesStayInTheTaxonomyAndAggregateExactly) {
  const RecordedRun& run = sleepgen_recording();
  const CampaignConfig config = small_config();
  const auto rows = run_campaign(run, Registry::builtins(), config, 2);
  ASSERT_EQ(rows.size(), config.models.size() * config.count);

  const std::set<std::string> taxonomy{
      "masked",      "detected",          "sdc",       "no-target",
      "undecodable-image", "error",       "core-count-mismatch"};
  std::map<std::string, std::size_t> counts;
  for (const FaultTrialRow& row : rows) {
    EXPECT_TRUE(taxonomy.count(row.outcome)) << row.outcome;
    EXPECT_NE(row.outcome, "error") << row.detail;
    counts[row.outcome] += 1;
  }
  // The campaign must actually classify: every injected fault gets a
  // masked/detected/sdc (or undecodable-image) verdict.
  EXPECT_EQ(counts["masked"] + counts["detected"] + counts["sdc"] +
                counts["undecodable-image"] + counts["no-target"],
            rows.size());

  const ResilienceReport report = aggregate_resilience(rows);
  std::size_t total = 0;
  std::size_t masked = 0;
  std::size_t detected = 0;
  std::size_t sdc = 0;
  for (const ResilienceBucket& bucket : report.buckets) {
    total += bucket.faults;
    masked += bucket.masked;
    detected += bucket.detected;
    sdc += bucket.sdc;
    EXPECT_EQ(bucket.faults, config.count)
        << error_model_name(bucket.model);
  }
  EXPECT_EQ(total, rows.size());
  EXPECT_EQ(masked, counts["masked"]);
  EXPECT_EQ(detected, counts["detected"]);
  EXPECT_EQ(sdc, counts["sdc"]);
  EXPECT_EQ(report.buckets.size(), config.models.size());
}

TEST(Campaign, VoltageSweepRatesAreDeterministic) {
  // The other half of the acceptance sweep: per-voltage masked/detected/
  // SDC rates must be exactly reproducible run over run.
  const RecordedRun& run = sleepgen_recording();
  const Registry& registry = Registry::builtins();
  CampaignConfig config;
  config.models = {ErrorModel::kRate};
  config.seed = 11;
  config.rate_scale = 5.0;
  config.voltages = {0.55, 0.75, 1.0};

  const auto rows = run_campaign(run, registry, config, 2);
  const auto again = run_campaign(run, registry, config, 3);
  EXPECT_EQ(campaign_csv(rows), campaign_csv(again));
  EXPECT_EQ(aggregate_resilience(rows).to_csv(),
            aggregate_resilience(again).to_csv());
  ASSERT_FALSE(rows.empty()) << "rate model injected nothing at 0.55 V";
  for (const FaultTrialRow& row : rows) {
    EXPECT_NE(row.outcome, "error") << row.detail;
  }
}

TEST(Campaign, LocalizeModeStillBisects) {
  const RecordedRun& run = sleepgen_recording();
  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle};
  config.count = 2;
  config.seed = 5;
  config.localize = true;
  config.stride = 1024;
  const auto rows = run_campaign(run, Registry::builtins(), config, 1);
  ASSERT_EQ(rows.size(), 2u);
  for (const FaultTrialRow& row : rows) {
    EXPECT_TRUE(row.outcome == "localized" || row.outcome == "masked")
        << row.outcome << ": " << row.detail;
    if (row.outcome == "localized") {
      EXPECT_FALSE(row.state_class.empty());
      EXPECT_GE(row.divergence_core, 0);
    }
  }
}

// --- golden campaign CSV -----------------------------------------------------

std::map<std::string, std::uint64_t> load_golden_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  std::ifstream in(ULPSYNC_GOLDEN_DIR "/hashes.txt");
  EXPECT_TRUE(in.is_open());
  std::string hash_hex;
  std::string filename;
  while (in >> hash_hex >> filename) {
    const std::size_t slash = filename.find_last_of('/');
    if (slash != std::string::npos) filename = filename.substr(slash + 1);
    hashes[filename] = std::strtoull(hash_hex.c_str(), nullptr, 16);
  }
  return hashes;
}

/// Runs `config` over the committed sleepgen schedule and checks the CSV
/// byte-for-byte against the committed golden `name` and its hashes.txt
/// row. The recipes that regenerate the goldens are in
/// tests/golden/README.md.
void expect_golden_campaign(const CampaignConfig& config,
                            const std::string& name) {
  const RecordedRun run =
      read_recorded_run_file(ULPSYNC_GOLDEN_DIR "/sleepgen.evt");
  const std::string csv =
      campaign_csv(run_campaign(run, Registry::builtins(), config, 2));

  std::ifstream in(std::string(ULPSYNC_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden " << name;
  const std::string committed{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  EXPECT_EQ(csv, committed);

  const auto hashes = load_golden_hashes();
  const auto it = hashes.find(name);
  ASSERT_NE(it, hashes.end()) << name << " not in hashes.txt";
  EXPECT_EQ(hash_text(csv), it->second);
}

TEST(GoldenCampaign, CommittedCsvAndHashPinTheOutcomes) {
  // The committed campaign over the committed sleepgen schedule: any
  // change to expansion order, trial classification, or CSV rendering
  // shows up as a byte diff here. The config avoids the rate model on
  // purpose: its threshold test runs through libm's exp(), which is not
  // bit-contracted across hosts; the golden stays integer-only.
  expect_golden_campaign(small_config(), "campaign_sleepgen.csv");
}

TEST(GoldenCampaign, CommittedLocalizeCsvPinsTheBisector) {
  // The same faults in localize mode: the bisector's stride steps, its
  // single-step replay and the first divergent cycle it reports are all
  // pinned, down to the snapshot delta in the detail column.
  CampaignConfig config = small_config();
  config.localize = true;
  config.stride = 256;
  expect_golden_campaign(config, "campaign_sleepgen_localize.csv");
}

// --- campaign spool ----------------------------------------------------------

TEST(CampaignSpool, ShardedMergeIsByteIdenticalToSingleProcess) {
  const std::string dir = scratch_dir("merge");
  const RecordedRun& run = sleepgen_recording();
  const Registry& registry = Registry::builtins();
  const CampaignConfig config = small_config();

  const std::string single =
      campaign_csv(run_campaign(run, registry, config, 2));

  const CampaignPlanResult plan =
      plan_campaign_spool(dir, run, config, registry, {.shards = 3});
  EXPECT_EQ(plan.faults, config.models.size() * config.count);
  EXPECT_EQ(plan.shards, 3u);
  FsTransport transport(dir);
  EXPECT_TRUE(read_spool_manifest(transport).campaign);

  // Two workers drain the queue (the first takes one shard, the second
  // the rest), as two cooperating processes would.
  const WorkReport first = work_campaign_spool(
      dir, registry, {.worker_id = "worker-a", .jobs = 2, .max_shards = 1});
  EXPECT_EQ(first.shards_completed, 1u);
  const WorkReport second =
      work_campaign_spool(dir, registry, {.worker_id = "worker-b", .jobs = 2});
  EXPECT_EQ(first.shards_completed + second.shards_completed, 3u);
  EXPECT_EQ(first.runs_executed + second.runs_executed, plan.faults);

  EXPECT_EQ(merge_campaign_spool(dir), single);

  const SpoolStatus status = transport.status().spool;
  EXPECT_EQ(status.specs, plan.faults);
  for (const ShardState& shard : status.shards) {
    EXPECT_EQ(shard.state, "done");
    EXPECT_TRUE(shard.part_final);
  }
}

TEST(CampaignSpool, ResumeAdoptsCompleteRowsOfAKilledWorker) {
  const std::string dir = scratch_dir("resume");
  const RecordedRun& run = sleepgen_recording();
  const Registry& registry = Registry::builtins();
  const CampaignConfig config = small_config();

  const std::string single =
      campaign_csv(run_campaign(run, registry, config, 2));
  std::vector<std::string> expected_rows;
  {
    std::istringstream lines(single);
    std::string line;
    std::getline(lines, line);  // header
    while (std::getline(lines, line)) expected_rows.push_back(line);
  }

  plan_campaign_spool(dir, run, config, registry, {.shards = 2});

  // Simulate a SIGKILLed worker: shard 0 claimed, its partial part holds
  // two complete rows plus a torn trailing fragment.
  ASSERT_GE(expected_rows.size(), 3u);
  fs::rename(dir + "/queue/shard-0000.range", dir + "/claimed/shard-0000.range");
  {
    std::ofstream owner(dir + "/claimed/shard-0000.owner");
    owner << "dead-worker\n";
  }
  {
    std::ofstream partial(dir + "/parts/part-0000.partial", std::ios::binary);
    partial << expected_rows[0] << '\n' << expected_rows[1] << '\n'
            << expected_rows[2].substr(0, 9);  // torn mid-row, no newline
  }

  // Without --resume the claimed shard is skipped and the merge fails.
  const WorkReport stuck =
      work_campaign_spool(dir, registry, {.worker_id = "worker-b", .jobs = 2});
  EXPECT_EQ(stuck.shards_completed, 1u);
  EXPECT_THROW((void)merge_campaign_spool(dir), std::runtime_error);

  const WorkReport resumed = work_campaign_spool(
      dir, registry,
      {.worker_id = "worker-c", .resume = true, .jobs = 2});
  EXPECT_EQ(resumed.shards_completed, 1u);
  EXPECT_EQ(resumed.rows_reused, 2u);  // torn third row re-ran

  EXPECT_EQ(merge_campaign_spool(dir), single);
}

TEST(CampaignSpool, PlannedCampaignRoundTripsAndCorruptionIsRejected) {
  const std::string dir = scratch_dir("roundtrip");
  const RecordedRun& run = sleepgen_recording();
  const Registry& registry = Registry::builtins();
  CampaignConfig config = small_config();
  config.voltages = {0.6, 0.9};
  config.rate_scale = 2.5;

  const CampaignPlanResult plan =
      plan_campaign_spool(dir, run, config, registry, {.shards = 2});
  const PlannedCampaign planned = parse_planned_campaign(
      util::read_file_bytes(dir + "/campaign.bin"), dir);
  EXPECT_EQ(planned.fingerprint, plan.fingerprint);
  EXPECT_EQ(planned.fingerprint, campaign_fingerprint(config, run));
  EXPECT_EQ(planned.config.models, config.models);
  EXPECT_EQ(planned.config.count, config.count);
  EXPECT_EQ(planned.config.seed, config.seed);
  EXPECT_EQ(planned.config.voltages, config.voltages);
  EXPECT_DOUBLE_EQ(planned.config.rate_scale, config.rate_scale);
  EXPECT_EQ(planned.run.content_hash(), run.content_hash());

  // Replanning an already-planned spool is refused.
  EXPECT_THROW(plan_campaign_spool(dir, run, config, registry, {.shards = 2}),
               std::runtime_error);

  // A corrupted campaign image fails its content hash before any work.
  {
    std::fstream bin(dir + "/campaign.bin",
                     std::ios::binary | std::ios::in | std::ios::out);
    bin.seekp(32);
    char byte = 0;
    bin.read(&byte, 1);
    bin.seekp(32);
    byte = static_cast<char>(byte ^ 0x40);
    bin.write(&byte, 1);
  }
  EXPECT_THROW((void)parse_planned_campaign(
                   util::read_file_bytes(dir + "/campaign.bin"), dir),
               std::invalid_argument);
  EXPECT_THROW((void)work_campaign_spool(dir, registry, {}),
               std::invalid_argument);
}

TEST(CampaignSpool, EmptyCampaignIsRefusedAtPlanTime) {
  const std::string dir = scratch_dir("empty");
  const RecordedRun& run = sleepgen_recording();
  CampaignConfig config = small_config();
  config.count = 0;
  EXPECT_THROW(
      plan_campaign_spool(dir, run, config, Registry::builtins(), {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace ulpsync::scenario
