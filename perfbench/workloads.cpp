#include "workloads.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/lockstep.h"
#include "scenario/batch.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "sim/event_schedule.h"
#include "sim/platform.h"
#include "sim/snapshot.h"

namespace perfbench {

namespace core = ulpsync::core;
namespace ecg = ulpsync::ecg;
namespace sim = ulpsync::sim;
using namespace ulpsync::scenario;

namespace {

// Samples per channel, sized so one trial of each workload is a few tenths
// of a second of single-thread CPU: enough work to time, short enough for a
// median over many trials in one run.
constexpr unsigned kPaperSamples = 256;
constexpr unsigned kWideSamples = 8192;  // 64 windows of 128 samples
constexpr unsigned kCohortSamples = 256;
constexpr unsigned kCampaignSamples = 1024;
constexpr unsigned kPaperShards = 4;
constexpr unsigned kCohortPatients = 512;
constexpr unsigned kFaultsPerModel = 8;
// Cohort rows the first trial also runs on the scalar Engine.
constexpr std::size_t kScalarCrossCheck = 16;
constexpr const char* kWorker = "perfbench";

// The seven sampled error models: all but the voltage-tied rate model.
constexpr ErrorModel kCampaignModels[] = {
    ErrorModel::kDmSingle, ErrorModel::kDmMulti,   ErrorModel::kDmBurst,
    ErrorModel::kDmRow,    ErrorModel::kIm,        ErrorModel::kWakeDelay,
    ErrorModel::kWakeDrop};

constexpr const char* kKindNames[] = {"paper8", "sleepgen-wide", "cohort",
                                      "campaign"};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Option blocks of the calls the workloads make: one caller, one thread.
EngineOptions serial_engine() {
  EngineOptions options;
  options.jobs = 1;
  return options;
}

BatchOptions serial_batch() {
  BatchOptions options;
  options.jobs = 1;
  return options;
}

SpoolOptions paper_spool() {
  SpoolOptions options;
  options.shards = kPaperShards;
  return options;
}

CampaignSpoolOptions campaign_spool() {
  CampaignSpoolOptions options;
  options.shards = 1;
  return options;
}

Output serialized(const std::vector<RunRecord>& records) {
  return {to_csv(records), to_json(records)};
}

std::uint64_t csv_rows(const std::string& csv) {
  const auto lines =
      static_cast<std::uint64_t>(std::count(csv.begin(), csv.end(), '\n'));
  return lines == 0 ? 0 : lines - 1;  // the header is no row
}

std::vector<std::string> split(const std::string& line, char separator) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = line.find(separator, start);
    if (end == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, end - start));
    start = end + 1;
  }
}

// Engine::run_one's platform: resolved configuration, program, inputs.
std::unique_ptr<sim::Platform> loaded_platform(const RunSpec& spec,
                                               const Workload& workload) {
  auto platform =
      std::make_unique<sim::Platform>(resolved_config(spec, workload));
  platform->load_program(workload.program(spec.with_synchronizer()));
  workload.load_inputs(*platform);
  return platform;
}

void add_path_cycles(const sim::Platform& platform, Counters& counters) {
  counters["sim.cycles"] += static_cast<double>(platform.counters().cycles);
  counters["sim.fetch_region_cycles"] +=
      static_cast<double>(platform.fetch_region_cycles());
  counters["sim.burst_cycles"] += static_cast<double>(platform.burst_cycles());
  counters["sim.ff_cycles"] +=
      static_cast<double>(platform.fast_forwarded_cycles());
}

// Engine::run_one's calls under the engine's defaults (cold, no checkpoint
// ring, lockstep analyzer attached), one span per layer.
RunRecord run_one_traced(const Registry& registry, const RunSpec& spec,
                         Tracer& tracer, Counters& counters) {
  return tracer.span("run_one", [&] {
    RunRecord record;
    record.spec = spec;
    const auto workload = tracer.span(
        "build", [&] { return registry.make(spec.workload, spec.params); });
    const auto platform =
        tracer.span("load", [&] { return loaded_platform(spec, *workload); });
    core::LockstepAnalyzer analyzer;
    analyzer.attach(*platform);
    const sim::RunResult result = tracer.span("simulate", [&] {
      return workload->drive(*platform, spec.max_cycles);
    });
    add_path_cycles(*platform, counters);
    tracer.span("finish", [&] {
      finish_record(record, *workload, *platform, result,
                    analyzer.metrics().lockstep_fraction());
    });
    return record;
  });
}

// The same drive with no analyzer attached: extra work beside the program,
// whose gap to `simulate` is the cost of the lockstep metrics.
void lockstep_probe(const Registry& registry, const RunSpec& spec,
                    std::uint64_t cycles, Tracer& tracer) {
  tracer.span(
      "lockstep_probe",
      [&] {
        const auto workload = registry.make(spec.workload, spec.params);
        const auto platform = loaded_platform(spec, *workload);
        tracer.span("simulate_bare", [&] {
          (void)workload->drive(*platform, spec.max_cycles);
        });
        if (platform->counters().cycles != cycles) {
          throw std::runtime_error(
              "the lockstep analyzer changed the simulation of " +
              spec.workload);
        }
      },
      /*extra=*/true);
}

Output traced_paper8(const Setup& setup, const std::string& dir,
                     Tracer& tracer, Counters& counters) {
  tracer.span("spool.plan", [&] {
    (void)plan_spool(dir, setup.specs, setup.registry, paper_spool());
  });
  // work_spool's loop over the public transport calls, each run split into
  // Engine::run_one's calls.
  std::vector<std::pair<RunSpec, std::uint64_t>> probes;
  tracer.span("spool.work", [&] {
    FsTransport transport(dir);
    const SpoolManifest manifest = parse_spool_manifest_text(
        transport.manifest_text(), transport.describe());
    while (const std::optional<ClaimedShard> claimed =
               transport.claim(kWorker)) {
      const ShardBundle bundle = parse_bundle_bytes(
          claimed->payload, "shard bundle " + std::to_string(claimed->id));
      if (bundle.fingerprint != manifest.fingerprint ||
          !claimed->rows.empty()) {
        throw std::runtime_error("paper8: unexpected spool state");
      }
      std::string part;
      for (std::size_t k = 0; k < bundle.specs.size(); ++k) {
        if (bundle.warm_ref[k] >= 0) {
          throw std::runtime_error("paper8: unexpected warm state");
        }
        transport.heartbeat(bundle.id);
        const double start = wall_seconds();
        const RunRecord record =
            run_one_traced(setup.registry, bundle.specs[k], tracer, counters);
        const double wall = wall_seconds() - start;
        const std::string row =
            tracer.span("serialize", [&] { return to_csv_row(record); });
        transport.append_row(bundle.id, row);
        transport.append_cost(
            bundle.id, cost_line(bundle.specs[k], record.cycles(), wall));
        part += row + '\n';
        probes.emplace_back(bundle.specs[k], record.cycles());
      }
      transport.complete(bundle.id, digest(part));
    }
  });
  Output output;
  output.csv = tracer.span("spool.merge", [&] { return merge_spool(dir); });
  counters["spool.rows"] = static_cast<double>(csv_rows(output.csv));
  for (const auto& [spec, cycles] : probes) {
    lockstep_probe(setup.registry, spec, cycles, tracer);
  }
  return output;
}

Output traced_engine(const Setup& setup, Tracer& tracer, Counters& counters) {
  std::vector<RunRecord> records;
  for (const RunSpec& spec : setup.specs) {
    records.push_back(run_one_traced(setup.registry, spec, tracer, counters));
  }
  Output output =
      tracer.span("serialize", [&] { return serialized(records); });
  for (std::size_t i = 0; i < records.size(); ++i) {
    lockstep_probe(setup.registry, setup.specs[i], records[i].cycles(),
                   tracer);
  }
  return output;
}

Output traced_cohort(const Setup& setup, Tracer& tracer, Counters& counters) {
  // BatchEngine::run builds its lanes' workloads inside its own span; the
  // build layer is timed per spec beside it.
  for (const RunSpec& spec : setup.specs) {
    tracer.span(
        "build",
        [&] { return setup.registry.make(spec.workload, spec.params); },
        /*extra=*/true);
  }
  const BatchResult result = tracer.span("batch", [&] {
    return BatchEngine(setup.registry, serial_batch())
        .run(setup.specs);
  });
  const BatchStats& stats = result.stats;
  counters["batch.groups"] = static_cast<double>(stats.groups);
  counters["batch.batched_runs"] = static_cast<double>(stats.batched_runs);
  counters["batch.scalar_runs"] = static_cast<double>(stats.scalar_runs);
  counters["batch.diverged_lanes"] = static_cast<double>(stats.diverged_lanes);
  counters["batch.group_bails"] = static_cast<double>(stats.group_bails);
  counters["batch.emulated_instructions"] =
      static_cast<double>(stats.emulated_instructions);
  counters["batch.batched_share"] =
      setup.specs.empty() ? 0.0
                          : static_cast<double>(stats.batched_runs) /
                                static_cast<double>(setup.specs.size());
  return tracer.span("serialize",
                     [&] { return serialized(result.records); });
}

std::string outcome_counter(const FaultTrialRow& row) {
  const std::string& outcome = row.outcome;
  const bool named =
      outcome == "masked" || outcome == "detected" || outcome == "sdc";
  return std::string("campaign.outcome.") + error_model_name(row.fault.model) +
         '.' + (named ? outcome : std::string("other"));
}

Output traced_campaign(const Setup& setup, const std::string& dir,
                       Tracer& tracer, Counters& counters) {
  // The recording is set-up work; it is redone here to time it, and must
  // come out identical.
  const RecordedRun recorded = tracer.span(
      "campaign.record",
      [&] { return record_one(setup.recording.spec, setup.registry).recorded; },
      /*extra=*/true);
  if (recorded.content_hash() != setup.recording.content_hash()) {
    throw std::runtime_error("campaign: the recording is not reproducible");
  }
  tracer.span("spool.plan", [&] {
    (void)plan_campaign_spool(dir, setup.recording, setup.campaign,
                              setup.registry, campaign_spool());
  });
  // work_campaign_spool's calls over the public transport, with the clean
  // replay split into rig and replay. The one shard holds every fault.
  tracer.span("spool.work", [&] {
    FsTransport transport(dir);
    (void)transport.manifest_text();
    const PlannedCampaign planned = parse_planned_campaign(
        transport.fetch_blob("campaign.bin"), "campaign.bin in " + dir);
    const RecordedRun& run = planned.run;
    const auto workload = tracer.span("build", [&] {
      return setup.registry.make(run.spec.workload, run.spec.params);
    });
    const std::vector<CampaignFault> faults =
        tracer.span("campaign.expand", [&] {
          return expand_campaign(
              planned.config, run.schedule,
              workload->program(run.spec.with_synchronizer()),
              workload->num_cores());
        });
    const sim::Snapshot clean = tracer.span("campaign.clean_final", [&] {
      const ReplayRig rig = tracer.span(
          "campaign.rig", [&] { return make_replay_rig(run, setup.registry); });
      return tracer.span("campaign.clean_replay", [&] {
        sim::ReplayCursor cursor(*rig.platform, run.schedule, {});
        cursor.advance_to(run.schedule.final_result.cycles);
        add_path_cycles(*rig.platform, counters);
        return rig.platform->save_snapshot();
      });
    });
    while (const std::optional<ClaimedShard> claimed =
               transport.claim(kWorker)) {
      if (claimed->kind != "range" || !claimed->rows.empty()) {
        throw std::runtime_error("campaign: unexpected spool state");
      }
      std::string part;
      for (const CampaignFault& fault : faults) {
        transport.heartbeat(claimed->id);
        const FaultTrialRow row = tracer.span(
            std::string("campaign.trial.") + error_model_name(fault.model),
            [&] {
              return run_fault_trial(run, setup.registry, fault,
                                     planned.config, &clean);
            });
        counters[outcome_counter(row)] += 1;
        const std::string line =
            tracer.span("serialize", [&] { return fault_row_csv(row); });
        transport.append_row(claimed->id, line);
        part += line + '\n';
      }
      transport.complete(claimed->id, digest(part));
    }
  });
  Output output;
  output.csv =
      tracer.span("spool.merge", [&] { return merge_campaign_spool(dir); });
  counters["spool.rows"] = static_cast<double>(csv_rows(output.csv));
  return output;
}

}  // namespace

std::optional<Kind> parse_kind(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

const char* kind_name(Kind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

std::vector<std::string> campaign_model_names() {
  std::vector<std::string> names;
  for (const ErrorModel model : kCampaignModels) {
    names.emplace_back(error_model_name(model));
  }
  return names;
}

Seeds derive_seeds(std::uint64_t seed) {
  const std::uint64_t root = splitmix64(seed);
  return {splitmix64(root + 1), splitmix64(root + 2), splitmix64(root + 3)};
}

Setup make_setup(Kind kind, const Seeds& seeds) {
  Setup setup;
  setup.kind = kind;
  setup.registry = Registry::with_builtins();
  WorkloadParams base;
  base.generator.seed = seeds.generator;
  switch (kind) {
    case Kind::kPaper8:
      base.samples = kPaperSamples;
      setup.specs = Matrix()
                        .workloads({"mrpfltr", "sqrt32", "mrpdln", "streaming"})
                        .base_params(base)
                        .designs({DesignVariant::synchronized(),
                                  DesignVariant::baseline()})
                        .num_cores({8})
                        .energy({EnergyRequest{}})
                        .expand();
      break;
    case Kind::kSleepgenWide:
      base.samples = kWideSamples;
      setup.specs = Matrix()
                        .workload("sleepgen")
                        .base_params(base)
                        .design(DesignVariant::xbar_only())
                        .num_cores({16, 32, 64})
                        .expand();
      break;
    case Kind::kCohort: {
      base.samples = kCohortSamples;
      ecg::CohortParams cohort;
      cohort.seed = seeds.cohort;
      setup.specs = Matrix()
                        .workload("streaming.uniform")
                        .base_params(base)
                        .design(DesignVariant::synchronized())
                        .num_cores({8})
                        .cohort(kCohortPatients, cohort)
                        .expand();
      break;
    }
    case Kind::kCampaign: {
      RunSpec spec;
      spec.workload = "sleepgen";
      spec.params = base;
      spec.params.samples = kCampaignSamples;
      spec.params.num_channels = 8;
      spec.design = DesignVariant::synchronized();
      spec.max_cycles = 2'000'000;  // fault_campaign's recording budget
      RecordOutcome outcome = record_one(spec, setup.registry);
      if (!outcome.record.ok()) {
        throw std::runtime_error("campaign: the recording run failed: " +
                                 outcome.record.status + " " +
                                 outcome.record.verify_error);
      }
      setup.recording = std::move(outcome.recorded);
      setup.campaign.models.assign(std::begin(kCampaignModels),
                                   std::end(kCampaignModels));
      setup.campaign.count = kFaultsPerModel;
      setup.campaign.seed = seeds.campaign;
      break;
    }
  }
  return setup;
}

std::string check_setup(const Setup& setup) {
  if (setup.kind != Kind::kCampaign) return {};
  const ReplayReport replay =
      replay_recorded_run(setup.recording, setup.registry);
  if (replay.bit_identical) return {};
  return "campaign: the recording does not replay bit-exactly: " +
         replay.error;
}

Output run_trial(const Setup& setup, const std::string& dir) {
  switch (setup.kind) {
    case Kind::kPaper8: {
      WorkOptions work;
      work.worker_id = kWorker;
      (void)plan_spool(dir, setup.specs, setup.registry, paper_spool());
      (void)work_spool(dir, setup.registry, work);
      return {merge_spool(dir), {}};
    }
    case Kind::kSleepgenWide:
      return serialized(
          Engine(setup.registry, serial_engine()).run(setup.specs));
    case Kind::kCohort:
      return serialized(BatchEngine(setup.registry, serial_batch())
                            .run(setup.specs)
                            .records);
    case Kind::kCampaign: {
      CampaignWorkOptions work;
      work.worker_id = kWorker;
      work.jobs = 1;
      (void)plan_campaign_spool(dir, setup.recording, setup.campaign,
                                setup.registry, campaign_spool());
      (void)work_campaign_spool(dir, setup.registry, work);
      return {merge_campaign_spool(dir), {}};
    }
  }
  throw std::logic_error("unknown workload");
}

Output run_reference(const Setup& setup, const std::string& dir) {
  if (setup.kind != Kind::kCohort) return run_trial(setup, dir);
  return serialized(
      Engine(setup.registry, serial_engine()).run(setup.specs));
}

Tally tally(const Setup& setup, const std::string& csv) {
  Tally counts;
  if (setup.kind != Kind::kCampaign) {
    for (const RunRecord& record : records_from_csv(csv)) {
      counts.attempted += 1;
      counts.failed += record.ok() ? 0 : 1;
      counts.sim_cycles += record.cycles();
    }
    return counts;
  }
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  const std::vector<std::string> header = split(line, ',');
  const auto column = std::find(header.begin(), header.end(), "outcome");
  if (column == header.end()) {
    throw std::runtime_error("campaign CSV has no outcome column");
  }
  const auto at = static_cast<std::size_t>(column - header.begin());
  const std::uint64_t replay_cycles =
      setup.recording.schedule.final_result.cycles;
  while (std::getline(lines, line)) {
    const std::vector<std::string> fields = split(line, ',');
    const std::string outcome = at < fields.size() ? fields[at] : "";
    const bool judged =
        outcome == "masked" || outcome == "detected" || outcome == "sdc";
    counts.attempted += 1;
    // An outcome-mode trial replays the recording to its end before it is
    // judged.
    if (judged) counts.sim_cycles += replay_cycles;
    if (judged || outcome == "undecodable-image") counts.classified += 1;
    if (outcome == "error" || outcome == "core-count-mismatch" ||
        outcome.empty()) {
      counts.failed += 1;
    }
  }
  return counts;
}

std::string cross_check(const Setup& setup, const Output& output) {
  if (setup.kind != Kind::kCohort) return {};
  const std::size_t n = std::min(kScalarCrossCheck, setup.specs.size());
  const std::vector<RunSpec> head(
      setup.specs.begin(),
      setup.specs.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<RunRecord> scalar =
      Engine(setup.registry, serial_engine()).run(head);
  std::istringstream lines(output.csv);
  std::string line;
  std::getline(lines, line);  // the header
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(lines, line) || line != to_csv_row(scalar[i])) {
      return "cohort: batch row " + std::to_string(i) +
             " differs from the scalar Engine's";
    }
  }
  return {};
}

Output run_traced(const Setup& setup, const std::string& dir, Tracer& tracer,
                  Counters& counters) {
  switch (setup.kind) {
    case Kind::kPaper8:
      return traced_paper8(setup, dir, tracer, counters);
    case Kind::kSleepgenWide:
      return traced_engine(setup, tracer, counters);
    case Kind::kCohort:
      return traced_cohort(setup, tracer, counters);
    case Kind::kCampaign:
      return traced_campaign(setup, dir, tracer, counters);
  }
  throw std::logic_error("unknown workload");
}

std::uint64_t digest(std::string_view text) {
  return fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

}  // namespace perfbench
