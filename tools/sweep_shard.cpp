// sweep_shard: cross-process sharded sweeps and fault campaigns over the
// indexed-job spool (scenario/spool.h), reachable through either spool
// transport (scenario/transport.h):
//
//   --spool DIR          the on-disk spool, claims by atomic rename
//   --connect HOST:PORT  a `sweep_shard serve` coordinator on another
//                        machine; workers stream rows back over TCP
//
//   sweep_shard plan   --spool DIR [matrix flags] [--shards K] [--costs a,b]
//       Expands the matrix and serializes it into shard bundles under DIR;
//       simulates nothing. Each spec's --horizons fan-out stays on one
//       shard, where a worker runs it once. --costs feeds measured per-run
//       wall times (cost files or earlier spools) into the scheduler:
//       shards are sized by predicted seconds instead of spec count and
//       numbered heaviest-first, so workers claim the long poles first.
//   sweep_shard plan   --campaign --spool DIR [campaign flags] [--shards K]
//       Plans a *fault campaign* spool instead (scenario/resilience.h).
//       work/merge/status read the spool's kind from its manifest header —
//       the same commands drive both kinds over both transports.
//   sweep_shard serve  --spool DIR [--port P] [--lease S]
//       The TCP coordinator: owns DIR and leases its shards to --connect
//       workers. Claims of vanished workers (dropped connection or a
//       lease idle past S seconds) re-queue automatically, keeping their
//       partial rows. Writes the bound port to DIR/PORT; runs until
//       killed.
//   sweep_shard work   [--spool DIR | --connect H:P] [--worker-id X]
//                      [--resume] [--ring-stride N] [--ring-keep K]
//                      [--max-shards M] [--record-events DIR] [--jobs N]
//       Claims shards and executes them until the queue is empty. Run any
//       number of workers concurrently. --resume re-queues orphaned
//       claims of dead workers and reuses their finished rows. --ring-*
//       and --record-events apply to sweep spools, --jobs to campaign
//       spools; passing one the spool's kind ignores is an error.
//   sweep_shard merge  [--spool DIR | --connect H:P] --out FILE
//       Assembles the parts into one CSV, byte-identical to a
//       single-process `sweep_shard run` of the same matrix.
//   sweep_shard status [--spool DIR | --connect H:P] [--json]
//       Per-shard progress; over --connect additionally per-worker
//       throughput and an ETA. Exits 2 while the spool is incomplete.
//   sweep_shard run    --out FILE [--jobs N] [--batch] [matrix flags]
//                      [--record-events DIR]
//       The single-process reference: runs the same matrix in this
//       process and writes its CSV. CI diffs this against `merge`.
//
// Every subcommand answers --help with its flag table; unknown flags are
// one-line errors, not silent no-ops.

#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scenario/batch.h"
#include "scenario/cli.h"
#include "scenario/record.h"
#include "scenario/report.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/spool.h"
#include "scenario/transport.h"
#include "util/cli.h"
#include "util/file.h"

namespace {

using namespace ulpsync;
using namespace ulpsync::scenario;
using cli::Flag;
using cli::FlagTable;

/// Appends `more` to `table.flags`, skipping names already present (the
/// matrix and campaign vocabularies overlap on --samples/--max-cycles/
/// --energy-mhz).
FlagTable with_flags(FlagTable table, const std::vector<Flag>& more) {
  for (const Flag& flag : more) {
    bool present = false;
    for (const Flag& existing : table.flags) {
      if (existing.name == flag.name) present = true;
    }
    if (!present) table.flags.push_back(flag);
  }
  return table;
}

std::vector<Flag> transport_flags() {
  return {
      {"spool", "DIR", "the on-disk spool directory"},
      {"connect", "HOST:PORT", "reach the spool through `sweep_shard serve`"},
  };
}

/// The transport the command drives: exactly one of --spool / --connect.
std::unique_ptr<SpoolTransport> transport_from_flags(
    const util::CliArgs& args) {
  const std::string spool = args.get("spool", "");
  const std::string connect = args.get("connect", "");
  if (!spool.empty() && !connect.empty()) {
    throw std::runtime_error(
        "pass --spool DIR or --connect HOST:PORT, not both");
  }
  if (!connect.empty()) {
    const TcpEndpoint endpoint = parse_endpoint(connect);
    return std::make_unique<TcpTransport>(endpoint.host, endpoint.port);
  }
  if (spool.empty()) {
    throw std::runtime_error(
        "missing required --spool flag (or --connect HOST:PORT)");
  }
  return std::make_unique<FsTransport>(spool);
}

/// Renders --help (returning true) when asked; otherwise rejects unknown
/// flags so a typo can never silently change a plan.
bool handle_help(const FlagTable& table, const util::CliArgs& args) {
  if (args.has("help")) {
    std::fputs(table.render().c_str(), stdout);
    return true;
  }
  table.require_known(args);
  return false;
}

int cmd_plan(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard plan",
      "expand the matrix (or a fault campaign) into a shard spool",
      {
          {"spool", "DIR", "spool directory to create (required)"},
          {"shards", "K", "shard count (default 4)"},
          {"costs", "a,b", "cost feedback: cost files or earlier spools"},
          {"campaign", "", "plan a fault-campaign spool instead"},
      }};
  table = with_flags(std::move(table), cli::matrix_flags());
  table = with_flags(std::move(table), cli::campaign_flags());
  if (handle_help(table, args)) return 0;

  const std::string spool = cli::require_flag(args, "spool");
  if (args.has("campaign")) {
    const Registry& registry = Registry::builtins();
    const RecordedRun run = acquire_campaign_run(args, registry);
    const CampaignConfig config = campaign_config_from_flags(args);
    CampaignSpoolOptions options;
    options.shards = static_cast<unsigned>(args.get_int("shards", 4));
    const CampaignPlanResult plan =
        plan_campaign_spool(spool, run, config, registry, options);
    std::printf("planned campaign: %zu fault(s) into %u shard(s) at %s "
                "(fingerprint %016" PRIx64 ")\n",
                plan.faults, plan.shards, spool.c_str(), plan.fingerprint);
    return 0;
  }
  const std::vector<RunSpec> specs = cli::matrix_specs_from_flags(args);
  SpoolOptions options;
  options.shards = static_cast<unsigned>(args.get_int("shards", 4));
  options.costs = load_cost_model(cli::split_list(args.get("costs", "")));
  const PlanResult plan =
      plan_spool(spool, specs, Registry::builtins(), options);
  std::printf("planned %zu specs into %u shards at %s "
              "(fingerprint %016" PRIx64 ")\n",
              plan.specs, plan.shards, spool.c_str(), plan.fingerprint);
  if (!options.costs.empty()) {
    std::printf("cost-model schedule: %zu spec identit(ies), "
                "%zu workload rate(s)\n",
                options.costs.by_spec.size(),
                options.costs.by_workload.size());
  }
  return 0;
}

int cmd_work(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard work",
      "claim and execute shards until the queue drains",
      {
          {"worker-id", "X", "recorded as the claim owner (default: pid)"},
          {"resume", "", "re-queue orphaned claims of dead workers first"},
          {"ring-stride", "N", "sweeps: checkpoint-ring stride (0 = off)"},
          {"ring-keep", "K", "sweeps: checkpoints kept per ring (default 4)"},
          {"max-shards", "M", "stop after M shards (0 = drain)"},
          {"record-events", "DIR", "sweeps: record every run's schedule"},
          {"jobs", "N", "campaigns: trial threads per shard"},
      }};
  table = with_flags(std::move(table), transport_flags());
  if (handle_help(table, args)) return 0;

  const std::unique_ptr<SpoolTransport> transport = transport_from_flags(args);
  const SpoolManifest manifest = read_spool_manifest(*transport);
  // The kind decides which knobs apply; a knob the kind ignores is an
  // error, never a silent no-op.
  const std::vector<const char*> foreign =
      manifest.campaign
          ? std::vector<const char*>{"ring-stride", "ring-keep",
                                     "record-events"}
          : std::vector<const char*>{"jobs"};
  for (const char* flag : foreign) {
    if (args.has(flag)) {
      throw std::runtime_error(std::string("--") + flag +
                               " does not apply to a " +
                               (manifest.campaign ? "campaign" : "sweep") +
                               " spool");
    }
  }
  std::unique_ptr<SpoolJob> job;
  if (manifest.campaign) {
    job = campaign_job(*transport, manifest, Registry::builtins());
  } else {
    WorkOptions options;
    options.ring_stride =
        static_cast<std::uint64_t>(args.get_int("ring-stride", 0));
    options.ring_keep = static_cast<unsigned>(args.get_int("ring-keep", 4));
    options.record_dir = args.get("record-events", "");
    job = sweep_job(*transport, manifest, Registry::builtins(), options);
  }
  const WorkReport report = drain_spool(
      *transport, *job, args.get("worker-id", ""), args.has("resume"),
      static_cast<std::size_t>(args.get_int("max-shards", 0)),
      manifest.campaign ? cli::jobs_from_flags(args, 1) : 1);
  std::printf("worker done: %zu shard(s), %zu %s executed, %zu row(s) "
              "reused\n",
              report.shards_completed, report.runs_executed,
              manifest.campaign ? "trial(s)" : "row(s)", report.rows_reused);
  return 0;
}

int cmd_merge(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard merge",
      "assemble the finished parts into the sweep's CSV",
      {
          {"out", "FILE", "merged CSV destination (required)"},
      }};
  table = with_flags(std::move(table), transport_flags());
  if (handle_help(table, args)) return 0;

  const std::string out_path = cli::require_flag(args, "out");
  const std::unique_ptr<SpoolTransport> transport = transport_from_flags(args);
  util::write_file_atomic(out_path, merge_spool(*transport));
  std::printf("merged %s -> %s\n", transport->describe().c_str(),
              out_path.c_str());
  return 0;
}

int cmd_status(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard status",
      "per-shard progress; exits 2 while the spool is incomplete",
      {
          {"json", "", "machine-readable status (one schema, both transports)"},
      }};
  table = with_flags(std::move(table), transport_flags());
  if (handle_help(table, args)) return 0;

  const std::unique_ptr<SpoolTransport> transport = transport_from_flags(args);
  const TransportStatus status = transport->status();
  if (args.has("json")) {
    std::fputs(status_json(status).c_str(), stdout);
    return status.spool.complete() ? 0 : 2;
  }
  std::printf("%s %s: %zu %s, %zu shards, fingerprint %016" PRIx64 "%s\n",
              status.campaign ? "campaign spool" : "spool",
              transport->describe().c_str(), status.spool.specs,
              status.campaign ? "faults" : "specs",
              status.spool.shards.size(), status.spool.fingerprint,
              status.spool.complete() ? " (complete)" : "");
  for (const ShardState& shard : status.spool.shards) {
    std::printf("  shard %04u: %-7s %zu spec(s), part %s",
                shard.id, shard.state.c_str(), shard.specs,
                shard.part_final
                    ? "final"
                    : (std::to_string(shard.partial_rows) + " partial row(s)")
                          .c_str());
    if (!shard.owner.empty()) std::printf(", owner %s", shard.owner.c_str());
    std::printf("\n");
  }
  std::printf("  rows done %zu/%zu, queue depth %zu\n", status.rows_done,
              status.spool.specs, status.queue_depth);
  for (const WorkerRate& worker : status.workers) {
    std::printf("  worker %s: %zu row(s), %.3f rows/s\n",
                worker.worker.c_str(), worker.rows, worker.rows_per_second);
  }
  if (status.eta_seconds >= 0.0) {
    std::printf("  eta %.1fs\n", status.eta_seconds);
  }
  return status.spool.complete() ? 0 : 2;
}

int cmd_serve(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard serve",
      "TCP coordinator: lease this spool's shards to --connect workers",
      {
          {"spool", "DIR", "the planned spool to serve (required)"},
          {"port", "P", "listen port (default 0 = ephemeral, see DIR/PORT)"},
          {"lease", "S", "seconds of silence before a claim re-queues "
                         "(default 300)"},
      }};
  if (handle_help(table, args)) return 0;

  const std::string spool = cli::require_flag(args, "spool");
  {
    FsTransport probe(spool);
    (void)probe.manifest_text();  // fail fast on an unplanned spool
  }
  SpoolServer::Options options;
  options.port = static_cast<int>(args.get_int("port", 0));
  options.lease_seconds = args.get_double("lease", 300.0);
  SpoolServer server(spool, options);
  server.start();
  // Ephemeral ports are the CI-friendly default; the PORT file is how
  // sibling processes discover what was actually bound.
  util::write_file_atomic(spool + "/PORT",
                          std::to_string(server.port()) + "\n");
  std::printf("serving %s on port %d (lease %.0fs)\n", spool.c_str(),
              server.port(), options.lease_seconds);
  std::fflush(stdout);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

int cmd_run(const util::CliArgs& args) {
  FlagTable table{
      "sweep_shard run",
      "single-process reference sweep (what merge must reproduce)",
      {
          {"out", "FILE", "CSV destination (required)"},
          {"jobs", "N", "worker threads (0 = all host cores)"},
          {"batch", "", "run on the batched many-platform engine"},
          {"record-events", "DIR", "record every run's event schedule to DIR"},
      }};
  table = with_flags(std::move(table), cli::matrix_flags());
  if (handle_help(table, args)) return 0;

  const std::string out_path = cli::require_flag(args, "out");
  std::vector<RunSpec> specs = cli::matrix_specs_from_flags(args);
  const EngineOptions options = engine_options_from(args);
  const std::string record_dir = args.get("record-events", "");
  if (!record_dir.empty()) {
    // Record every run's external-event schedule to
    // <dir>/run-<index>.evt — the same layout `work --record-events`
    // produces, keyed by the spec's position in the expanded matrix.
    std::filesystem::create_directories(record_dir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].record_events_to =
          record_dir + "/run-" + std::to_string(i) + ".evt";
    }
  }
  std::vector<RunRecord> records;
  if (args.has("batch")) {
    // The batched many-platform engine (scenario/batch.h); records are
    // byte-identical to the scalar engine's, so `run --batch` vs `run`
    // vs `merge` CSV comparisons are exact determinism checks.
    BatchOptions batch_options;
    batch_options.jobs = options.jobs;
    const BatchEngine engine(Registry::builtins(), batch_options);
    BatchResult result = engine.run(specs);
    std::printf("batch: %zu group(s), %zu batched run(s), %zu scalar, "
                "%zu diverged lane(s)\n",
                result.stats.groups, result.stats.batched_runs,
                result.stats.scalar_runs, result.stats.diverged_lanes);
    records = std::move(result.records);
  } else {
    const Engine engine(Registry::builtins(), options);
    records = engine.run(specs);
  }
  util::write_file_atomic(out_path, to_csv(records));
  std::printf("ran %zu spec(s) -> %s\n", records.size(), out_path.c_str());
  return 0;
}

constexpr const char* kUsage =
    "usage: sweep_shard <plan|serve|work|merge|status|run> [flags]\n"
    "run `sweep_shard <command> --help` for the command's flag table\n";

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    if (args.has("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string& command = args.positional().front();
  try {
    if (command == "plan") return cmd_plan(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "work") return cmd_work(args);
    if (command == "merge") return cmd_merge(args);
    if (command == "status") return cmd_status(args);
    if (command == "run") return cmd_run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_shard: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s' (see `sweep_shard --help`)\n",
               command.c_str());
  return 1;
}
