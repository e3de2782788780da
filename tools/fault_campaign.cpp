// fault_campaign: resilience studies on recorded event schedules.
//
// Records one run (or loads a recorded-run envelope), expands a
// deterministic fault campaign (scenario/resilience.h), injects every
// fault into a replayed copy of the run, classifies the outcomes, and
// writes the campaign CSV plus an optional aggregated resilience report.
//
//   fault_campaign --out FILE [--report FILE]
//                  [--workload NAME] [--samples N]
//                  [--design auto|synchronized|baseline|xbar]
//                  [--max-cycles N] [--evt FILE]
//                  [--faults dm,dm-multi,dm-burst,dm-row,im,
//                            wake-delay,wake-drop,rate]
//                  [--count N] [--seed S] [--jobs N]
//                  [--mode outcome|localize] [--stride N]
//                  [--volts 0.5,0.7,1.0] [--energy-mhz F]
//                  [--rate-scale X] [--retention-v V]
//                  [--rate-p-nominal P] [--rate-sensitivity S]
//                  [--multi-bits N] [--burst-words N] [--row-words N]
//                  [--require-localized N] [--require-classified N]
//
// Error models (--faults, comma list; --count per class except `rate`):
//   dm          flip one bit of one recorded DM deposit word
//   dm-multi    flip --multi-bits adjacent bits of one word
//   dm-burst    flip the same bit across --burst-words adjacent words
//   dm-row      flip one bit across a whole --row-words-aligned row
//   im          flip one bit of one encoded instruction word before load
//   wake-delay  deliver one recorded wake-up interrupt late
//   wake-drop   never deliver one recorded wake-up interrupt
//   rate        voltage-tied per-bit upsets over every recorded deposit:
//               the per-bit probability comes from power::RetentionModel
//               at the campaign point's voltage (--volts, or the supply
//               that sustains --energy-mhz per power::VoltageScaling),
//               scaled by --rate-scale. Lower voltage => strictly no
//               fewer injected faults (monotone coupling).
//
// Modes (--mode):
//   outcome   (default) classify each fault masked / detected / sdc
//             against the clean replay's final state — one replay per
//             trial; what the resilience report aggregates.
//   localize  checkpoint-stride bisection to the cycle a fault first
//             reaches a core (outcomes localized / masked).
//
// The clean replay is one checkpoint series, a snapshot every --stride
// cycles (default 4096): DM and wake trials start at the last checkpoint
// before their fault, and an outcome-mode trial stops as masked once its
// state equals the clean run's at a checkpoint. The outcome CSV is the
// same at any stride; a localize verdict can depend on it.
//
// Gates: --require-localized N exits nonzero unless at least N faults
// localized (it gates only; select the bisection with --mode localize);
// --require-classified N likewise for rows whose outcome is
// masked/detected/sdc/localized/undecodable-image — the CI smoke gates.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "scenario/cli.h"
#include "scenario/registry.h"
#include "scenario/resilience.h"
#include "util/cli.h"
#include "util/file.h"

namespace {

using namespace ulpsync;
using namespace ulpsync::scenario;

cli::FlagTable flag_table() {
  cli::FlagTable table{
      "fault_campaign",
      "inject a deterministic fault campaign into a recorded run",
      {
          {"out", "FILE", "campaign CSV destination (required)"},
          {"report", "FILE", "aggregated resilience report CSV"},
          {"jobs", "N", "trial threads (default 0 = all host cores)"},
          {"require-localized", "N", "exit nonzero unless >= N localized"},
          {"require-classified", "N", "exit nonzero unless >= N classified"},
      }};
  for (const cli::Flag& flag : cli::campaign_flags()) {
    table.flags.push_back(flag);
  }
  return table;
}

int run_tool(const util::CliArgs& args) {
  const cli::FlagTable table = flag_table();
  if (args.has("help")) {
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }
  table.require_known(args);
  const std::string out_path = cli::require_flag(args, "out");

  const Registry& registry = Registry::builtins();
  const RecordedRun run = acquire_campaign_run(args, registry);
  const CampaignConfig config = campaign_config_from_flags(args);
  const unsigned jobs = cli::jobs_from_flags(args, 0);

  const std::vector<FaultTrialRow> rows =
      run_campaign(run, registry, config, jobs);
  util::write_file_atomic(out_path, campaign_csv(rows));

  const std::string report_path = args.get("report", "");
  if (!report_path.empty()) {
    util::write_file_atomic(report_path, aggregate_resilience(rows).to_csv());
  }

  std::size_t localized = 0;
  std::size_t classified = 0;
  std::size_t masked = 0;
  std::size_t detected = 0;
  std::size_t sdc = 0;
  for (const FaultTrialRow& row : rows) {
    if (row.outcome == "localized") ++localized;
    if (row.outcome == "masked") ++masked;
    if (row.outcome == "detected") ++detected;
    if (row.outcome == "sdc") ++sdc;
    if (row.outcome == "masked" || row.outcome == "detected" ||
        row.outcome == "sdc" || row.outcome == "localized" ||
        row.outcome == "undecodable-image") {
      ++classified;
    }
  }
  std::printf(
      "campaign: %zu fault(s), %zu masked, %zu detected, %zu sdc, "
      "%zu localized -> %s\n",
      rows.size(), masked, detected, sdc, localized, out_path.c_str());

  const auto required_localized =
      static_cast<std::size_t>(args.get_int("require-localized", 0));
  if (localized < required_localized) {
    std::fprintf(stderr,
                 "fault_campaign: only %zu of the required %zu fault(s) "
                 "localized\n",
                 localized, required_localized);
    return 1;
  }
  const auto required_classified =
      static_cast<std::size_t>(args.get_int("require-classified", 0));
  if (classified < required_classified) {
    std::fprintf(stderr,
                 "fault_campaign: only %zu of the required %zu fault(s) "
                 "classified\n",
                 classified, required_classified);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    return run_tool(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fault_campaign: %s\n", error.what());
    return 1;
  }
}
