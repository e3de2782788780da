// design_search: energy-first Pareto-frontier search over the platform
// design space (scenario/design_search.h).
//
//   design_search --out FILE [options]
//
// Runs a successive-halving search over cores × banking × arbitration ×
// design × operating clock, writes the deterministic frontier CSV to
// --out, and prints the knee — the cheapest design point that still meets
// the throughput target (the paper's chosen 8-core synchronized design
// under the default options). The frontier bytes are identical for any
// --jobs value; CI diffs two concurrent searches to prove it.
//
// Options (defaults are the golden-fixture configuration):
//   --workload W        registry name                 (default mrpfltr)
//   --samples N         samples per channel           (default 48)
//   --designs both|synchronized|baseline              (default both)
//   --cores c1,c2       candidate core counts         (default 2,4,8)
//   --banking l1,l2     candidate im_line_slots       (default 0,16)
//   --arbitration a,b   fixed-priority|oldest-first|round-robin
//   --clocks f1,f2      operating-clock grid, MHz     (default 5,10,20,40,60,80)
//   --rungs c1,c2,...   halving horizons, cycles      (default 8000,32000,5e8)
//   --checkpoint-at N   shared warm prefix; 0 = half the first rung
//   --target-mops X     knee throughput target        (default 16)
//   --cap N             per-rung survivor cap; 0 off  (default 32)
//   --jobs N            engine threads (never changes the frontier)

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "scenario/cli.h"
#include "scenario/design_search.h"
#include "scenario/registry.h"
#include "util/cli.h"
#include "util/file.h"

namespace {

using namespace ulpsync;
using namespace ulpsync::scenario;

cli::FlagTable flag_table() {
  return cli::FlagTable{
      "design_search",
      "energy-first Pareto-frontier search over the design space",
      {
          {"out", "FILE", "frontier CSV destination (required)"},
          {"workload", "W", "registry name (default mrpfltr)"},
          {"samples", "N", "samples per channel (default 48)"},
          {"designs", "WHICH", "both|synchronized|baseline (default both)"},
          {"cores", "c1,c2", "candidate core counts (default 2,4,8)"},
          {"banking", "l1,l2", "candidate im_line_slots (default 0,16)"},
          {"arbitration", "a,b", "fixed-priority|oldest-first|round-robin"},
          {"clocks", "f1,f2", "operating-clock grid, MHz"},
          {"rungs", "c1,c2", "halving horizons, cycles"},
          {"checkpoint-at", "N", "shared warm prefix; 0 = half the first rung"},
          {"target-mops", "X", "knee throughput target (default 16)"},
          {"cap", "N", "per-rung survivor cap; 0 off (default 32)"},
          {"jobs", "N", "engine threads (never changes the frontier)"},
      }};
}

SearchOptions options_from_flags(const util::CliArgs& args) {
  SearchOptions options;
  options.workload = args.get("workload", options.workload);
  options.samples =
      static_cast<unsigned>(args.get_int("samples", options.samples));
  const std::vector<DesignVariant> designs =
      cli::designs_from_flag(args.get("designs", "both"));
  if (!designs.empty()) options.designs = designs;
  if (args.has("cores")) {
    options.cores = cli::parse_unsigned_list(args.get("cores", ""), "cores");
  }
  if (args.has("banking")) {
    options.banking =
        cli::parse_unsigned_list(args.get("banking", ""), "banking");
  }
  if (args.has("arbitration")) {
    options.arbitration.clear();
    for (const std::string& value :
         cli::split_list(args.get("arbitration", ""))) {
      options.arbitration.push_back(cli::arbitration_from_flag(value));
    }
  }
  if (args.has("clocks")) {
    options.clocks_mhz =
        cli::parse_double_list(args.get("clocks", ""), "clocks");
  }
  if (args.has("rungs")) {
    options.rungs = cli::parse_u64_list(args.get("rungs", ""), "rungs");
  }
  options.checkpoint_at = static_cast<std::uint64_t>(
      args.get_int("checkpoint-at", static_cast<long>(options.checkpoint_at)));
  options.target_mops = args.get_double("target-mops", options.target_mops);
  options.survivor_cap = static_cast<std::size_t>(
      args.get_int("cap", static_cast<long>(options.survivor_cap)));
  options.jobs = cli::jobs_from_flags(args, options.jobs);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.has("help")) {
    std::fputs(flag_table().render().c_str(), stdout);
    return 0;
  }
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "usage: design_search --out FILE [options]\n");
    return 1;
  }
  try {
    flag_table().require_known(args);
    const SearchOptions options = options_from_flags(args);
    const SearchResult result =
        design_search(Registry::builtins(), options);

    util::write_file_atomic(out_path, frontier_csv(options.workload, result));

    std::printf("design_search: %zu candidate(s), %zu run(s), "
                "%zu warm-resumed, frontier %zu point(s) -> %s\n",
                result.candidates, result.specs_executed, result.warm_resumed,
                result.frontier.size(), out_path.c_str());
    for (const RungStats& stats : result.rungs) {
      std::printf("  rung %9llu cycles: %zu -> %zu point(s)\n",
                  static_cast<unsigned long long>(stats.horizon),
                  stats.points_in, stats.survivors);
    }
    if (result.knee_index >= 0) {
      const FrontierPoint& knee =
          result.frontier[static_cast<std::size_t>(result.knee_index)];
      std::printf("  knee: %s, %u cores, %.3g MHz @ %.3g V — "
                  "%.3g MOps/s at %.3g mW (%.3g pJ/op)\n",
                  knee.candidate.design.label.c_str(), knee.candidate.cores,
                  knee.f_mhz, knee.voltage, knee.mops, knee.total_mw,
                  knee.energy_per_op_pj);
    } else {
      std::printf("  knee: no feasible point meets %.3g MOps/s\n",
                  options.target_mops);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "design_search: %s\n", error.what());
    return 1;
  }
}
