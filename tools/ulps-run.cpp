// ulps-run: assemble a TR16 program and run it on the simulated platform.
//
//   ulps-run program.s                          synchronized design, 8 cores
//   ulps-run program.s --design baseline        the w/o-synchronizer design
//   ulps-run program.s --cores 4 --max-cycles 1000000
//   ulps-run program.s --instrument             auto-insert sync points
//   ulps-run program.s --timeline               print the last 120 cycles
//   ulps-run program.s --dump 0x800 16          print a DM block afterwards
//
// Prints the run outcome, performance counters, and synchronizer activity.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "asm/assembler.h"
#include "core/instrument.h"
#include "core/lockstep.h"
#include "sim/platform.h"
#include "sim/trace.h"
#include "sim/vcd.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace ulpsync;
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: ulps-run <source.s> [options]\n");
    return 1;
  }
  std::ifstream file(args.positional().front());
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", args.positional().front().c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto assembled = assembler::assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s", assembled.error_text().c_str());
    return 1;
  }
  assembler::Program program = std::move(assembled.program);
  if (args.has("instrument")) {
    auto instrumented = core::auto_instrument(program, core::InstrumentOptions{});
    if (!instrumented.ok()) {
      std::fprintf(stderr, "instrumentation failed: %s\n", instrumented.error.c_str());
      return 1;
    }
    program = std::move(instrumented.program);
  }

  const bool baseline = args.get("design", "synchronized") == "baseline";
  auto config = baseline ? sim::PlatformConfig::without_synchronizer()
                         : sim::PlatformConfig::with_synchronizer();
  config.num_cores = static_cast<unsigned>(args.get_int("cores", 8));

  sim::Platform platform(config);
  try {
    platform.load_program(program);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  sim::TimelineTracer tracer;
  core::LockstepAnalyzer analyzer;
  std::ofstream vcd_file;
  sim::VcdWriter vcd(vcd_file);
  if (args.has("vcd")) {
    vcd_file.open(args.get("vcd", "run.vcd"));
    vcd.attach(platform);
  } else if (args.has("timeline")) {
    tracer.attach(platform);
  } else {
    analyzer.attach(platform);
  }

  const auto result = platform.run(
      static_cast<std::uint64_t>(args.get_int("max-cycles", 100'000'000)));
  if (args.has("vcd")) {
    vcd.finish();
    std::printf("waveform written to %s\n", args.get("vcd", "run.vcd").c_str());
  }
  const auto& counters = platform.counters();

  std::printf("result: %s\n", result.to_string().c_str());
  std::printf("cycles: %llu   retired ops: %llu   ops/cycle: %.2f\n",
              static_cast<unsigned long long>(counters.cycles),
              static_cast<unsigned long long>(counters.retired_ops),
              counters.ops_per_cycle());
  std::printf("IM bank accesses: %llu (broadcast fraction %.0f%%)   "
              "DM accesses: %llu\n",
              static_cast<unsigned long long>(counters.im_bank_accesses),
              100.0 * counters.broadcast_fetch_fraction(),
              static_cast<unsigned long long>(counters.dm_bank_accesses));
  if (!baseline) {
    const auto& sync = platform.sync_stats();
    std::printf("synchronizer: %llu RMWs, %llu check-ins, %llu check-outs, "
                "%llu wake-ups\n",
                static_cast<unsigned long long>(sync.rmw_ops),
                static_cast<unsigned long long>(sync.checkins),
                static_cast<unsigned long long>(sync.checkouts),
                static_cast<unsigned long long>(sync.wakeup_events));
  }
  if (args.has("timeline")) {
    std::printf("\n%s", tracer.timeline().c_str());
  } else if (!args.has("vcd")) {
    std::printf("lockstep residency: %.1f%%\n",
                100.0 * analyzer.metrics().lockstep_fraction());
  }

  if (args.has("dump")) {
    const auto base = static_cast<std::uint32_t>(args.get_int("dump", 0));
    const auto count = args.positional().size() > 1
                           ? std::stoul(args.positional()[1])
                           : 16ul;
    std::printf("\nDM[0x%04x..]:", base);
    for (std::size_t i = 0; i < count; ++i)
      std::printf(" %u", platform.dm_read(base + static_cast<std::uint32_t>(i)));
    std::printf("\n");
  }
  return result.ok() ? 0 : 2;
}
