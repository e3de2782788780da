// Duty-cycled streaming monitor: the deployment mode the paper's platform
// is built for. The "streaming" workload (built into the registry) owns the
// host loop — its windowed drive feeds one acquisition window per wake-up
// and wakes the cores by external interrupt — so a two-spec Matrix compares
// both designs' busy/sleep duty cycle, and the host projects battery life.
//
// Kernel per window: detrend the channel by its window mean, then count
// threshold crossings (a data-dependent scan — the divergence source).

#include <algorithm>
#include <cstdio>
#include <string>

#include "power/scaling.h"
#include "power/sweep.h"
#include "scenario/report.h"

int main(int argc, char** argv) {
  using namespace ulpsync;
  using namespace ulpsync::scenario;
  const util::CliArgs args(argc, argv);
  // The workload runs at least one window; mirror that here so the
  // per-window averages below never divide by zero.
  const unsigned windows = std::max(
      1u, static_cast<unsigned>(args.get_int("windows", 20)));
  constexpr unsigned kWindow = 125;          // samples per window @ 250 Hz
  constexpr double kWindowPeriodS = 0.5;     // acquisition period

  WorkloadParams params;
  params.samples = windows * kWindow;  // the workload derives window count

  std::printf("Duty-cycled streaming monitor: %u windows of %u samples "
              "(%.1f s of signal)\n\n", windows, kWindow,
              windows * kWindow / 250.0);

  const Engine engine(Registry::builtins(), engine_options_from(args));
  const auto records =
      engine.run(Matrix().workload("streaming").base_params(params));
  require_ok(records);

  const power::VoltageScaling scaling{power::VoltageParams{}};
  for (const auto& record : records) {
    const auto busy_cycles = std::stoull(std::string(record.extra_value("busy_cycles")));
    std::printf("%-18s: %8.0f busy cycles/window, counts[ch0..7] = %s",
                record.spec.design.label.c_str(),
                static_cast<double>(busy_cycles) / windows,
                std::string(record.extra_value("counts")).c_str());

    // Power at the real-time rate: the window's work must finish within the
    // acquisition period; run at the slowest voltage/frequency that does.
    const double mops_needed = static_cast<double>(record.useful_ops) /
                               (windows * kWindowPeriodS) / 1e6;
    const power::WorkloadSweep sweep(characterization(record), scaling);
    if (const auto point = sweep.at(mops_needed)) {
      // A 200 mAh @ 3 V coin cell, ideal conversion.
      const double battery_mwh = 200.0 * 3.0;
      std::printf("\n  real-time point: %.2f MOps/s -> %.2f MHz @ %.2f V, "
                  "%.3f mW, ~%.0f days on a 200 mAh cell\n",
                  point->mops, point->f_mhz, point->voltage,
                  point->breakdown.total_mw(),
                  battery_mwh / point->breakdown.total_mw() / 24.0);
    } else {
      std::printf("\n  real-time point infeasible!\n");
    }
  }
  return 0;
}
