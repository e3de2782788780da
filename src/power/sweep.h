#pragma once

/// Workload sweep engine: reproduces the Fig. 3 curves.
///
/// The paper plots total power against delivered workload (MOps/s) with
/// voltage scaling: for a required workload W, the design runs at the
/// frequency f = W / (Ops/cycle) and at the lowest supply voltage that
/// sustains f; dynamic power scales with f·V², static power with the
/// supply. The curve ends at the design's maximum workload
/// W_max = (Ops/cycle) · f_nominal — the point where no voltage headroom is
/// left. A design with higher Ops/cycle (the synchronized one) reaches any
/// fixed workload at a lower f and V, which is where the 64%/56%/55%
/// savings come from.

#include <cstdint>
#include <optional>
#include <vector>

#include "power/model.h"
#include "power/scaling.h"

namespace ulpsync::power {

/// A design characterized by one benchmark run: per-cycle energies plus the
/// achieved application throughput per cycle.
struct DesignCharacterization {
  EnergyPerCycle energy;      ///< per-cycle component energies at 1.2 V
  double ops_per_cycle = 0.0; ///< application (useful) ops per clock cycle
};

/// Builds a characterization from a finished run.
[[nodiscard]] DesignCharacterization characterize(
    const EnergyParams& params, const sim::EventCounters& counters,
    const core::SynchronizerStats& sync_stats, std::uint64_t useful_ops);

struct OperatingPoint {
  double mops = 0.0;     ///< workload (useful MOps/s)
  double f_mhz = 0.0;    ///< required clock
  double voltage = 0.0;  ///< chosen supply
  PowerBreakdown breakdown;
};

/// One resolved per-record energy report: the run's per-cycle energies
/// scaled to a concrete (f, V) operating point. This is what the scenario
/// engine derives when a `RunSpec` carries an energy request; every field
/// is a pure function of the run's exact event counters and the requested
/// point, so reports are bit-identical across every execution mode that
/// keeps the counters bit-identical (the region executor, the batch
/// engine, sharded workers, replay).
struct EnergyReport {
  /// False when the requested point is unreachable (the clock exceeds the
  /// nominal-voltage maximum, or an explicit supply cannot sustain it);
  /// the power fields are all zero then and only `f_mhz`/`voltage` echo
  /// the request.
  bool feasible = false;
  double f_mhz = 0.0;    ///< resolved operating clock (MHz)
  double voltage = 0.0;  ///< resolved supply (V)
  double mops = 0.0;     ///< delivered useful workload at f (MOps/s)
  PowerBreakdown breakdown;
  /// Total energy per useful operation at the point (pJ/op).
  double energy_per_op_pj = 0.0;
  /// Whole-run energy at the point: total power times the run's wall time
  /// at f (µJ).
  double total_energy_uj = 0.0;
};

/// Resolves an energy report for a finished run (see `EnergyReport`).
/// `f_mhz == 0` selects the scaling model's nominal maximum frequency;
/// `voltage == 0` selects the lowest supply that sustains the clock.
/// An explicit supply below what the clock needs makes the point
/// infeasible rather than silently over-clocking it.
[[nodiscard]] EnergyReport energy_report(const EnergyPerCycle& energy,
                                         double ops_per_cycle,
                                         std::uint64_t cycles, double f_mhz,
                                         double voltage,
                                         const VoltageScaling& scaling);

class WorkloadSweep {
 public:
  WorkloadSweep(DesignCharacterization design, VoltageScaling scaling)
      : design_(design), scaling_(scaling) {}

  /// Maximum sustainable workload (MOps/s) at the nominal voltage.
  [[nodiscard]] double max_mops() const {
    return design_.ops_per_cycle * scaling_.nominal_fmax_mhz();
  }

  /// Operating point at a given workload, or nullopt when infeasible.
  [[nodiscard]] std::optional<OperatingPoint> at(double mops) const;

  /// Log-spaced curve from `from_mops` to this design's maximum,
  /// `points_per_decade` samples per decade, always including the endpoint.
  [[nodiscard]] std::vector<OperatingPoint> curve(double from_mops,
                                                  unsigned points_per_decade) const;

  [[nodiscard]] const DesignCharacterization& design() const { return design_; }
  [[nodiscard]] const VoltageScaling& scaling() const { return scaling_; }

 private:
  DesignCharacterization design_;
  VoltageScaling scaling_;
};

}  // namespace ulpsync::power
