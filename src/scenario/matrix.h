#pragma once

/// Declarative run-matrix: the cross product of scenario axes — workload ×
/// design variant × core count × samples-per-channel × arbitration policy ×
/// IM line interleaving — expanded into concrete `RunSpec`s. Every paper
/// experiment (the Section V-B tables, the Fig. 3 sweeps, the ablations) is
/// one Matrix; adding an experiment means declaring its axes, not writing a
/// driver loop.
///
/// Unset axes keep the base parameters; the design axis defaults to both
/// synthesized designs. Expansion order is deterministic (axes nest in the
/// declaration order of the fields below, workload outermost), so record
/// order — and therefore serialized output — is identical no matter how
/// many engine threads execute the sweep.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ecg/cohort.h"
#include "scenario/spec.h"

namespace ulpsync::scenario {

/// Builder for the cross product of scenario axes (see the file comment);
/// every setter returns *this for chaining.
class Matrix {
 public:
  /// Single-workload axis (shorthand for `workloads({name})`).
  Matrix& workload(std::string name);
  /// Workload axis: registry names, expanded outermost.
  Matrix& workloads(std::vector<std::string> names);
  /// Base parameter block every expanded spec starts from.
  Matrix& base_params(const WorkloadParams& params);
  /// Design axis; defaults to {baseline, synchronized} when never set.
  Matrix& designs(std::vector<DesignVariant> variants);
  /// Single-design axis (shorthand for `designs({variant})`).
  Matrix& design(DesignVariant variant);
  /// Core-count axis (sets `params.num_channels`).
  Matrix& num_cores(std::vector<unsigned> cores);
  /// Samples-per-channel axis (sets `params.samples`).
  Matrix& samples(std::vector<unsigned> values);
  /// Crossbar arbitration-policy axis.
  Matrix& arbitration(std::vector<sim::ArbitrationPolicy> policies);
  /// IM bank-mapping axis; 0 selects pure block mapping.
  Matrix& im_line_slots(std::vector<unsigned> lines);
  /// Energy-report axis: every expanded spec fans out over these operating
  /// points (`RunSpec::energy`). The request never influences the
  /// simulation — points of one design share one engine run — it only
  /// adds the record's power columns at the requested (V, f).
  Matrix& energy(std::vector<EnergyRequest> points);
  /// Cycle budget applied to every expanded spec.
  Matrix& max_cycles(std::uint64_t budget);
  /// Patient-cohort axis, expanded innermost: every design/core/sample
  /// point fans out to `patients` specs whose generator parameters are the
  /// per-patient draws of `params` (see ecg/cohort.h) over the base
  /// generator. 0 disables the axis. The fan-out is a pure function of
  /// (params.seed, patient id), so `sweep_shard plan` and `run` expand to
  /// identical specs on different machines.
  Matrix& cohort(unsigned patients, const ecg::CohortParams& params = {});

  /// Number of specs `expand()` will produce.
  [[nodiscard]] std::size_t size() const;
  /// The cross product as concrete specs, in deterministic nesting order.
  [[nodiscard]] std::vector<RunSpec> expand() const;

 private:
  // Every axis is stored as the plain list the caller gave; an empty list
  // uniformly means "axis unset" and contributes one pass-through element
  // to the expansion (see expand()).
  std::vector<std::string> workloads_;
  WorkloadParams base_params_{};
  std::vector<DesignVariant> designs_;
  std::vector<unsigned> num_cores_;
  std::vector<unsigned> samples_;
  std::vector<sim::ArbitrationPolicy> arbitration_;
  std::vector<unsigned> im_line_slots_;
  std::vector<EnergyRequest> energy_;
  std::uint64_t max_cycles_ = 500'000'000;
  unsigned cohort_patients_ = 0;  ///< 0 = cohort axis unset
  ecg::CohortParams cohort_params_{};
};

}  // namespace ulpsync::scenario
