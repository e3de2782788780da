#pragma once

/// Energy-first design-space search (ROADMAP: adaptive search with energy
/// as a first-class objective).
///
/// The paper's evaluation answers one question: which platform design
/// reaches the required workload throughput at the lowest power? Instead
/// of expanding the full cores × banking × arbitration × design ×
/// operating-point cross product (a `Matrix` sweep), `design_search`
/// *steers* the sweep with successive halving:
///
///  * a **candidate** is a micro-architecture (design variant, core count,
///    IM banking, arbitration) — the axes that change the simulation;
///  * a **point** is a candidate at one operating clock. The operating
///    point never changes the simulation (the energy report is analytical
///    post-processing of the counters, see `RunSpec::energy`), so at one
///    rung all surviving points of one candidate are one of
///    `Engine::run_groups`: the engine simulates *one* run per candidate
///    per rung and harvests every point from it;
///  * **rungs** are growing cycle horizons. Every live point runs at the
///    rung's horizon; infeasible points (clock above the voltage model's
///    ceiling) and points slack-dominated in (throughput, power) are
///    pruned before the next, longer rung. The slack shrinks as horizons
///    grow — early estimates are noisy, the final rung prunes exactly.
///
/// The final rung's non-dominated points form the Pareto frontier; the
/// **knee** is the cheapest point that still meets the throughput target
/// (the paper's "chosen design": the 8-core synchronized platform). The
/// whole search is deterministic — same options, same registry, same
/// frontier CSV bytes, regardless of `jobs` — because pruning consumes
/// only record fields that are themselves bit-exact across engines.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/spec.h"

namespace ulpsync::scenario {

/// One micro-architectural search candidate: exactly the spec axes that
/// influence the simulation (the operating clock deliberately excluded).
struct DesignCandidate {
  DesignVariant design;
  unsigned cores = 8;
  unsigned im_line_slots = 16;
  sim::ArbitrationPolicy arbitration = sim::ArbitrationPolicy::kFixedPriority;
};

/// Knobs of `design_search`. The defaults are the golden-fixture
/// configuration (tests/golden/frontier_*.csv); every field participates
/// in the deterministic search, so fixtures pin them implicitly.
struct SearchOptions {
  std::string workload = "mrpfltr";
  unsigned samples = 48;
  /// Candidate axes, crossed in declaration order (design outermost).
  /// `designs` empty selects {baseline, synchronized}. Core counts above
  /// the synchronizer's 8-core ceiling are skipped for synchronized
  /// designs rather than reported as errors.
  std::vector<DesignVariant> designs;
  std::vector<unsigned> cores = {2, 4, 8};
  std::vector<unsigned> banking = {0, 16};  ///< im_line_slots values
  std::vector<sim::ArbitrationPolicy> arbitration = {
      sim::ArbitrationPolicy::kFixedPriority};
  /// Operating-clock grid (MHz). Clocks above the scaling model's nominal
  /// maximum are infeasible and pruned on the first rung.
  std::vector<double> clocks_mhz = {5.0, 10.0, 20.0, 40.0, 60.0, 80.0};
  /// Successive-halving horizons (cycles), strictly increasing. The last
  /// rung should exceed the workload's natural end so frontier rows are
  /// complete runs; earlier rungs truncate for cheap estimates.
  std::vector<std::uint64_t> rungs = {8'000, 32'000, 500'000'000};
  /// Throughput the knee must sustain (useful MOps/s at the operating
  /// clock). 16 MOps/s — 2 MOps/s per channel across the 8-channel ECG
  /// front-end — is the real-time requirement the paper's frequency
  /// scaling is anchored on; only the full 8-core synchronized platform
  /// sustains it at the voltage-scaling floor.
  double target_mops = 16.0;
  /// Per-rung survivor cap (safety valve, by ascending energy/op); 0
  /// disables. The default is generous — exact dominance does the work.
  std::size_t survivor_cap = 32;
  /// Engine worker threads; results are identical for any value.
  unsigned jobs = 1;
};

/// One Pareto-frontier point: a candidate resolved at its operating point.
struct FrontierPoint {
  DesignCandidate candidate;
  double f_mhz = 0.0;
  double voltage = 0.0;
  double mops = 0.0;          ///< useful MOps/s at the operating clock
  double total_mw = 0.0;      ///< whole-platform power at the point
  double energy_per_op_pj = 0.0;
  double total_energy_uj = 0.0;  ///< full run at the operating point
  bool knee = false;
};

/// Per-rung accounting (deterministic — what the bench profile gates).
struct RungStats {
  std::uint64_t horizon = 0;
  std::size_t points_in = 0;   ///< live points entering the rung
  std::size_t survivors = 0;   ///< points surviving its pruning
};

/// What one search produced.
struct SearchResult {
  /// Non-dominated points of the final rung, ascending by throughput.
  std::vector<FrontierPoint> frontier;
  /// Index of the knee in `frontier`, or -1 when no feasible point met
  /// the target (no row is marked in that case).
  std::ptrdiff_t knee_index = -1;
  std::vector<RungStats> rungs;
  std::size_t candidates = 0;       ///< micro-architectures enumerated
  std::size_t specs_executed = 0;   ///< specs (records) across all rungs
  /// Platform runs across all rungs: per rung, the size of
  /// `Engine::run_groups` of its specs.
  std::size_t runs_simulated = 0;
};

/// Runs the search (see the file comment). Throws std::invalid_argument
/// on malformed options (no rungs, non-increasing horizons, empty axes).
[[nodiscard]] SearchResult design_search(const Registry& registry,
                                         const SearchOptions& options);

/// The frontier as a deterministic CSV (header + one row per point,
/// ascending by throughput; the knee row carries `knee=1`). This is the
/// golden-fixture format of tests/golden/frontier_*.csv.
[[nodiscard]] std::string frontier_csv(const std::string& workload,
                                       const SearchResult& result);

}  // namespace ulpsync::scenario
