#include "scenario/design_search.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "scenario/engine.h"
#include "scenario/record.h"

namespace ulpsync::scenario {

namespace {

/// One live search point: a candidate at one operating clock, carrying the
/// metrics of its latest rung evaluation.
struct Point {
  std::size_t candidate = 0;
  std::size_t clock = 0;
  double f_mhz = 0.0;
  double voltage = 0.0;
  double mops = 0.0;
  double total_mw = 0.0;
  double energy_per_op_pj = 0.0;
  double total_energy_uj = 0.0;
};

RunSpec spec_for(const SearchOptions& options, const DesignCandidate& cand,
                 double clock_mhz, std::uint64_t horizon) {
  RunSpec spec;
  spec.workload = options.workload;
  spec.params.num_channels = cand.cores;
  spec.params.samples = options.samples;
  spec.design = cand.design;
  spec.arbitration = cand.arbitration;
  spec.im_line_slots = cand.im_line_slots;
  spec.energy = EnergyRequest{EnergyRequest::Params::kAuto, clock_mhz, 0.0};
  spec.max_cycles = horizon;
  return spec;
}

/// True when `q` slack-dominates `p`: at least as fast, and cheaper by
/// more than the slack margin (strictly cheaper at slack 0 — equal points
/// never eliminate each other, so duplicates survive deterministically).
bool dominates(const Point& q, const Point& p, double slack) {
  return q.mops >= p.mops && q.total_mw * (1.0 + slack) < p.total_mw;
}

void validate(const SearchOptions& options) {
  if (options.workload.empty())
    throw std::invalid_argument("design_search: empty workload");
  if (options.cores.empty() || options.banking.empty() ||
      options.arbitration.empty())
    throw std::invalid_argument("design_search: empty candidate axis");
  if (options.clocks_mhz.empty())
    throw std::invalid_argument("design_search: empty clock grid");
  if (options.rungs.empty())
    throw std::invalid_argument("design_search: no rungs");
  for (std::size_t i = 1; i < options.rungs.size(); ++i) {
    if (options.rungs[i] <= options.rungs[i - 1])
      throw std::invalid_argument(
          "design_search: rung horizons must be strictly increasing");
  }
}

}  // namespace

SearchResult design_search(const Registry& registry,
                           const SearchOptions& options) {
  validate(options);

  const std::vector<DesignVariant> designs =
      options.designs.empty()
          ? std::vector<DesignVariant>{DesignVariant::baseline(),
                                       DesignVariant::synchronized()}
          : options.designs;

  // Candidate enumeration, design outermost — the deterministic order every
  // later tie-break falls back to. Synchronized designs skip core counts
  // above the synchronizer's 8-core checkpoint-word ceiling.
  std::vector<DesignCandidate> candidates;
  for (const DesignVariant& design : designs) {
    for (const unsigned cores : options.cores) {
      if (design.features.hardware_synchronizer && cores > 8) continue;
      for (const unsigned banking : options.banking) {
        for (const sim::ArbitrationPolicy policy : options.arbitration) {
          candidates.push_back({design, cores, banking, policy});
        }
      }
    }
  }
  if (candidates.empty())
    throw std::invalid_argument("design_search: no viable candidates");

  std::vector<Point> live;
  live.reserve(candidates.size() * options.clocks_mhz.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    for (std::size_t k = 0; k < options.clocks_mhz.size(); ++k) {
      Point point;
      point.candidate = c;
      point.clock = k;
      live.push_back(point);
    }
  }

  SearchResult result;
  result.candidates = candidates.size();

  EngineOptions engine_options;
  engine_options.jobs = options.jobs;
  const Engine engine(registry, engine_options);

  const std::size_t rung_count = options.rungs.size();
  for (std::size_t r = 0; r < rung_count && !live.empty(); ++r) {
    const std::uint64_t horizon = options.rungs[r];
    RungStats stats;
    stats.horizon = horizon;
    stats.points_in = live.size();

    std::vector<RunSpec> specs;
    specs.reserve(live.size());
    for (const Point& point : live) {
      specs.push_back(spec_for(options, candidates[point.candidate],
                               options.clocks_mhz[point.clock], horizon));
    }
    const std::vector<RunRecord> records = engine.run(specs);
    result.specs_executed += specs.size();
    result.runs_simulated += engine.run_groups(specs).size();

    // Adopt this rung's metrics; drop failed and infeasible points.
    std::vector<Point> evaluated;
    evaluated.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const RunRecord& record = records[i];
      if (record.status == "error" || !record.energy_report.feasible) continue;
      Point point = live[i];
      point.f_mhz = record.energy_report.f_mhz;
      point.voltage = record.energy_report.voltage;
      point.mops = record.energy_report.mops;
      point.total_mw = record.energy_report.breakdown.total_mw();
      point.energy_per_op_pj = record.energy_report.energy_per_op_pj;
      point.total_energy_uj = record.energy_report.total_energy_uj;
      if (point.mops <= 0.0) continue;
      evaluated.push_back(point);
    }

    // Slack-dominance pruning: lenient on short horizons (their estimates
    // are noisy), exact on the final rung. The slack shrinks linearly.
    const double slack =
        rung_count < 2
            ? 0.0
            : 0.2 * static_cast<double>(rung_count - 1 - r) /
                  static_cast<double>(rung_count - 1);
    std::vector<Point> survivors;
    survivors.reserve(evaluated.size());
    for (const Point& point : evaluated) {
      bool pruned = false;
      for (const Point& other : evaluated) {
        if (dominates(other, point, slack)) {
          pruned = true;
          break;
        }
      }
      if (!pruned) survivors.push_back(point);
    }

    // Survivor cap (safety valve): keep the best by energy/op, restoring
    // the canonical candidate-major order afterwards.
    if (options.survivor_cap != 0 && survivors.size() > options.survivor_cap) {
      std::vector<std::size_t> order(survivors.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return survivors[a].energy_per_op_pj <
                                survivors[b].energy_per_op_pj;
                       });
      order.resize(options.survivor_cap);
      std::sort(order.begin(), order.end());
      std::vector<Point> capped;
      capped.reserve(order.size());
      for (const std::size_t index : order) capped.push_back(survivors[index]);
      survivors = std::move(capped);
    }

    stats.survivors = survivors.size();
    result.rungs.push_back(stats);
    live = std::move(survivors);
  }

  // The final rung's survivors are exactly its non-dominated points: the
  // Pareto frontier, sorted ascending by throughput (ties by power, then
  // canonical candidate order — all deterministic).
  std::sort(live.begin(), live.end(), [](const Point& a, const Point& b) {
    if (a.mops != b.mops) return a.mops < b.mops;
    if (a.total_mw != b.total_mw) return a.total_mw < b.total_mw;
    if (a.candidate != b.candidate) return a.candidate < b.candidate;
    return a.clock < b.clock;
  });

  result.frontier.reserve(live.size());
  for (const Point& point : live) {
    FrontierPoint frontier_point;
    frontier_point.candidate = candidates[point.candidate];
    frontier_point.f_mhz = point.f_mhz;
    frontier_point.voltage = point.voltage;
    frontier_point.mops = point.mops;
    frontier_point.total_mw = point.total_mw;
    frontier_point.energy_per_op_pj = point.energy_per_op_pj;
    frontier_point.total_energy_uj = point.total_energy_uj;
    result.frontier.push_back(std::move(frontier_point));
  }

  // Knee: the cheapest frontier point that still meets the target.
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const FrontierPoint& point = result.frontier[i];
    if (point.mops < options.target_mops) continue;
    if (result.knee_index < 0 ||
        point.total_mw <
            result.frontier[static_cast<std::size_t>(result.knee_index)]
                .total_mw) {
      result.knee_index = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (result.knee_index >= 0) {
    result.frontier[static_cast<std::size_t>(result.knee_index)].knee = true;
  }
  return result;
}

std::string frontier_csv(const std::string& workload,
                         const SearchResult& result) {
  std::ostringstream out;
  out << "workload,design,cores,im_line_slots,arbitration,f_mhz,voltage,"
         "mops,power_total_mw,energy_per_op_pj,energy_total_uj,knee\n";
  for (const FrontierPoint& point : result.frontier) {
    out << workload << ",\"" << point.candidate.design.label << "\","
        << point.candidate.cores << ',' << point.candidate.im_line_slots << ','
        << arbitration_name(point.candidate.arbitration) << ','
        << format_double(point.f_mhz) << ',' << format_double(point.voltage)
        << ',' << format_double(point.mops) << ','
        << format_double(point.total_mw) << ','
        << format_double(point.energy_per_op_pj) << ','
        << format_double(point.total_energy_uj) << ',' << (point.knee ? 1 : 0)
        << '\n';
  }
  return out.str();
}

}  // namespace ulpsync::scenario
