#include "scenario/shard.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/record.h"
#include "scenario/transport.h"
#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

constexpr util::Magic kBundleMagic = {'U', 'L', 'P', 'S', 'P', 'O', 'L', '\n'};
// Version 3 appended the optional `EnergyRequest` to the spec codec.
// Version 4 retired the optional `burst` knob after `fast_forward`: its
// slot stays on the wire, always absent, so the recorded-run envelope that
// shares the codec keeps its bytes, and a spec that still sets it is
// refused. Version 5 dropped each entry's warm-state reference and the
// shipped warm states, and retired the spec's warm-up prefix end the same
// way as `burst`.
constexpr std::uint32_t kBundleVersion = 5;

// --- bundle --------------------------------------------------------------- --

struct BundlePlan {
  unsigned id = 0;
  std::vector<std::uint64_t> indices;
};

std::vector<std::uint8_t> serialize_bundle(const BundlePlan& plan,
                                           const std::vector<RunSpec>& specs,
                                           std::uint64_t fingerprint) {
  return util::seal(kBundleMagic, kBundleVersion, [&](util::WireWriter& w) {
    w.u64(fingerprint);
    w.u32(plan.id);
    w.u32(static_cast<std::uint32_t>(plan.indices.size()));
    for (const std::uint64_t index : plan.indices) {
      w.u64(index);
      encode_run_spec(w, specs[index]);
    }
  });
}

/// The sweep job kind (see `sweep_job`).
class SweepJob final : public SpoolJob {
 public:
  SweepJob(SpoolTransport& transport, const SpoolManifest& manifest,
           const Registry& registry, const WorkOptions& options)
      : SpoolJob(manifest),
        transport_(transport),
        record_dir_(options.record_dir),
        engine_(registry, engine_options(transport, options)) {
    if (manifest.campaign) {
      throw std::runtime_error(transport.describe() +
                               " is a campaign spool, not a sweep spool");
    }
    if (!record_dir_.empty()) fs::create_directories(record_dir_);
  }

  std::vector<std::uint64_t> claim(const ClaimedShard& claimed) override {
    bundle_ = parse_bundle_bytes(
        claimed.payload, "shard bundle " + std::to_string(claimed.id) +
                             " from " + transport_.describe());
    // `run` finds a row by its index, so the indices must ascend strictly.
    const auto& indices = bundle_.indices;
    if (bundle_.fingerprint != manifest.fingerprint ||
        bundle_.id != claimed.id ||
        std::adjacent_find(indices.begin(), indices.end(),
                           std::greater_equal<>()) != indices.end()) {
      throw std::runtime_error("shard bundle " + std::to_string(claimed.id) +
                               " does not belong to this spool");
    }
    if (!record_dir_.empty()) {
      // Recording specs never share a run, so every row runs alone; the
      // global index names its .evt.
      for (std::size_t k = 0; k < indices.size(); ++k) {
        bundle_.specs[k].record_events_to =
            record_dir_ + "/run-" + std::to_string(indices[k]) + ".evt";
      }
    }
    groups_ = engine_.run_groups(bundle_.specs);
    group_of_.assign(indices.size(), 0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (const std::size_t k : groups_[g]) group_of_[k] = g;
    }
    ran_ = std::make_unique<std::once_flag[]>(groups_.size());
    rows_.assign(indices.size(), {});
    return indices;
  }

  SpoolRow run(std::uint64_t index) override {
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(bundle_.indices.begin(), bundle_.indices.end(),
                         index) -
        bundle_.indices.begin());
    const std::size_t g = group_of_[k];
    // The first row requested of a group runs the group; concurrent
    // requests for its other rows wait for that run.
    std::call_once(ran_[g], [&] { run_group(groups_[g]); });
    return rows_[k];
  }

 private:
  /// Runs one group (bundle positions, ascending) and fills its rows.
  void run_group(const std::vector<std::size_t>& members) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunRecord> records = engine_.run_shared(
        bundle_.specs, members, bundle_.indices[members.front()]);
    // Cost feedback for the next plan's scheduler: the group's wall time,
    // split evenly, so a planner unit still weighs what the group cost.
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() /
        static_cast<double>(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      SpoolRow& row = rows_[members[m]];
      row.csv = to_csv_row(records[m]);
      row.cost = cost_line(bundle_.specs[members[m]], records[m].cycles(),
                           wall_seconds);
    }
  }

  static EngineOptions engine_options(SpoolTransport& transport,
                                      const WorkOptions& options) {
    EngineOptions engine_options;
    if (options.ring_stride == 0) return engine_options;
    // Checkpoint rings live next to the spool, so they need one: a remote
    // transport has no shared directory to keep them in.
    if (transport.local_dir().empty()) {
      throw std::runtime_error(
          "checkpoint rings need a filesystem spool "
          "(drop --ring-stride when working over --connect)");
    }
    engine_options.checkpoint_ring = {.dir = transport.local_dir() + "/rings",
                                      .stride = options.ring_stride,
                                      .keep = options.ring_keep};
    return engine_options;
  }

  SpoolTransport& transport_;
  std::string record_dir_;
  Engine engine_;
  // The last claim: its bundle, its `run_groups` and each position's
  // group, one once-flag per group, and the rows the groups produced.
  ShardBundle bundle_;
  std::vector<std::vector<std::size_t>> groups_;
  std::vector<std::size_t> group_of_;
  std::unique_ptr<std::once_flag[]> ran_;
  std::vector<SpoolRow> rows_;
};

}  // namespace

// --- cost model --------------------------------------------------------------

std::uint64_t spec_cost_key(const RunSpec& spec) {
  return util::fnv1a64(run_spec_bytes(spec));
}

std::string cost_line(const RunSpec& spec, std::uint64_t cycles,
                      double wall_seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9e", wall_seconds);
  return "cost " + util::hex64(spec_cost_key(spec)) + " " + spec.workload +
         " " + std::to_string(cycles) + " " + buffer;
}

void CostModel::add(std::uint64_t key, const std::string& workload,
                    std::uint64_t cycles, double wall_seconds) {
  SpecCost& spec = by_spec[key];
  spec.wall_seconds += wall_seconds;
  spec.runs += 1;
  WorkloadRate& rate = by_workload[workload];
  rate.wall_seconds += wall_seconds;
  rate.cycles += static_cast<double>(cycles);
  rate.runs += 1;
}

double CostModel::predict(const RunSpec& spec) const {
  // Floor every prediction: a zero-weight unit would let the costed
  // planner park arbitrarily many specs on one shard for free.
  constexpr double kFloorSeconds = 1e-9;
  if (const auto it = by_spec.find(spec_cost_key(spec));
      it != by_spec.end() && it->second.runs > 0) {
    return std::max(kFloorSeconds,
                    it->second.wall_seconds /
                        static_cast<double>(it->second.runs));
  }
  if (const auto it = by_workload.find(spec.workload);
      it != by_workload.end() && it->second.cycles > 0.0) {
    // Seconds-per-simulated-cycle of the workload times the spec's cycle
    // budget: over-predicts early-halting runs but orders a horizon
    // fan-out correctly, which is what shard sizing needs.
    const double rate = it->second.wall_seconds / it->second.cycles;
    return std::max(kFloorSeconds,
                    rate * static_cast<double>(spec.max_cycles));
  }
  return 1.0;  // unknown workload: uniform, like the uncosted planner
}

bool absorb_cost_line(CostModel& model, const std::string& line) {
  std::istringstream fields(line);
  std::string tag, hex, workload;
  std::uint64_t cycles = 0;
  double wall_seconds = 0.0;
  fields >> tag >> hex >> workload >> cycles >> wall_seconds;
  if (fields.fail() || tag != "cost" || hex.size() != 16 || workload.empty() ||
      !(wall_seconds >= 0.0)) {
    return false;
  }
  char* end = nullptr;
  const std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  model.add(key, workload, cycles, wall_seconds);
  return true;
}

CostModel load_cost_model(const std::vector<std::string>& paths) {
  CostModel model;
  const auto absorb_file = [&model](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    std::string line;
    while (std::getline(in, line)) absorb_cost_line(model, line);
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      const std::string costs = path + "/costs";
      if (!fs::is_directory(costs, ec)) continue;
      std::vector<std::string> files;
      for (const auto& entry : fs::directory_iterator(costs)) {
        if (entry.path().extension() == ".cost") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      for (const std::string& file : files) absorb_file(file);
    } else {
      absorb_file(path);
    }
  }
  return model;
}

std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs) {
  util::WireWriter w;
  w.u64(specs.size());
  for (const RunSpec& spec : specs) encode_run_spec(w, spec);
  return util::fnv1a64(w.bytes());
}

PlanResult plan_spool(const std::string& dir, const std::vector<RunSpec>& specs,
                      const Registry& registry, const SpoolOptions& options) {
  if (specs.empty()) {
    throw std::invalid_argument("plan_spool: empty spec list");
  }
  create_spool_dirs(dir);

  // Scheduling units: each of the engine's run groups stays on one shard,
  // so a worker runs it once.
  const std::vector<std::vector<std::size_t>> units =
      Engine(registry).run_groups(specs);

  const unsigned shard_count = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, options.shards), units.size()));

  // Deterministic greedy balance. Without cost feedback each unit goes to
  // the least-loaded shard by *spec count* (ties to the lowest id), in
  // unit order — the original planner, byte for byte. With a cost model,
  // units are weighed by predicted wall seconds and placed
  // longest-processing-time-first onto the least-*weighted* shard, the
  // classic LPT makespan heuristic.
  const bool costed = !options.costs.empty();
  std::vector<BundlePlan> bundles(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) bundles[s].id = s;
  std::vector<double> weight(shard_count, 0.0);
  std::vector<unsigned> shard_of_unit(units.size(), 0);
  std::vector<double> unit_weight(units.size(), 0.0);
  std::vector<std::size_t> order(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) order[u] = u;
  if (costed) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (const std::size_t index : units[u]) {
        unit_weight[u] += options.costs.predict(specs[index]);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (unit_weight[a] != unit_weight[b]) {
        return unit_weight[a] > unit_weight[b];
      }
      return units[a].front() < units[b].front();
    });
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) {
      unit_weight[u] = static_cast<double>(units[u].size());
    }
  }
  for (const std::size_t u : order) {
    unsigned best = 0;
    for (unsigned s = 1; s < shard_count; ++s) {
      if (weight[s] < weight[best]) best = s;
    }
    shard_of_unit[u] = best;
    weight[best] += unit_weight[u];
  }

  for (std::size_t u = 0; u < units.size(); ++u) {
    std::vector<std::uint64_t>& indices = bundles[shard_of_unit[u]].indices;
    indices.insert(indices.end(), units[u].begin(), units[u].end());
  }
  // Bundle entries in ascending global-index order (units may interleave).
  for (BundlePlan& bundle : bundles) {
    std::sort(bundle.indices.begin(), bundle.indices.end());
  }

  if (costed) {
    // Heaviest shard first: workers claim queue bundles in name order, so
    // numbering by descending predicted weight starts the long poles
    // before the stragglers (ties keep the original id order).
    std::vector<unsigned> by_weight(shard_count);
    for (unsigned s = 0; s < shard_count; ++s) by_weight[s] = s;
    std::sort(by_weight.begin(), by_weight.end(),
              [&](unsigned a, unsigned b) {
                if (weight[a] != weight[b]) return weight[a] > weight[b];
                return a < b;
              });
    std::vector<BundlePlan> renumbered;
    for (unsigned s = 0; s < shard_count; ++s) {
      BundlePlan bundle = std::move(bundles[by_weight[s]]);
      bundle.id = s;
      renumbered.push_back(std::move(bundle));
    }
    bundles = std::move(renumbered);
  }

  SpoolManifest manifest;
  manifest.fingerprint = spec_fingerprint(specs);
  manifest.specs = specs.size();
  for (const BundlePlan& bundle : bundles) {
    const auto bytes = serialize_bundle(bundle, specs, manifest.fingerprint);
    util::write_file_atomic(
        dir + "/queue/" + shard_name(bundle.id) + ".bundle", bytes);
    manifest.shards.push_back(
        {.id = bundle.id, .specs = bundle.indices.size(),
         .bundle_hash = util::fnv1a64(bytes)});
  }
  // The manifest is written last: a spool without one is unplanned, never
  // half-planned.
  util::write_file_atomic(dir + "/MANIFEST", spool_manifest_text(manifest));

  return {.specs = specs.size(),
          .shards = shard_count,
          .fingerprint = manifest.fingerprint};
}

ShardBundle parse_bundle_bytes(std::span<const std::uint8_t> bytes,
                               const std::string& what) {
  util::WireReader r = util::unseal(bytes, kBundleMagic, kBundleVersion, what);
  ShardBundle bundle;
  bundle.fingerprint = r.u64();
  bundle.id = r.u32();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    bundle.indices.push_back(r.u64());
    bundle.specs.push_back(decode_run_spec(r));
  }
  bundle.warm_ref.assign(count, -1);
  return bundle;
}

std::unique_ptr<SpoolJob> sweep_job(SpoolTransport& transport,
                                    const SpoolManifest& manifest,
                                    const Registry& registry,
                                    const WorkOptions& options) {
  return std::make_unique<SweepJob>(transport, manifest, registry, options);
}

WorkReport work_spool(const std::string& dir, const Registry& registry,
                      const WorkOptions& options) {
  FsTransport transport(dir);
  SweepJob job(transport, read_spool_manifest(transport), registry, options);
  return drain_spool(transport, job, options.worker_id, options.resume,
                     options.max_shards, /*jobs=*/1);
}

}  // namespace ulpsync::scenario
