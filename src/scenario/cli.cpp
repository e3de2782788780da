#include "scenario/cli.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "ecg/cohort.h"
#include "scenario/matrix.h"

namespace ulpsync::scenario::cli {

std::string FlagTable::render() const {
  std::ostringstream out;
  out << "usage: " << command;
  if (!flags.empty()) out << " [flags]";
  out << '\n';
  if (!summary.empty()) out << "  " << summary << '\n';
  if (flags.empty()) return out.str();
  out << "flags:\n";
  std::size_t width = 0;
  std::vector<std::string> heads;
  for (const Flag& flag : flags) {
    std::string head = "--" + flag.name;
    if (!flag.value.empty()) head += " " + flag.value;
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    out << "  " << heads[i] << std::string(width - heads[i].size() + 2, ' ')
        << flags[i].help << '\n';
  }
  return out.str();
}

void FlagTable::require_known(const util::CliArgs& args) const {
  for (const std::string& name : args.names()) {
    if (name == "help") continue;
    const auto known =
        std::any_of(flags.begin(), flags.end(),
                    [&](const Flag& flag) { return flag.name == name; });
    if (!known) {
      throw std::runtime_error("unknown flag --" + name + " (see `" + command +
                               " --help`)");
    }
  }
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

namespace {

/// One fully-consumed numeric entry or a uniform diagnostic.
template <typename Value, typename Parse>
std::vector<Value> parse_list(const std::string& text, const std::string& flag,
                              Parse parse) {
  std::vector<Value> out;
  for (const std::string& item : split_list(text)) {
    std::size_t used = 0;
    Value value{};
    try {
      value = parse(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != item.size()) {
      throw std::runtime_error("malformed --" + flag + " entry '" + item + "'");
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace

std::vector<unsigned> parse_unsigned_list(const std::string& text,
                                          const std::string& flag) {
  return parse_list<unsigned>(
      text, flag, [](const std::string& item, std::size_t* used) {
        return static_cast<unsigned>(std::stoul(item, used));
      });
}

std::vector<std::uint64_t> parse_u64_list(const std::string& text,
                                          const std::string& flag) {
  return parse_list<std::uint64_t>(
      text, flag, [](const std::string& item, std::size_t* used) {
        return static_cast<std::uint64_t>(std::stoull(item, used));
      });
}

std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& flag) {
  return parse_list<double>(text, flag,
                            [](const std::string& item, std::size_t* used) {
                              return std::stod(item, used);
                            });
}

std::string require_flag(const util::CliArgs& args, const std::string& name) {
  const std::string value = args.get(name, "");
  if (value.empty()) {
    throw std::runtime_error("missing required --" + name + " flag");
  }
  return value;
}

std::vector<DesignVariant> designs_from_flag(const std::string& value) {
  if (value == "both" || value.empty()) return {};  // the Matrix default
  if (value == "synchronized") return {DesignVariant::synchronized()};
  if (value == "baseline") return {DesignVariant::baseline()};
  throw std::runtime_error("unknown --designs value '" + value + "'");
}

sim::ArbitrationPolicy arbitration_from_flag(const std::string& name) {
  if (name == "fixed-priority") return sim::ArbitrationPolicy::kFixedPriority;
  if (name == "oldest-first") return sim::ArbitrationPolicy::kOldestFirst;
  if (name == "round-robin") return sim::ArbitrationPolicy::kRoundRobin;
  throw std::runtime_error("unknown arbitration policy '" + name + "'");
}

std::optional<EnergyRequest> energy_from_flags(const util::CliArgs& args) {
  if (!args.has("energy") && !args.has("energy-mhz") &&
      !args.has("energy-volt")) {
    return std::nullopt;
  }
  EnergyRequest request;
  const std::string mode = args.get("energy", "auto");
  if (mode == "auto") {
    request.params = EnergyRequest::Params::kAuto;
  } else if (mode == "baseline") {
    request.params = EnergyRequest::Params::kBaseline;
  } else if (mode == "synchronized") {
    request.params = EnergyRequest::Params::kSynchronized;
  } else {
    throw std::runtime_error("unknown --energy value '" + mode + "'");
  }
  request.f_mhz = args.get_double("energy-mhz", 0.0);
  request.voltage = args.get_double("energy-volt", 0.0);
  return request;
}

unsigned jobs_from_flags(const util::CliArgs& args, unsigned fallback) {
  return static_cast<unsigned>(
      args.get_int("jobs", static_cast<long>(fallback)));
}

std::vector<RunSpec> matrix_specs_from_flags(const util::CliArgs& args) {
  Matrix matrix;
  matrix.workloads(split_list(args.get("workloads", "mrpfltr,sqrt32")));
  matrix.samples(parse_unsigned_list(args.get("samples", "48"), "samples"));
  const std::vector<DesignVariant> designs =
      designs_from_flag(args.get("designs", "both"));
  if (!designs.empty()) matrix.designs(designs);
  matrix.max_cycles(
      static_cast<std::uint64_t>(args.get_int("max-cycles", 500'000'000)));
  if (const auto energy = energy_from_flags(args)) matrix.energy({*energy});
  const auto patients = static_cast<unsigned>(args.get_int("cohort", 0));
  if (patients != 0) {
    ecg::CohortParams population;
    population.seed = static_cast<std::uint64_t>(
        args.get_int("cohort-seed", static_cast<long>(population.seed)));
    matrix.cohort(patients, population);
  }

  std::vector<RunSpec> specs = matrix.expand();
  if (args.has("horizons")) {
    // Fan each spec out over the horizon budgets, sharing one warm-up
    // prefix per group — the shape `plan` ships WarmStates for.
    const auto checkpoint =
        static_cast<std::uint64_t>(args.get_int("checkpoint-at", 0));
    const std::vector<std::uint64_t> horizons =
        parse_u64_list(args.get("horizons", ""), "horizons");
    std::vector<RunSpec> fanned;
    for (const RunSpec& spec : specs) {
      for (const std::uint64_t budget : horizons) {
        RunSpec horizon = spec;
        horizon.max_cycles = budget;
        if (checkpoint != 0) horizon.checkpoint_at = checkpoint;
        fanned.push_back(std::move(horizon));
      }
    }
    specs = std::move(fanned);
  } else if (args.has("checkpoint-at")) {
    const auto checkpoint =
        static_cast<std::uint64_t>(args.get_int("checkpoint-at", 0));
    for (RunSpec& spec : specs) spec.checkpoint_at = checkpoint;
  }
  return specs;
}

std::vector<Flag> matrix_flags() {
  return {
      {"workloads", "a,b", "registry names (default mrpfltr,sqrt32)"},
      {"samples", "n1,n2", "samples-per-channel axis (default 48)"},
      {"designs", "WHICH", "both|synchronized|baseline (default both)"},
      {"max-cycles", "N", "cycle budget (default 500000000)"},
      {"cohort", "N", "fan every spec out over N per-patient draws"},
      {"cohort-seed", "S", "master cohort seed (default 2024)"},
      {"energy", "MODE", "per-record energy columns: auto|baseline|synchronized"},
      {"energy-mhz", "F", "operating clock for the energy report"},
      {"energy-volt", "V", "operating supply; 0 derives the minimum feasible"},
      {"checkpoint-at", "N", "shared warm-up prefix end in cycles"},
      {"horizons", "c1,c2", "per-spec max_cycles fan-out over the checkpoint"},
  };
}

std::vector<Flag> campaign_flags() {
  return {
      {"workload", "NAME", "workload to record (default sleepgen)"},
      {"samples", "N", "samples per channel of the recording (default 48)"},
      {"design", "WHICH", "auto|synchronized|baseline|xbar (default auto)"},
      {"max-cycles", "N", "recording cycle budget (default 2000000)"},
      {"evt", "FILE", "replay a recorded-run envelope instead of recording"},
      {"faults", "a,b", "fault classes (default dm,im,wake-delay,wake-drop)"},
      {"count", "N", "faults per class except `rate` (default 4)"},
      {"seed", "S", "campaign seed (default 2024)"},
      {"stride", "N", "clean-run checkpoint stride (default 4096)"},
      {"volts", "v1,v2", "campaign voltage axis"},
      {"energy-mhz", "F", "add the supply sustaining this clock to --volts"},
      {"rate-scale", "X", "rate-model upset-probability scale (default 1)"},
      {"retention-v", "V", "retention-model knee voltage"},
      {"rate-p-nominal", "P", "per-bit upset probability at nominal voltage"},
      {"rate-sensitivity", "S", "upset-rate voltage sensitivity (decades/V)"},
      {"multi-bits", "N", "adjacent bits of a dm-multi flip (default 3)"},
      {"burst-words", "N", "words of a dm-burst flip (default 4)"},
      {"row-words", "N", "row width of a dm-row flip (default 16)"},
      {"mode", "M", "outcome|localize (default outcome)"},
  };
}

}  // namespace ulpsync::scenario::cli
