#pragma once

/// The benchmark's four workloads (see README.md): what one tool
/// invocation sets up, what one timed trial runs, and the traced run that
/// splits a trial into the calls it makes into each layer.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/resilience.h"
#include "scenario/spec.h"
#include "trace.h"

namespace perfbench {

/// The workloads, in BENCHMARK.json order.
enum class Kind { kPaper8, kSleepgenWide, kCohort, kCampaign };

/// The workload named `name`, if there is one.
[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);
/// The BENCHMARK.json name of `kind`.
[[nodiscard]] const char* kind_name(Kind kind);
/// Names of the campaign's seven error models, in campaign order.
[[nodiscard]] std::vector<std::string> campaign_model_names();

/// Every seed a workload draws from, derived from the one `--seed`.
struct Seeds {
  std::uint64_t generator = 0;  ///< ECG generator of every spec
  std::uint64_t cohort = 0;     ///< patient draws of the cohort
  std::uint64_t campaign = 0;   ///< fault sampling of the campaign
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

/// What one tool invocation prepares before its first run.
struct Setup {
  Kind kind = Kind::kPaper8;
  ulpsync::scenario::Registry registry;
  std::vector<ulpsync::scenario::RunSpec> specs;  ///< sweep and cohort specs
  ulpsync::scenario::RecordedRun recording;       ///< campaign: replayed run
  ulpsync::scenario::CampaignConfig campaign;     ///< campaign: its faults
};
[[nodiscard]] Setup make_setup(Kind kind, const Seeds& seeds);

/// Checks a set-up once, outside any timing: the campaign's recording must
/// replay bit-exactly. Returns the problem, or "" when there is none.
[[nodiscard]] std::string check_setup(const Setup& setup);

/// What a trial writes: its records (or campaign rows) as CSV, and the
/// records as JSON where the tool writes both.
struct Output {
  std::string csv;
  std::string json;
};

/// One timed trial: the work of one tool invocation on fresh workloads.
/// Spool workloads plan their spool at `dir`, which must not exist yet.
[[nodiscard]] Output run_trial(const Setup& setup, const std::string& dir);

/// The reference path the pinned digests come from: the cohort on the
/// scalar Engine, every other workload as `run_trial` runs it.
[[nodiscard]] Output run_reference(const Setup& setup, const std::string& dir);

/// Operation counts of one output.
struct Tally {
  std::uint64_t attempted = 0;   ///< records or campaign rows
  std::uint64_t failed = 0;      ///< records not ok(), rows with an error
  std::uint64_t sim_cycles = 0;  ///< simulated cycles the output delivers
  std::uint64_t classified = 0;  ///< campaign rows with a classified outcome
};
[[nodiscard]] Tally tally(const Setup& setup, const std::string& csv);

/// Checks an output beyond its digest: the cohort's first rows must equal
/// the scalar Engine's. Returns the problem, or "" when there is none.
[[nodiscard]] std::string cross_check(const Setup& setup, const Output& output);

/// Exact counters of the traced run, by metric name.
using Counters = std::map<std::string, double>;

/// The traced run: the trial with each top-level call replaced by the
/// public calls it makes, each one a span of `tracer`. Fills `counters`
/// and returns the output the trial writes.
[[nodiscard]] Output run_traced(const Setup& setup, const std::string& dir,
                                Tracer& tracer, Counters& counters);

/// The digest of an output: the project's FNV-1a 64 content hash
/// (scenario::fnv1a64) over its bytes.
[[nodiscard]] std::uint64_t digest(std::string_view text);

}  // namespace perfbench
