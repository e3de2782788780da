#pragma once

/// Shared command-line vocabulary of the scenario tools.
///
/// `sweep_shard`, `fault_campaign` and `design_search` all accept the
/// same matrix / cohort / energy / jobs / record-events flags; this header
/// is the one place their spelling, defaults, and error messages live.
/// Tools declare a `FlagTable` per (sub)command: it
/// renders the `--help` text and rejects unknown flags with a one-line
/// diagnostic instead of a usage dump, so a typo exits non-zero with
/// exactly one line on stderr.
///
/// Every parser throws `std::runtime_error` with a stable, tool-agnostic
/// message ("malformed --samples entry 'abc'", "missing required --spool
/// flag", ...), so the tools report identical errors for identical
/// mistakes.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "util/cli.h"

namespace ulpsync::scenario::cli {

/// One row of a command's flag table.
struct Flag {
  std::string name;   ///< without the leading "--"
  std::string value;  ///< value hint rendered after the name; "" for bare
  std::string help;   ///< one-line description
};

/// A (sub)command's complete flag vocabulary: renders `--help` and
/// rejects flags outside the table.
struct FlagTable {
  std::string command;  ///< e.g. "sweep_shard plan"
  std::string summary;  ///< one-line description under the usage line
  std::vector<Flag> flags;

  /// The `--help` text: usage line, summary, aligned flag table.
  [[nodiscard]] std::string render() const;
  /// Throws std::runtime_error "unknown flag --x (see `<command> --help`)"
  /// for any set flag that is not in the table. `--help` is always known.
  void require_known(const util::CliArgs& args) const;
};

/// Comma-separated list, empty items dropped.
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

/// List parsers with uniform diagnostics: every entry must parse
/// completely or the parser throws "malformed --<flag> entry '<item>'".
/// This one reads unsigned ints.
[[nodiscard]] std::vector<unsigned> parse_unsigned_list(
    const std::string& text, const std::string& flag);
/// The same for 64-bit unsigned entries.
[[nodiscard]] std::vector<std::uint64_t> parse_u64_list(
    const std::string& text, const std::string& flag);
/// The same for floating-point entries.
[[nodiscard]] std::vector<double> parse_double_list(const std::string& text,
                                                    const std::string& flag);

/// The flag's value; throws "missing required --<name> flag" when unset
/// or empty.
[[nodiscard]] std::string require_flag(const util::CliArgs& args,
                                       const std::string& name);

/// `--designs both|synchronized|baseline` (empty = both, the Matrix
/// default). Throws on anything else.
[[nodiscard]] std::vector<DesignVariant> designs_from_flag(
    const std::string& value);

/// `--arbitration` policy names (fixed-priority|oldest-first|round-robin).
[[nodiscard]] sim::ArbitrationPolicy arbitration_from_flag(
    const std::string& name);

/// The per-record energy request of `--energy MODE`, `--energy-mhz F`,
/// `--energy-volt V`; nullopt when none of the three flags is present.
[[nodiscard]] std::optional<EnergyRequest> energy_from_flags(
    const util::CliArgs& args);

/// `--jobs N` (engine/trial threads; 0 = one per hardware core).
[[nodiscard]] unsigned jobs_from_flags(const util::CliArgs& args,
                                       unsigned fallback = 1);

/// Expands the shared matrix flag vocabulary (--workloads, --samples,
/// --designs, --max-cycles, --energy*, --cohort*, --checkpoint-at,
/// --horizons) into the concrete spec list. `sweep_shard plan` and
/// `sweep_shard run` both build specs here, which is what makes their
/// byte-identity guarantee a matter of flag equality.
[[nodiscard]] std::vector<RunSpec> matrix_specs_from_flags(
    const util::CliArgs& args);

/// The shared matrix flag-table fragment, for composing per-command tables.
[[nodiscard]] std::vector<Flag> matrix_flags();
/// The shared campaign flag-table fragment (faults, count, seed, volts, …).
[[nodiscard]] std::vector<Flag> campaign_flags();

}  // namespace ulpsync::scenario::cli
