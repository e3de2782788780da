#pragma once

/// Thin reporting layer over `RunRecord`s: the pieces every driver shares —
/// failure checking, baseline/synchronized pairing, power-model bridging,
/// and the common CLI glue (`--jobs`, `--csv`, `--json`) — so a bench
/// driver is nothing but a Matrix declaration plus a formatter.

#include <string_view>
#include <vector>

#include "power/model.h"
#include "power/sweep.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "util/cli.h"
#include "util/table.h"

namespace ulpsync::scenario {

/// Throws std::runtime_error listing every record that failed (bad final
/// state or verification mismatch).
void require_ok(const std::vector<RunRecord>& records);

/// First record matching workload name + synchronizer presence, or nullptr.
[[nodiscard]] const RunRecord* find(const std::vector<RunRecord>& records,
                                    std::string_view workload,
                                    bool with_synchronizer);

/// First record matching workload name + design label, or nullptr.
[[nodiscard]] const RunRecord* find_design(const std::vector<RunRecord>& records,
                                           std::string_view workload,
                                           std::string_view design_label);

/// The two designs' records for one workload, for side-by-side comparison.
struct DesignPair {
  const RunRecord* baseline = nullptr;  ///< w/o synchronizer
  const RunRecord* synced = nullptr;    ///< with synchronizer
};
/// Both designs of one workload; throws std::runtime_error when either is
/// missing from `records`.
[[nodiscard]] DesignPair find_pair(const std::vector<RunRecord>& records,
                                   std::string_view workload);

/// Resynchronization speed-up: baseline cycles / synchronized cycles.
[[nodiscard]] double speedup(const DesignPair& pair);

/// Bridge into the workload-sweep power model (Fig. 3 curves).
[[nodiscard]] power::DesignCharacterization characterization(
    const RunRecord& record);

/// Power breakdown at a fixed workload (MOps/s) at nominal voltage:
/// f = W / (ops/cycle), no voltage scaling, no leakage.
[[nodiscard]] power::PowerBreakdown breakdown_at_mops(const RunRecord& record,
                                                      double mops);

/// Engine options from the common flags: `--jobs N` (0 = all host cores).
[[nodiscard]] EngineOptions engine_options_from(const util::CliArgs& args);

/// Writes `table` to `--csv <path>` when the flag is present, atomically
/// (`util::write_file_atomic`). Throws std::runtime_error when it fails.
void maybe_write_csv(const util::CliArgs& args, const util::Table& table);

/// Writes the full records to `--records <path>` (CSV) / `--json <path>`
/// (JSON) when the corresponding flag is present. Distinct from the table's
/// `--csv` so a program can emit both. Throws like `maybe_write_csv`.
void maybe_write_records(const util::CliArgs& args,
                         const std::vector<RunRecord>& records);

}  // namespace ulpsync::scenario
