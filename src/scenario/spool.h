#pragma once

/// The indexed-job spool: one on-disk protocol that sharded sweeps
/// (scenario/shard.h) and fault campaigns (scenario/resilience.h) share.
///
///     spool/
///       MANIFEST                  kind header, fingerprint, row count, and
///                                 the shard table — written last at plan
///       queue/shard-0002.<kind>   unclaimed shards (`.bundle` or `.range`)
///       claimed/shard-0002.<kind> a worker claimed it (atomic rename)
///       claimed/shard-0002.owner  informational: who claimed it
///       done/shard-0002.<kind>    shard finished, its part file is final
///       parts/part-0002.partial   rows appended as the shard's jobs finish
///       parts/part-0002.csv       the shard's finished rows (atomic rename)
///       costs/part-0002.cost      sweeps: measured per-run wall times
///       rings/run-<index>/        sweeps with a ring stride: checkpoint
///                                 rings (created on first use)
///
/// A shard's payload names the *global indices* of its rows. Workers claim
/// shards through a `SpoolTransport` (scenario/transport.h), run each row's
/// job, append the row to the shard's partial part, and complete the shard
/// hash-gated; a SIGKILLed worker loses at most the rows in flight, and
/// `--resume` adopts the complete rows it left. The merge places every
/// part's rows by global index, so the merged CSV is byte-identical to a
/// single-process run no matter how many workers ran, died, or resumed.
///
/// The two kinds differ only in what a payload is and how a row is made:
/// a sweep bundle carries RunSpecs (one engine run per row), a campaign
/// range carries a contiguous fault-index range (one fault trial per row).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ulpsync::scenario {

class SpoolTransport;  // scenario/transport.h
struct ClaimedShard;   // scenario/transport.h

/// The spool manifest, parsed.
struct SpoolManifest {
  bool campaign = false;  ///< fault-campaign spool (else a sweep spool)
  std::uint64_t fingerprint = 0;
  std::size_t specs = 0;  ///< rows of the merged CSV (specs or faults)
  /// One shard-table line.
  struct Row {
    unsigned id = 0;
    std::size_t specs = 0;          ///< rows of this shard
    std::uint64_t bundle_hash = 0;  ///< sweeps: the bundle's content hash
    std::uint64_t begin = 0;        ///< campaigns: first fault index
  };
  std::vector<Row> shards;

  /// The claim kind and file extension of the spool's shards: "bundle"
  /// (sweeps) or "range" (campaigns).
  [[nodiscard]] const char* shard_kind() const {
    return campaign ? "range" : "bundle";
  }
};

/// Parses a manifest of either kind (the header line names it). `what`
/// names the spool in diagnostics. Throws std::runtime_error on a
/// malformed manifest.
[[nodiscard]] SpoolManifest parse_spool_manifest_text(const std::string& text,
                                                      const std::string& what);
/// Fetches and parses the manifest `transport` serves.
[[nodiscard]] SpoolManifest read_spool_manifest(SpoolTransport& transport);
/// The manifest text `parse_spool_manifest_text` reads back.
[[nodiscard]] std::string spool_manifest_text(const SpoolManifest& manifest);

/// "shard-0007" — the stem of shard 7's claim files.
[[nodiscard]] std::string shard_name(unsigned id);
/// "part-0007" — the stem of shard 7's part files.
[[nodiscard]] std::string part_name(unsigned id);
/// Splits text into its complete (newline-terminated) lines; a torn
/// trailing fragment is dropped — the spool's torn-row rule.
[[nodiscard]] std::vector<std::string> split_complete_lines(
    const std::string& text);
/// Creates the spool directories at `dir` for planning. Throws
/// std::runtime_error when `dir` already holds a manifest or cannot be
/// created.
void create_spool_dirs(const std::string& dir);

/// One shard's observable state (see `TransportStatus`).
struct ShardState {
  unsigned id = 0;
  std::size_t specs = 0;
  std::string state;            ///< "queued", "claimed", "done", or "lost"
  std::string owner;            ///< contents of the `.owner` file, if any
  bool part_final = false;      ///< the shard's `.csv` part exists
  std::size_t partial_rows = 0; ///< complete rows in its `.partial` file
};

/// Spool-level progress summary.
struct SpoolStatus {
  std::uint64_t fingerprint = 0;
  std::size_t specs = 0;
  std::vector<ShardState> shards;

  /// True when every shard's part file is final (`merge_spool` will work).
  [[nodiscard]] bool complete() const {
    for (const ShardState& shard : shards) {
      if (!shard.part_final) return false;
    }
    return true;
  }
};

/// One finished row of a job.
struct SpoolRow {
  std::string csv;            ///< the row (no trailing newline)
  std::string cost;           ///< scheduler feedback line; "" for none
  bool warm_resumed = false;  ///< the run resumed from a shipped WarmState
};

/// A job kind: what the shared drain loop asks of it. One instance serves
/// one drain, so a kind's set-up runs once per drain, not once per shard.
class SpoolJob {
 public:
  explicit SpoolJob(SpoolManifest manifest) : manifest(std::move(manifest)) {}
  virtual ~SpoolJob() = default;
  SpoolJob(const SpoolJob&) = delete;
  SpoolJob& operator=(const SpoolJob&) = delete;

  /// Validates a claimed payload against the spool and returns the global
  /// indices of its rows, in part-row order. Throws std::runtime_error or
  /// std::invalid_argument on a foreign or corrupt payload.
  virtual std::vector<std::uint64_t> claim(const ClaimedShard& claimed) = 0;
  /// The row of global index `index` of the last claim. Called from
  /// several threads at once when the drain runs more than one job.
  virtual SpoolRow run(std::uint64_t index) = 0;

  const SpoolManifest manifest;  ///< the spool being drained
};

/// What one drain did.
struct WorkReport {
  std::size_t shards_completed = 0;
  std::size_t runs_executed = 0;  ///< rows run (engine runs or fault trials)
  std::size_t rows_reused = 0;    ///< rows adopted from partial part files
  std::size_t warm_resumed = 0;   ///< runs resumed from shipped WarmStates
};

/// The one drain loop: re-queues orphaned claims when `resume` (only safe
/// when no worker holding them is alive), then claims shards as
/// `worker_id` (default: the process id) until the queue is empty or
/// `max_shards` (0 = no limit) completed. A claim keeps its adopted rows
/// and runs the rest in blocks — one row on one thread, `jobs × 4` rows on
/// `jobs` threads (0 = one per core) — each block after a heartbeat, its
/// rows appended in index order; the shard completes hash-gated. Throws
/// std::runtime_error on a corrupt spool or a transport failure.
WorkReport drain_spool(SpoolTransport& transport, SpoolJob& job,
                       const std::string& worker_id, bool resume,
                       std::size_t max_shards, unsigned jobs);

/// Assembles the finished parts of a spool of either kind into its CSV —
/// byte-identical to the single-process run of the planned specs or
/// faults. Throws std::runtime_error when any shard's part is missing or
/// inconsistent.
[[nodiscard]] std::string merge_spool(SpoolTransport& transport);
/// The same merge of the spool directory `dir`.
[[nodiscard]] std::string merge_spool(const std::string& dir);

}  // namespace ulpsync::scenario
