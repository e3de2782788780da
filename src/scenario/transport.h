#pragma once

/// Pluggable spool transports: the claim/heartbeat/complete/adopt surface
/// the spool's drain loop (scenario/spool.h) drives for sweeps and
/// campaigns alike, separated from where the spool lives.
///
/// Two implementations:
///
///  * `FsTransport` — the original directory-rename spool, behavior
///    preserving: claiming is one atomic rename, rows append to
///    `parts/part-XXXX.partial`, completion finalizes the part. Any
///    number of processes on one filesystem share a spool, no daemons.
///
///  * `TcpTransport` / `SpoolServer` — a thin TCP coordinator
///    (`sweep_shard serve`) that owns the on-disk spool and leases
///    shards to workers on other machines. Workers stream rows back one
///    line at a time (each FNV-guarded), so a SIGKILLed remote worker
///    loses at most the run in flight: the server re-queues its claim
///    the moment the connection drops (or its lease expires), keeping
///    the partial rows for the next claimer — exactly the `--resume`
///    contract of the filesystem spool.
///
/// Every transport preserves the spool's product invariant: the merged
/// CSV is byte-identical to a single-process sweep no matter which
/// transport, scheduler, or kill/resume history produced the parts.
///
/// Wire protocol (line-oriented requests; `OK`/`NONE`/`ERR msg` replies,
/// binary payloads length-prefixed in the OK line):
///
///   MANIFEST                 -> OK <len>\n<manifest text>
///   BLOB <name>              -> OK <len>\n<bytes>         (bundle, campaign.bin)
///   CLAIM <worker>           -> OK <id> <kind> <plen> <rlen>\n<payload><rows>
///                               | NONE
///   ROW <id> <fnv16> <row>   -> OK                        (fnv of the row)
///   COST <id> <line>         -> OK                        (scheduler feedback)
///   BEAT <id>                -> OK                        (lease heartbeat)
///   DONE <id> <fnv16>        -> OK | ERR                  (fnv of the part)
///   ADOPT                    -> OK <requeued>
///   STATUS                   -> OK <len>\n<status text>
///   FINAL <id>               -> OK <len>\n<part csv text>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scenario/spool.h"

namespace ulpsync::scenario {

/// One claimed shard, transport-agnostic: the bundle (or campaign range)
/// image plus any complete rows an earlier, interrupted claim already
/// produced — the worker adopts those instead of re-running them.
struct ClaimedShard {
  unsigned id = 0;
  std::string kind;                   ///< "bundle" (sweep) or "range" (campaign)
  std::vector<std::uint8_t> payload;  ///< the shard bundle / range file image
  std::vector<std::string> rows;      ///< adopted complete partial rows
};

/// Per-worker throughput, measured by the serving side from row arrivals.
struct WorkerRate {
  std::string worker;
  std::size_t rows = 0;
  double rows_per_second = 0.0;  ///< 0 when unmeasurable
};

/// What `SpoolTransport::status()` reports — the one schema
/// `sweep_shard status` renders (human or `--json`) for both transports.
struct TransportStatus {
  bool campaign = false;        ///< campaign spool (faults) vs sweep (specs)
  SpoolStatus spool;            ///< per-shard states, fingerprint, totals
  std::size_t rows_done = 0;    ///< finished rows across all parts
  std::size_t queue_depth = 0;  ///< unclaimed shards
  std::vector<WorkerRate> workers;
  double eta_seconds = -1.0;    ///< < 0 when unknown (no measured rates)
};

/// The transport interface. One instance serves one worker (or one
/// merge/status call); implementations need not be thread-safe across
/// callers. All methods throw std::runtime_error on transport failure —
/// a worker treats that as fatal for the whole drain, exactly as a
/// corrupt filesystem spool is today.
class SpoolTransport {
 public:
  virtual ~SpoolTransport() = default;

  /// Human-readable origin for diagnostics (the directory, "host:port").
  [[nodiscard]] virtual std::string describe() const = 0;
  /// The spool directory when the transport is filesystem-backed, else ""
  /// — gates local-only features (checkpoint rings).
  [[nodiscard]] virtual std::string local_dir() const { return {}; }

  /// The spool MANIFEST text (sweep or campaign — callers dispatch on the
  /// header line).
  [[nodiscard]] virtual std::string manifest_text() = 0;
  /// A named spool artifact: "shard-XXXX.bundle" (wherever it sits in the
  /// claim lifecycle) or "campaign.bin".
  [[nodiscard]] virtual std::vector<std::uint8_t> fetch_blob(
      const std::string& name) = 0;

  /// Claims the next queued shard for `worker_id`; nullopt when the queue
  /// is drained. Exactly one claimer wins each shard.
  [[nodiscard]] virtual std::optional<ClaimedShard> claim(
      const std::string& worker_id) = 0;
  /// Keeps the claim's lease alive (no-op on the filesystem transport).
  virtual void heartbeat(unsigned id) = 0;
  /// Appends one finished row to the shard's partial part, durably.
  virtual void append_row(unsigned id, const std::string& row) = 0;
  /// Appends one scheduler cost-feedback line (see `cost_line`).
  virtual void append_cost(unsigned id, const std::string& line) = 0;
  /// Finalizes the shard: the accumulated partial rows become the final
  /// part iff their bytes hash (FNV-1a64) to `part_hash`; throws — and
  /// keeps the claim open — otherwise, so a truncated upload can never
  /// become a final part.
  virtual void complete(unsigned id, std::uint64_t part_hash) = 0;
  /// Re-queues orphaned claims (dead workers' shards), keeping their
  /// partial rows for adoption; returns how many went back to the queue.
  /// The operator contract is the spool's: only call when no worker
  /// holding a claim is still alive (the serving side additionally
  /// re-queues on disconnect and lease expiry by itself).
  virtual std::size_t adopt_orphans() = 0;

  /// The shard's *final* part text; throws when the shard is unfinished.
  [[nodiscard]] virtual std::string part_text(unsigned id) = 0;
  /// Progress snapshot (see TransportStatus).
  [[nodiscard]] virtual TransportStatus status() = 0;
};

/// The status schema as JSON — one machine-readable shape for both
/// transports (`sweep_shard status --json` and the serve endpoint).
[[nodiscard]] std::string status_json(const TransportStatus& status);

/// Serializes the status snapshot for the STATUS wire reply.
[[nodiscard]] std::string serialize_transport_status(
    const TransportStatus& status);
/// Parses `serialize_transport_status` output; throws on a malformed reply.
[[nodiscard]] TransportStatus parse_transport_status(const std::string& text);

// --- filesystem transport ----------------------------------------------------

/// The original directory-rename spool as a transport. Works sweep and
/// campaign spools alike (`.bundle` vs `.range` claims).
class FsTransport final : public SpoolTransport {
 public:
  explicit FsTransport(std::string dir) : dir_(std::move(dir)) {}

  /// The spool directory.
  [[nodiscard]] std::string describe() const override { return dir_; }
  /// The spool directory (filesystem-backed, so local features apply).
  [[nodiscard]] std::string local_dir() const override { return dir_; }
  /// Reads `<dir>/MANIFEST`; throws when the spool was never planned.
  [[nodiscard]] std::string manifest_text() override;
  /// Reads a bundle (wherever it sits in the lifecycle) or campaign.bin.
  [[nodiscard]] std::vector<std::uint8_t> fetch_blob(
      const std::string& name) override;
  /// One atomic `rename(queue/X, claimed/X)`; adopts the partial's
  /// complete rows and truncates any torn trailing fragment.
  [[nodiscard]] std::optional<ClaimedShard> claim(
      const std::string& worker_id) override;
  /// No-op: rename-claimed shards have no lease to keep alive.
  void heartbeat(unsigned id) override;
  /// Appends one row to `parts/part-XXXX.partial`, flushed.
  void append_row(unsigned id, const std::string& row) override;
  /// Appends one cost line under `costs/` (advisory; failures ignored).
  void append_cost(unsigned id, const std::string& line) override;
  /// FNV-checks the partial against `part_hash`, finalizes the `.csv`
  /// part atomically, and moves the claim to `done/`.
  void complete(unsigned id, std::uint64_t part_hash) override;
  /// Re-queues claimed shards whose part never became final.
  std::size_t adopt_orphans() override;
  /// Releases shard `id`'s claim: to done/ when its part is final, else
  /// back to the queue with its partial rows kept. True when re-queued.
  bool release(unsigned id);
  /// Reads the final `.csv` part; throws when the shard is unfinished.
  [[nodiscard]] std::string part_text(unsigned id) override;
  /// Scans the directory (sweep or campaign spool alike).
  [[nodiscard]] TransportStatus status() override;

 private:
  std::string dir_;
};

// --- TCP transport -----------------------------------------------------------

/// Client side of the wire protocol: one connection, one worker. Methods
/// map 1:1 onto requests; an ERR reply surfaces as std::runtime_error
/// carrying the server's one-line message.
class TcpTransport final : public SpoolTransport {
 public:
  /// Connects to `host:port`; throws std::runtime_error when unreachable.
  TcpTransport(const std::string& host, int port);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// "host:port" of the coordinator.
  [[nodiscard]] std::string describe() const override { return describe_; }
  /// MANIFEST request.
  [[nodiscard]] std::string manifest_text() override;
  /// BLOB request (bundle or campaign.bin, content-hash-verified by the
  /// caller's parse as on the filesystem).
  [[nodiscard]] std::vector<std::uint8_t> fetch_blob(
      const std::string& name) override;
  /// CLAIM request; the reply carries the bundle image and adopted rows.
  [[nodiscard]] std::optional<ClaimedShard> claim(
      const std::string& worker_id) override;
  /// BEAT request — refreshes the shard's lease.
  void heartbeat(unsigned id) override;
  /// ROW request; the row travels with its FNV hash.
  void append_row(unsigned id, const std::string& row) override;
  /// COST request (advisory scheduler feedback).
  void append_cost(unsigned id, const std::string& line) override;
  /// DONE request; an ERR reply (hash mismatch) surfaces as an exception
  /// and the lease stays open for repair.
  void complete(unsigned id, std::uint64_t part_hash) override;
  /// ADOPT request — asks the server to re-queue leaseless claims.
  std::size_t adopt_orphans() override;
  /// FINAL request — the shard's finished part text, for merging.
  [[nodiscard]] std::string part_text(unsigned id) override;
  /// STATUS request, parsed.
  [[nodiscard]] TransportStatus status() override;

 private:
  /// Sends one request line, reads the reply line; throws on ERR.
  std::string request(const std::string& line);
  /// `request` of a verb answered `OK <len>` plus `len` payload bytes.
  std::string sized_request(const std::string& line);
  /// Reads more bytes into `buffer_`; throws when the connection closed.
  void receive();
  std::string read_line();
  std::string read_bytes(std::size_t count);
  void send_all(const std::string& text);

  int fd_ = -1;
  std::string describe_;
  std::string buffer_;  ///< read-ahead for line framing
};

/// Parses "host:port"; throws std::runtime_error on a malformed endpoint.
struct TcpEndpoint {
  std::string host;
  int port = 0;
};
/// Splits `--connect HOST:PORT` into its parts.
[[nodiscard]] TcpEndpoint parse_endpoint(const std::string& endpoint);

// --- coordinator -------------------------------------------------------------

/// The `sweep_shard serve` coordinator: owns a filesystem spool and
/// leases its shards over TCP. One thread per connection; every spool
/// mutation is serialized under one lock, so the directory stays exactly
/// as consistent as single-host operation. A worker's claims return to
/// the queue when its connection drops or its lease goes `lease_seconds`
/// without activity (CLAIM/ROW/COST/BEAT all refresh it) — partial rows
/// survive for the next claimer.
struct SpoolServerOptions {
  int port = 0;  ///< 0 = ephemeral (read back via port())
  double lease_seconds = 300.0;
};

/// The coordinator itself (see the section comment above).
class SpoolServer {
 public:
  using Options = SpoolServerOptions;

  explicit SpoolServer(std::string dir, Options options = {});
  ~SpoolServer();
  SpoolServer(const SpoolServer&) = delete;
  SpoolServer& operator=(const SpoolServer&) = delete;

  /// Longest request line the server buffers. The longest legal request,
  /// a ROW carrying one energy record, is about 1.4 KB; a connection whose
  /// pending line grows past this gets one ERR reply and is closed.
  static constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

  /// Binds, listens, and starts accepting; throws when the port is taken.
  void start();
  /// The bound port (valid after start()).
  [[nodiscard]] int port() const { return port_; }
  /// Stops accepting, closes every connection, joins all threads.
  void stop();
  /// Live progress including per-worker rates and ETA (thread-safe).
  [[nodiscard]] TransportStatus status();

 private:
  struct Lease {
    std::string worker;
    int conn_fd = -1;
    std::chrono::steady_clock::time_point last_activity;
  };
  struct WorkerStats {
    std::size_t rows = 0;
    std::chrono::steady_clock::time_point first_row;
    std::chrono::steady_clock::time_point last_row;
  };

  /// One served connection. Its descriptor stays open until the thread is
  /// joined, so no other connection can reuse the number meanwhile.
  struct Connection {
    std::thread thread;
    bool finished = false;  ///< the thread is returning (set under mutex_)
  };

  void accept_loop();
  /// Joins finished connection threads and closes their descriptors.
  void reap();
  void serve_connection(int fd);
  /// Handles one request line; returns the reply (ERR included). The
  /// `payload` out-param carries binary reply bytes appended after the
  /// reply line.
  std::string handle(int fd, const std::string& line, std::string& payload);
  /// Re-queues expired leases; caller holds `mutex_`.
  void requeue_expired_locked();
  /// Drops a lease back into the queue; caller holds `mutex_`.
  void requeue_locked(unsigned id);
  /// Re-queues the connection's leases and marks its thread finished.
  void release_connection(int fd);
  TransportStatus status_locked();

  std::string dir_;
  Options options_;
  FsTransport fs_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex mutex_;  ///< guards the spool directory, leases, stats, conns
  std::map<unsigned, Lease> leases_;
  std::map<std::string, WorkerStats> stats_;
  std::map<int, Connection> connections_;  ///< keyed by descriptor
  std::atomic<bool> stopping_{false};
};

}  // namespace ulpsync::scenario
