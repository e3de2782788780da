// The spool-transport layer (scenario/transport.h): filesystem vs TCP
// byte-identity, double-claim races, vanished-worker lease recovery,
// hash-gated part uploads, cost-model scheduling, and the one status
// schema both transports render.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/wire.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/transport_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<RunSpec> small_sweep_specs() {
  std::vector<RunSpec> specs;
  for (const unsigned samples : {8u, 12u, 16u, 24u}) {
    RunSpec spec;
    spec.workload = "sqrt32";
    spec.params.samples = samples;
    spec.max_cycles = 2'000'000;
    spec.design = DesignVariant::synchronized();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string single_process_csv(const std::vector<RunSpec>& specs) {
  const Engine engine(Registry::builtins());
  return to_csv(engine.run(specs));
}

std::uint64_t hash_text(const std::string& text) {
  return fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

// --- line splitting ----------------------------------------------------------

TEST(Transport, SplitCompleteLinesDropsTornTail) {
  EXPECT_TRUE(split_complete_lines("").empty());
  EXPECT_TRUE(split_complete_lines("torn").empty());
  const auto lines = split_complete_lines("a\nb\ntorn");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

// --- claim races -------------------------------------------------------------

TEST(Transport, FsDoubleClaimHasOneWinner) {
  const std::string dir = scratch_dir("fs_race");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  FsTransport a(dir);
  FsTransport b(dir);
  const auto first = a.claim("worker-a");
  const auto second = b.claim("worker-b");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, "bundle");
  EXPECT_FALSE(second.has_value());  // exactly one claimer wins
}

TEST(Transport, ConcurrentFsClaimsNeverOverlap) {
  const std::string dir = scratch_dir("fs_race_many");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 4});

  std::vector<std::vector<unsigned>> claimed(4);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < 4; ++w) {
    pool.emplace_back([&, w] {
      FsTransport transport(dir);
      while (const auto shard = transport.claim("w" + std::to_string(w))) {
        claimed[w].push_back(shard->id);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  std::vector<unsigned> all;
  for (const auto& ids : claimed) all.insert(all.end(), ids.begin(), ids.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<unsigned>{0, 1, 2, 3}));  // each shard once
}

TEST(Transport, TcpDoubleClaimHasOneWinner) {
  const std::string dir = scratch_dir("tcp_race");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport a("127.0.0.1", server.port());
    TcpTransport b("127.0.0.1", server.port());
    const auto first = a.claim("worker-a");
    const auto second = b.claim("worker-b");
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(second.has_value());
  }
  server.stop();
}

// --- vanished workers --------------------------------------------------------

TEST(Transport, ServerRequeuesExpiredLeaseAndFencesZombie) {
  const std::string dir = scratch_dir("lease_expiry");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer::Options options;
  options.lease_seconds = 0.05;  // expire almost immediately
  SpoolServer server(dir, options);
  server.start();
  {
    TcpTransport zombie("127.0.0.1", server.port());
    const auto claim = zombie.claim("zombie");
    ASSERT_TRUE(claim.has_value());
    zombie.append_row(claim->id, "row-from-zombie");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // A healthy worker claims after the lease lapsed: the shard re-queues
    // and the zombie's complete rows come along for adoption.
    TcpTransport healthy("127.0.0.1", server.port());
    const auto reclaim = healthy.claim("healthy");
    ASSERT_TRUE(reclaim.has_value());
    EXPECT_EQ(reclaim->id, claim->id);
    ASSERT_EQ(reclaim->rows.size(), 1u);
    EXPECT_EQ(reclaim->rows[0], "row-from-zombie");

    // The zombie is fenced: its lease is gone, so its writes bounce
    // instead of corrupting the new claimer's part.
    EXPECT_THROW(zombie.append_row(claim->id, "late-row"),
                 std::runtime_error);
  }
  server.stop();
}

TEST(Transport, ServerRequeuesOnDisconnect) {
  const std::string dir = scratch_dir("disconnect");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    auto worker =
        std::make_unique<TcpTransport>("127.0.0.1", server.port());
    ASSERT_TRUE(worker->claim("doomed").has_value());
    worker.reset();  // connection drops with the claim still open

    // The server notices the disconnect and re-queues; poll briefly since
    // the release runs on the connection thread.
    TcpTransport next("127.0.0.1", server.port());
    std::optional<ClaimedShard> reclaim;
    for (int attempt = 0; attempt < 100 && !reclaim; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      reclaim = next.claim("successor");
    }
    ASSERT_TRUE(reclaim.has_value());
    EXPECT_EQ(reclaim->id, 0u);
  }
  server.stop();
}

TEST(Transport, FsAdoptOrphansRequeuesDeadClaims) {
  const std::string dir = scratch_dir("fs_adopt");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  {
    FsTransport dead(dir);
    const auto claim = dead.claim("dead-worker");
    ASSERT_TRUE(claim.has_value());
    dead.append_row(claim->id, "partial-row");
    // ... SIGKILL: the claim stays in claimed/, the partial stays put.
  }
  FsTransport next(dir);
  EXPECT_FALSE(next.claim("too-early").has_value());  // still claimed
  EXPECT_EQ(next.adopt_orphans(), 1u);
  const auto reclaim = next.claim("successor");
  ASSERT_TRUE(reclaim.has_value());
  ASSERT_EQ(reclaim->rows.size(), 1u);
  EXPECT_EQ(reclaim->rows[0], "partial-row");
}

// --- hash-gated uploads ------------------------------------------------------

TEST(Transport, TruncatedUploadRejectedThenRecovers) {
  const std::string dir = scratch_dir("truncated_upload");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    const auto claim = worker.claim("uploader");
    ASSERT_TRUE(claim.has_value());
    worker.append_row(claim->id, "row-one");
    worker.append_row(claim->id, "row-two");

    // The worker believes the part holds three rows (one never arrived):
    // the content hash disagrees with what the spool accumulated, so DONE
    // is rejected and the part stays partial.
    EXPECT_THROW(
        worker.complete(claim->id,
                        hash_text("row-one\nrow-two\nrow-lost\n")),
        std::runtime_error);
    EXPECT_FALSE(fs::exists(dir + "/parts/part-0000.csv"));

    // The claim survived the failed upload: send the missing row and
    // finalize with the true hash.
    worker.append_row(claim->id, "row-lost");
    worker.complete(claim->id, hash_text("row-one\nrow-two\nrow-lost\n"));
    EXPECT_TRUE(fs::exists(dir + "/parts/part-0000.csv"));
  }
  server.stop();
}

TEST(Transport, TcpRejectsRowForUnleasedShard) {
  const std::string dir = scratch_dir("unleased_row");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    ASSERT_TRUE(worker.claim("w").has_value());
    // Unleased shard ids bounce too.
    EXPECT_THROW(worker.append_row(7, "row"), std::runtime_error);
  }
  server.stop();
}

/// A bare protocol client: sends request lines verbatim, so tests can say
/// what `TcpTransport` never would.
class RawClient {
 public:
  explicit RawClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // A server that never answers fails the test instead of hanging it.
    const timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  /// Sends `bytes` verbatim; false when the server is gone.
  bool send_raw(const std::string& bytes) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// The next reply line.
  std::string read_line() {
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) fill();
    const std::string reply = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return reply;
  }
  /// Sends `line` and returns the reply line.
  std::string request(const std::string& line) {
    EXPECT_TRUE(send_raw(line + "\n"));
    return read_line();
  }
  /// True when the server closed the connection with nothing left unread.
  bool closed() {
    char byte = 0;
    return buffer_.empty() && ::recv(fd_, &byte, 1, 0) == 0;
  }
  /// Makes the destructor reset the connection instead of closing it.
  void reset_on_close() {
    const linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
  }
  /// Consumes `count` payload bytes that followed the last reply.
  void skip(std::size_t count) {
    while (buffer_.size() < count) fill();
    buffer_.erase(0, count);
  }

 private:
  void fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      throw std::runtime_error("no reply: the server closed the connection "
                               "or went silent");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  int fd_;
  std::string buffer_;
};

TEST(Transport, MalformedRequestsGetErrAndTheSpoolStillMerges) {
  const std::string dir = scratch_dir("malformed");
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string expected = single_process_csv(specs);
  plan_spool(dir, specs, Registry::builtins(), {.shards = 2});

  SpoolServer server(dir);
  server.start();
  {
    RawClient raw(server.port());
    // Hold a lease, so row requests get as far as their own checks.
    unsigned id = 0;
    std::size_t payload = 0;
    std::size_t rows = 0;
    const std::string claim = raw.request("CLAIM raw");
    ASSERT_EQ(std::sscanf(claim.c_str(), "OK %u bundle %zu %zu", &id, &payload,
                          &rows),
              3)
        << claim;
    raw.skip(payload + rows);
    const std::string shard = std::to_string(id);
    const std::string row = "complete-row";
    for (const std::string& line :
         {std::string("FROB ") + shard,                         // unknown verb
          std::string("BEAT"),                                  // missing id
          "ROW " + shard + " 0123456789abcdef " + row,          // bad row FNV
          "ROW " + shard + " " + util::hex64(util::fnv1a64(row)) +
              " complete-r",                                    // cut short
          "ROW " + shard}) {                                    // truncated
      EXPECT_EQ(raw.request(line).rfind("ERR ", 0), 0u) << line;
    }
    EXPECT_EQ(raw.request("BEAT " + shard), "OK");  // the lease survived
  }  // the raw connection drops; its claim goes back to the queue

  // The release runs on the connection's thread: wait for the re-queue.
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (server.status().queue_depth == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.status().queue_depth, 2u);
  {
    TcpTransport worker("127.0.0.1", server.port());
    const auto job = sweep_job(worker, read_spool_manifest(worker),
                               Registry::builtins(), {});
    drain_spool(worker, *job, "after-garbage", /*resume=*/false,
                /*max_shards=*/0, /*jobs=*/1);
    EXPECT_EQ(merge_spool(worker), expected);
  }
  server.stop();
  EXPECT_EQ(merge_spool(dir), expected);
}

TEST(Transport, RandomByteStreamsNeitherCrashNorWedgeTheServer) {
  const std::string dir = scratch_dir("fuzz");
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string expected = single_process_csv(specs);
  plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  const std::string manifest_reply =
      "OK " + std::to_string(FsTransport(dir).manifest_text().size());

  SpoolServer server(dir);
  server.start();
  // Whatever the last client sent, a fresh connection is still served.
  const auto still_serving = [&] {
    RawClient probe(server.port());
    EXPECT_EQ(probe.request("MANIFEST"), manifest_reply);
  };

  // A request line at the bound is served; one byte more gets exactly one
  // ERR and the connection closes, whether or not a newline (and another
  // request) follows.
  const std::string longest =
      "MANIFEST" + std::string(SpoolServer::kMaxRequestLine - 8, ' ');
  {
    RawClient raw(server.port());
    EXPECT_EQ(raw.request(longest), manifest_reply);
  }
  for (const std::string tail : {" ", " \nMANIFEST\n"}) {
    RawClient raw(server.port());
    ASSERT_TRUE(raw.send_raw(longest + tail));
    EXPECT_EQ(raw.read_line().rfind("ERR ", 0), 0u);
    EXPECT_TRUE(raw.closed());
  }
  still_serving();

  util::Rng rng(2024);
  const auto noise = [&rng](std::size_t length) {
    std::string bytes(length, '\0');
    for (char& byte : bytes) {
      const std::uint64_t draw = rng.next_below(32);
      if (draw == 0) {
        byte = '\n';
      } else if (draw > 1) {  // 1 keeps the NUL
        byte = static_cast<char>(rng.next_below(256));
      }
    }
    return bytes;
  };
  const char* const verbs[] = {"MANIFEST", "BLOB", "CLAIM", "ROW",    "COST",
                               "BEAT",     "DONE", "ADOPT", "STATUS", "FINAL"};
  for (int stream = 0; stream < 48; ++stream) {
    RawClient raw(server.port());
    if (stream % 2 == 0) {
      // Random bytes with embedded NULs and newlines: one ERR per line.
      const std::string bytes = noise(1 + rng.next_below(8192)) + "\n";
      ASSERT_TRUE(raw.send_raw(bytes));
      const auto lines = std::count(bytes.begin(), bytes.end(), '\n');
      for (std::ptrdiff_t line = 0; line < lines; ++line) {
        ASSERT_EQ(raw.read_line().rfind("ERR ", 0), 0u) << "stream " << stream;
      }
      EXPECT_EQ(raw.request("MANIFEST"), manifest_reply);
    } else {
      // Known verbs with random operands (claims included), cut off at a
      // random byte by an abrupt close; every other one resets instead.
      std::string bytes;
      for (std::uint64_t line = 1 + rng.next_below(16); line > 0; --line) {
        bytes += verbs[rng.next_below(std::size(verbs))];
        for (std::uint64_t field = rng.next_below(4); field > 0; --field) {
          bytes += ' ' + std::to_string(rng.next_below(4)) +
                   noise(rng.next_below(24));
        }
        bytes += '\n';
      }
      bytes.resize(rng.next_below(bytes.size() + 1));
      if (stream % 4 == 1) raw.reset_on_close();
      (void)raw.send_raw(bytes);
    }
  }
  still_serving();

  // Every claim the garbage took goes back to the queue once its
  // connection's thread has let go; then a normal worker drains it.
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (server.status().queue_depth == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.status().queue_depth, 2u);
  {
    TcpTransport worker("127.0.0.1", server.port());
    const auto job = sweep_job(worker, read_spool_manifest(worker),
                               Registry::builtins(), {});
    drain_spool(worker, *job, "after-fuzz", /*resume=*/false,
                /*max_shards=*/0, /*jobs=*/1);
    EXPECT_EQ(merge_spool(worker), expected);
  }
  server.stop();
  EXPECT_EQ(merge_spool(dir), expected);
}

// --- byte identity across transports ----------------------------------------

TEST(Transport, TcpWorkersMergeByteIdenticalToSingleProcess) {
  const std::string dir = scratch_dir("tcp_identity");
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string expected = single_process_csv(specs);
  plan_spool(dir, specs, Registry::builtins(), {.shards = 3});

  SpoolServer server(dir);
  server.start();
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < 2; ++w) {
    pool.emplace_back([&, w] {
      TcpTransport transport("127.0.0.1", server.port());
      const auto job = sweep_job(transport, read_spool_manifest(transport),
                                 Registry::builtins(), {});
      drain_spool(transport, *job, "tcp-" + std::to_string(w),
                  /*resume=*/false, /*max_shards=*/0, /*jobs=*/1);
    });
  }
  for (auto& worker : pool) worker.join();

  TcpTransport merger("127.0.0.1", server.port());
  EXPECT_EQ(merge_spool(merger), expected);
  // The filesystem view of the same spool merges to the same bytes.
  EXPECT_EQ(merge_spool(dir), expected);
  server.stop();
}

TEST(Transport, CampaignOverTcpMatchesSingleProcess) {
  const std::string dir = scratch_dir("tcp_campaign");
  RunSpec spec;
  spec.workload = "sleepgen";
  spec.params.samples = 12;
  spec.max_cycles = 3'000'000;
  spec.design = DesignVariant::synchronized();
  RecordOutcome outcome = record_one(spec, Registry::builtins());
  ASSERT_TRUE(outcome.record.ok()) << outcome.record.verify_error;

  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle, ErrorModel::kIm};
  config.count = 2;
  config.seed = 7;
  const std::string expected = campaign_csv(
      run_campaign(outcome.recorded, Registry::builtins(), config, 2));

  plan_campaign_spool(dir, outcome.recorded, config, Registry::builtins(),
                      {.shards = 2});
  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    const auto job = campaign_job(worker, read_spool_manifest(worker),
                                  Registry::builtins());
    drain_spool(worker, *job, "campaign-tcp", /*resume=*/false,
                /*max_shards=*/0, /*jobs=*/2);

    TcpTransport merger("127.0.0.1", server.port());
    EXPECT_TRUE(read_spool_manifest(merger).campaign);
    EXPECT_EQ(merge_spool(merger), expected);
  }
  EXPECT_EQ(merge_campaign_spool(dir), expected);
  server.stop();
}

// --- cost-model scheduling ---------------------------------------------------

TEST(CostModel, AbsorbRejectsForeignLinesWithoutPoisoning) {
  CostModel model;
  EXPECT_FALSE(absorb_cost_line(model, ""));
  EXPECT_FALSE(absorb_cost_line(model, "not a cost line"));
  EXPECT_FALSE(absorb_cost_line(model, "cost zz sqrt32 10 0.5"));
  EXPECT_FALSE(absorb_cost_line(model, "cost 0123456789abcdef sqrt32 10 -1"));
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(
      absorb_cost_line(model, "cost 0123456789abcdef sqrt32 10 2.5e-3"));
  EXPECT_FALSE(model.empty());
  EXPECT_EQ(model.by_spec.size(), 1u);
  EXPECT_EQ(model.by_workload.at("sqrt32").runs, 1u);
}

TEST(CostModel, PredictFallsBackSpecThenWorkloadThenUniform) {
  RunSpec seen = small_sweep_specs()[0];
  CostModel model;
  model.add(spec_cost_key(seen), seen.workload, 1'000, 0.25);
  model.add(spec_cost_key(seen), seen.workload, 1'000, 0.75);

  // Exact identity: the mean of its own measurements.
  EXPECT_DOUBLE_EQ(model.predict(seen), 0.5);

  // Unseen spec of a seen workload: seconds-per-cycle rate times budget.
  RunSpec sibling = seen;
  sibling.params.samples += 1;
  sibling.max_cycles = 4'000;
  EXPECT_DOUBLE_EQ(model.predict(sibling), 0.5 / 1'000 * 4'000);

  // Unseen workload: uniform.
  RunSpec foreign = seen;
  foreign.workload = "mrpfltr";
  EXPECT_DOUBLE_EQ(model.predict(foreign), 1.0);
}

TEST(CostModel, EmptyModelKeepsThePlanByteIdentical) {
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string plain = scratch_dir("plan_plain");
  const std::string costed = scratch_dir("plan_empty_costs");
  plan_spool(plain, specs, Registry::builtins(), {.shards = 3});
  SpoolOptions options;
  options.shards = 3;
  options.costs = CostModel{};  // explicit empty model
  plan_spool(costed, specs, Registry::builtins(), options);
  EXPECT_EQ(util::read_file_bytes(plain + "/MANIFEST"),
            util::read_file_bytes(costed + "/MANIFEST"));
}

TEST(CostModel, SkewedCostsResizeShardsAndMergeStaysIdentical) {
  // Three cheap specs and one 100x-heavier one: count-balancing splits
  // 2/2, cost-balancing isolates the heavy spec (and numbers its shard
  // first so workers start the long pole immediately).
  std::vector<RunSpec> specs = small_sweep_specs();
  CostModel model;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double wall = i == 2 ? 1.0 : 0.01;
    model.add(spec_cost_key(specs[i]), specs[i].workload, 1'000, wall);
  }

  const std::string plain = scratch_dir("plan_uniform");
  const std::string costed = scratch_dir("plan_costed");
  plan_spool(plain, specs, Registry::builtins(), {.shards = 2});
  SpoolOptions options;
  options.shards = 2;
  options.costs = model;
  plan_spool(costed, specs, Registry::builtins(), options);

  const auto plain_manifest = parse_spool_manifest_text(
      std::string(reinterpret_cast<const char*>(
                      util::read_file_bytes(plain + "/MANIFEST").data()),
                  util::read_file_bytes(plain + "/MANIFEST").size()),
      "plain");
  const auto costed_manifest = parse_spool_manifest_text(
      std::string(reinterpret_cast<const char*>(
                      util::read_file_bytes(costed + "/MANIFEST").data()),
                  util::read_file_bytes(costed + "/MANIFEST").size()),
      "costed");
  ASSERT_EQ(plain_manifest.shards.size(), 2u);
  ASSERT_EQ(costed_manifest.shards.size(), 2u);
  EXPECT_EQ(plain_manifest.shards[0].specs, 2u);
  EXPECT_EQ(plain_manifest.shards[1].specs, 2u);
  // The heavy spec sits alone on shard 0 (heaviest-first numbering).
  EXPECT_EQ(costed_manifest.shards[0].specs, 1u);
  EXPECT_EQ(costed_manifest.shards[1].specs, 3u);

  // Shard membership never touches merged bytes.
  work_spool(costed, Registry::builtins(), {.worker_id = "cost-worker"});
  EXPECT_EQ(merge_spool(costed), single_process_csv(specs));
}

TEST(CostModel, WorkersFeedCostsBackThroughTheSpool) {
  const std::string dir = scratch_dir("cost_feedback");
  const std::vector<RunSpec> specs = small_sweep_specs();
  plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  work_spool(dir, Registry::builtins(), {.worker_id = "feedback"});

  const CostModel model = load_cost_model({dir});
  EXPECT_EQ(model.by_spec.size(), specs.size());
  for (const RunSpec& spec : specs) {
    EXPECT_TRUE(model.by_spec.count(spec_cost_key(spec)) == 1)
        << "spec missing from the fed-back cost model";
  }
}

// --- status schema -----------------------------------------------------------

TEST(Transport, StatusRoundTripsAndRendersJson) {
  const std::string dir = scratch_dir("status");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 2});

  FsTransport transport(dir);
  {
    const auto claim = transport.claim("status-worker");
    ASSERT_TRUE(claim.has_value());
    transport.append_row(claim->id, "one-row");
  }
  const TransportStatus status = transport.status();
  EXPECT_FALSE(status.campaign);
  EXPECT_EQ(status.spool.specs, 4u);
  EXPECT_EQ(status.queue_depth, 1u);
  EXPECT_EQ(status.rows_done, 1u);

  // Wire round-trip (what STATUS serves) preserves every field.
  const TransportStatus parsed =
      parse_transport_status(serialize_transport_status(status));
  EXPECT_EQ(parsed.campaign, status.campaign);
  EXPECT_EQ(parsed.spool.fingerprint, status.spool.fingerprint);
  EXPECT_EQ(parsed.spool.specs, status.spool.specs);
  EXPECT_EQ(parsed.rows_done, status.rows_done);
  EXPECT_EQ(parsed.queue_depth, status.queue_depth);
  ASSERT_EQ(parsed.spool.shards.size(), status.spool.shards.size());
  for (std::size_t i = 0; i < parsed.spool.shards.size(); ++i) {
    EXPECT_EQ(parsed.spool.shards[i].state, status.spool.shards[i].state);
    EXPECT_EQ(parsed.spool.shards[i].owner, status.spool.shards[i].owner);
    EXPECT_EQ(parsed.spool.shards[i].partial_rows,
              status.spool.shards[i].partial_rows);
  }

  // The JSON schema: one shape for both transports.
  const std::string json = status_json(status);
  EXPECT_NE(json.find("\"kind\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_done\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(json.find("\"eta_seconds\": null"), std::string::npos);
  EXPECT_NE(json.find("\"owner\": \"status-worker\""), std::string::npos);
}

}  // namespace
}  // namespace ulpsync::scenario
