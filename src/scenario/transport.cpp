#include "scenario/transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/file.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

/// Atomic claim: true when this caller renamed the file (and therefore
/// owns it); false when another worker got there first.
bool try_rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// `text` up to and including its last newline: its complete lines.
std::string complete_prefix(const std::string& text) {
  return text.substr(0, text.rfind('\n') + 1);
}

/// The shard claim extensions a spool can hold: sweep bundles and
/// campaign fault ranges share the claim lifecycle.
constexpr const char* kClaimExtensions[2] = {".bundle", ".range"};

/// Sorted queue/claimed entries with a claimable extension.
std::vector<std::string> claimable_entries(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string ext = it->path().extension().string();
    for (const char* claimable : kClaimExtensions) {
      if (ext == claimable) names.push_back(it->path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// "shard-0007.bundle" -> 7.
unsigned id_of_entry(const std::string& name) {
  return static_cast<unsigned>(std::strtoul(name.c_str() + 6, nullptr, 10));
}

/// The rest of a space-separated line, without its separating space.
std::string rest_of_line(std::istringstream& fields) {
  std::string rest;
  std::getline(fields, rest);
  if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
  return rest;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

/// Locale-free fixed-point rendering for the JSON/status numbers.
std::string fixed3(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

// --- filesystem transport ----------------------------------------------------

std::string FsTransport::manifest_text() {
  if (!fs::exists(dir_ + "/MANIFEST")) {
    throw std::runtime_error("no spool manifest in " + dir_ +
                             " (run `sweep_shard plan` first?)");
  }
  return read_text_file(dir_ + "/MANIFEST");
}

std::vector<std::uint8_t> FsTransport::fetch_blob(const std::string& name) {
  if (name == "campaign.bin") {
    return util::read_file_bytes(dir_ + "/campaign.bin");
  }
  if (name.rfind("shard-", 0) == 0 && name.find('/') == std::string::npos) {
    // The shard's bundle, wherever it currently lives in the claim
    // lifecycle.
    for (const char* sub : {"/done/", "/claimed/", "/queue/"}) {
      const std::string path = dir_ + sub + name;
      if (fs::exists(path)) return util::read_file_bytes(path);
    }
    throw std::runtime_error("shard bundle " + name + " is missing from " +
                             dir_);
  }
  throw std::runtime_error("unknown spool artifact '" + name + "'");
}

std::optional<ClaimedShard> FsTransport::claim(const std::string& worker_id) {
  for (const std::string& name : claimable_entries(dir_ + "/queue")) {
    if (!try_rename(dir_ + "/queue/" + name, dir_ + "/claimed/" + name)) {
      continue;  // another worker got there first; try the next bundle
    }
    ClaimedShard claimed;
    claimed.id = id_of_entry(name);
    const std::string ext = fs::path(name).extension().string();
    claimed.kind = ext.substr(1);
    const std::string stem = name.substr(0, name.size() - ext.size());
    util::write_file_atomic(dir_ + "/claimed/" + stem + ".owner",
                            worker_id + "\n");
    claimed.payload = util::read_file_bytes(dir_ + "/claimed/" + name);
    const std::string partial_path =
        dir_ + "/parts/" + part_name(claimed.id) + ".partial";
    const std::string partial = read_text_file(partial_path);
    // A killed worker may have left a torn trailing row in the partial;
    // truncate back to the adopted complete lines so fresh appends never
    // concatenate onto the fragment.
    const std::string adopted = complete_prefix(partial);
    claimed.rows = split_complete_lines(adopted);
    if (adopted != partial) {
      if (adopted.empty()) {
        std::error_code ec;
        fs::remove(partial_path, ec);
      } else {
        util::write_file_atomic(partial_path, adopted);
      }
    }
    return claimed;
  }
  return std::nullopt;  // queue drained (or raced dry)
}

void FsTransport::heartbeat(unsigned id) {
  (void)id;  // rename-claimed shards have no lease to keep alive
}

void FsTransport::append_row(unsigned id, const std::string& row) {
  const std::string partial = dir_ + "/parts/" + part_name(id) + ".partial";
  std::ofstream out(partial, std::ios::binary | std::ios::app);
  out << row << '\n' << std::flush;
  if (!out) throw std::runtime_error("cannot append to " + partial);
}

void FsTransport::append_cost(unsigned id, const std::string& line) {
  // Cost feedback is advisory: losing it degrades the next plan to the
  // uniform split, so I/O failures here are deliberately not fatal.
  std::error_code ec;
  fs::create_directories(dir_ + "/costs", ec);
  std::ofstream out(dir_ + "/costs/" + part_name(id) + ".cost",
                    std::ios::binary | std::ios::app);
  out << line << '\n' << std::flush;
}

void FsTransport::complete(unsigned id, std::uint64_t part_hash) {
  const std::string partial = dir_ + "/parts/" + part_name(id) + ".partial";
  const std::string part_text = complete_prefix(read_text_file(partial));
  if (util::fnv1a64(part_text) != part_hash) {
    throw std::runtime_error("part of shard " + std::to_string(id) +
                             " failed its content hash (truncated upload?)");
  }
  util::write_file_atomic(dir_ + "/parts/" + part_name(id) + ".csv",
                          part_text);
  std::error_code ec;
  fs::remove(partial, ec);
  release(id);  // the part is final: the claim moves to done/
}

bool FsTransport::release(unsigned id) {
  // A claim whose part is final belongs in done/ (a worker killed between
  // the two renames never moved it). Anything else goes back to the
  // queue; its partial rows stay for the next claimer to adopt, so a
  // vanished worker costs at most the rows in flight.
  const std::string stem = shard_name(id);
  const bool final = fs::exists(dir_ + "/parts/" + part_name(id) + ".csv");
  const std::string to = dir_ + (final ? "/done/" : "/queue/") + stem;
  bool requeued = false;
  for (const char* ext : kClaimExtensions) {
    const std::string claimed = dir_ + "/claimed/" + stem + ext;
    if (fs::exists(claimed) && try_rename(claimed, to + ext)) {
      requeued = !final;
    }
  }
  std::error_code ec;
  fs::remove(dir_ + "/claimed/" + stem + ".owner", ec);
  return requeued;
}

std::size_t FsTransport::adopt_orphans() {
  std::size_t requeued = 0;
  for (const std::string& name : claimable_entries(dir_ + "/claimed")) {
    if (release(id_of_entry(name))) requeued += 1;
  }
  return requeued;
}

std::string FsTransport::part_text(unsigned id) {
  const std::string part = dir_ + "/parts/" + part_name(id) + ".csv";
  if (!fs::exists(part)) {
    throw std::runtime_error("cannot merge: part of shard " +
                             std::to_string(id) + " is not finished (" + part +
                             " missing)");
  }
  return read_text_file(part);
}

TransportStatus FsTransport::status() {
  const SpoolManifest manifest = read_spool_manifest(*this);
  TransportStatus status;
  status.campaign = manifest.campaign;
  status.spool.fingerprint = manifest.fingerprint;
  status.spool.specs = manifest.specs;
  for (const SpoolManifest::Row& row : manifest.shards) {
    ShardState shard;
    shard.id = row.id;
    shard.specs = row.specs;
    const std::string stem = shard_name(row.id);
    const std::string name = stem + "." + manifest.shard_kind();
    if (fs::exists(dir_ + "/done/" + name)) {
      shard.state = "done";
    } else if (fs::exists(dir_ + "/claimed/" + name)) {
      shard.state = "claimed";
      std::ifstream owner(dir_ + "/claimed/" + stem + ".owner");
      std::getline(owner, shard.owner);
    } else if (fs::exists(dir_ + "/queue/" + name)) {
      shard.state = "queued";
    } else {
      shard.state = "lost";
    }
    const std::string part = dir_ + "/parts/" + part_name(row.id);
    shard.part_final = fs::exists(part + ".csv");
    shard.partial_rows =
        split_complete_lines(read_text_file(part + ".partial")).size();
    status.rows_done += shard.part_final ? shard.specs : shard.partial_rows;
    if (shard.state == "queued") status.queue_depth += 1;
    status.spool.shards.push_back(std::move(shard));
  }
  return status;
}

// --- status rendering --------------------------------------------------------

std::string status_json(const TransportStatus& status) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"kind\": \"" << (status.campaign ? "campaign" : "sweep")
      << "\",\n";
  out << "  \"fingerprint\": \"" << util::hex64(status.spool.fingerprint)
      << "\",\n";
  out << "  \"" << (status.campaign ? "faults" : "specs")
      << "\": " << status.spool.specs << ",\n";
  out << "  \"rows_done\": " << status.rows_done << ",\n";
  out << "  \"queue_depth\": " << status.queue_depth << ",\n";
  out << "  \"complete\": " << (status.spool.complete() ? "true" : "false")
      << ",\n";
  out << "  \"eta_seconds\": ";
  if (status.eta_seconds >= 0.0) {
    out << fixed3(status.eta_seconds);
  } else {
    out << "null";
  }
  out << ",\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < status.spool.shards.size(); ++i) {
    const ShardState& shard = status.spool.shards[i];
    out << "    {\"id\": " << shard.id << ", \"specs\": " << shard.specs
        << ", \"state\": \"" << json_escape(shard.state)
        << "\", \"part_final\": " << (shard.part_final ? "true" : "false")
        << ", \"partial_rows\": " << shard.partial_rows << ", \"owner\": \""
        << json_escape(shard.owner) << "\"}"
        << (i + 1 < status.spool.shards.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"workers\": [\n";
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    const WorkerRate& worker = status.workers[i];
    out << "    {\"worker\": \"" << json_escape(worker.worker)
        << "\", \"rows\": " << worker.rows << ", \"rows_per_second\": "
        << fixed3(worker.rows_per_second) << "}"
        << (i + 1 < status.workers.size() ? "," : "") << '\n';
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string serialize_transport_status(const TransportStatus& status) {
  std::ostringstream out;
  out << "ulpsync-status v1\n";
  out << "campaign " << (status.campaign ? 1 : 0) << '\n';
  out << "fingerprint " << util::hex64(status.spool.fingerprint) << '\n';
  out << "specs " << status.spool.specs << '\n';
  out << "rows_done " << status.rows_done << '\n';
  out << "queue_depth " << status.queue_depth << '\n';
  char eta[64];
  std::snprintf(eta, sizeof(eta), "%.6f", status.eta_seconds);
  out << "eta " << eta << '\n';
  for (const ShardState& shard : status.spool.shards) {
    out << "shard " << shard.id << ' ' << shard.specs << ' '
        << (shard.part_final ? 1 : 0) << ' ' << shard.partial_rows << ' '
        << shard.state << ' ' << shard.owner << '\n';
  }
  for (const WorkerRate& worker : status.workers) {
    char rate[64];
    std::snprintf(rate, sizeof(rate), "%.6f", worker.rows_per_second);
    out << "worker " << worker.rows << ' ' << rate << ' ' << worker.worker
        << '\n';
  }
  return out.str();
}

TransportStatus parse_transport_status(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ulpsync-status v1") {
    throw std::runtime_error("malformed status reply");
  }
  TransportStatus status;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "campaign") {
      int value = 0;
      fields >> value;
      status.campaign = value != 0;
    } else if (tag == "fingerprint") {
      std::string hex;
      fields >> hex;
      status.spool.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (tag == "specs") {
      fields >> status.spool.specs;
    } else if (tag == "rows_done") {
      fields >> status.rows_done;
    } else if (tag == "queue_depth") {
      fields >> status.queue_depth;
    } else if (tag == "eta") {
      fields >> status.eta_seconds;
    } else if (tag == "shard") {
      ShardState shard;
      int part_final = 0;
      fields >> shard.id >> shard.specs >> part_final >> shard.partial_rows >>
          shard.state;
      shard.part_final = part_final != 0;
      shard.owner = rest_of_line(fields);
      status.spool.shards.push_back(std::move(shard));
    } else if (tag == "worker") {
      WorkerRate worker;
      fields >> worker.rows >> worker.rows_per_second;
      worker.worker = rest_of_line(fields);
      status.workers.push_back(std::move(worker));
    } else if (!tag.empty()) {
      throw std::runtime_error("malformed status reply line: " + line);
    }
  }
  return status;
}

// --- TCP client --------------------------------------------------------------

TcpEndpoint parse_endpoint(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    throw std::runtime_error("malformed endpoint '" + endpoint +
                             "' (expected host:port)");
  }
  TcpEndpoint parsed;
  parsed.host = endpoint.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port <= 0 || port > 65535) {
    throw std::runtime_error("malformed endpoint '" + endpoint +
                             "' (expected host:port)");
  }
  parsed.port = static_cast<int>(port);
  return parsed;
}

TcpTransport::TcpTransport(const std::string& host, int port) {
  describe_ = host + ":" + std::to_string(port);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &found);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + describe_ + ": " +
                             ::gai_strerror(rc));
  }
  for (const addrinfo* entry = found; entry; entry = entry->ai_next) {
    const int fd =
        ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      fd_ = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(found);
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to " + describe_);
  }
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::send_all(const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      throw std::runtime_error("connection to " + describe_ + " broke");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpTransport::receive() {
  char chunk[4096];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) {
    throw std::runtime_error("connection to " + describe_ + " closed");
  }
  buffer_.append(chunk, static_cast<std::size_t>(n));
}

std::string TcpTransport::read_line() {
  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) receive();
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return line;
}

std::string TcpTransport::read_bytes(std::size_t count) {
  while (buffer_.size() < count) receive();
  std::string bytes = buffer_.substr(0, count);
  buffer_.erase(0, count);
  return bytes;
}

std::string TcpTransport::request(const std::string& line) {
  send_all(line + "\n");
  const std::string reply = read_line();
  if (reply.rfind("ERR ", 0) == 0) {
    throw std::runtime_error(reply.substr(4));
  }
  return reply;
}

std::string TcpTransport::sized_request(const std::string& line) {
  const std::string reply = request(line);
  std::size_t length = 0;
  if (std::sscanf(reply.c_str(), "OK %zu", &length) != 1) {
    throw std::runtime_error("malformed reply to " + line + " from " +
                             describe_);
  }
  return read_bytes(length);
}

std::string TcpTransport::manifest_text() { return sized_request("MANIFEST"); }

std::vector<std::uint8_t> TcpTransport::fetch_blob(const std::string& name) {
  const std::string bytes = sized_request("BLOB " + name);
  return {bytes.begin(), bytes.end()};
}

std::optional<ClaimedShard> TcpTransport::claim(const std::string& worker_id) {
  const std::string reply = request("CLAIM " + worker_id);
  if (reply == "NONE") return std::nullopt;
  ClaimedShard claimed;
  char kind[32] = {0};
  std::size_t payload_length = 0;
  std::size_t rows_length = 0;
  if (std::sscanf(reply.c_str(), "OK %u %31s %zu %zu", &claimed.id, kind,
                  &payload_length, &rows_length) != 4) {
    throw std::runtime_error("malformed CLAIM reply from " + describe_);
  }
  claimed.kind = kind;
  const std::string payload = read_bytes(payload_length);
  claimed.payload.assign(payload.begin(), payload.end());
  claimed.rows = split_complete_lines(read_bytes(rows_length));
  return claimed;
}

void TcpTransport::heartbeat(unsigned id) {
  request("BEAT " + std::to_string(id));
}

void TcpTransport::append_row(unsigned id, const std::string& row) {
  // The per-row hash rejects a row truncated or mangled in flight before
  // it can reach the partial part.
  request("ROW " + std::to_string(id) + " " +
          util::hex64(util::fnv1a64(row)) + " " + row);
}

void TcpTransport::append_cost(unsigned id, const std::string& line) {
  request("COST " + std::to_string(id) + " " + line);
}

void TcpTransport::complete(unsigned id, std::uint64_t part_hash) {
  request("DONE " + std::to_string(id) + " " + util::hex64(part_hash));
}

std::size_t TcpTransport::adopt_orphans() {
  const std::string reply = request("ADOPT");
  std::size_t requeued = 0;
  if (std::sscanf(reply.c_str(), "OK %zu", &requeued) != 1) {
    throw std::runtime_error("malformed ADOPT reply from " + describe_);
  }
  return requeued;
}

std::string TcpTransport::part_text(unsigned id) {
  return sized_request("FINAL " + std::to_string(id));
}

TransportStatus TcpTransport::status() {
  return parse_transport_status(sized_request("STATUS"));
}

// --- coordinator -------------------------------------------------------------

SpoolServer::SpoolServer(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options), fs_(dir_) {}

SpoolServer::~SpoolServer() { stop(); }

void SpoolServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("cannot create server socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot bind port " +
                             std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SpoolServer::stop() {
  if (!accept_thread_.joinable()) return;  // never started, or stopped
  // Shut down, join, then close: the accept thread reads `listen_fd_`
  // until it is joined, so the descriptor is released only after that.
  stopping_ = true;
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::map<int, Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections = std::move(connections_);
    connections_.clear();
  }
  // Every descriptor here is still open (see `reap`), so shutting one down
  // can never hit a recycled fd.
  for (const auto& [fd, connection] : connections) ::shutdown(fd, SHUT_RDWR);
  for (auto& [fd, connection] : connections) {
    connection.thread.join();
    ::close(fd);
  }
}

void SpoolServer::accept_loop() {
  while (!stopping_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    reap();
    if (fd < 0) {
      if (stopping_) break;
      // EINTR retries at once; a persistent failure (EMFILE: out of
      // descriptors) backs off instead of spinning.
      if (errno != EINTR) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      continue;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    connections_[fd].thread = std::thread([this, fd] { serve_connection(fd); });
  }
}

void SpoolServer::reap() {
  std::vector<std::pair<int, std::thread>> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second.finished) {
        finished.emplace_back(it->first, std::move(it->second.thread));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [fd, thread] : finished) {
    thread.join();
    ::close(fd);  // served descriptors close only after their join
  }
}

void SpoolServer::serve_connection(int fd) {
  std::string buffer;
  const auto send_text = [fd](const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  };
  for (;;) {
    // Frame one request line, searching only the bytes not yet scanned.
    std::size_t scanned = 0;
    std::size_t newline;
    while ((newline = buffer.find('\n', scanned)) == std::string::npos &&
           buffer.size() <= kMaxRequestLine) {
      scanned = buffer.size();
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        release_connection(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    if (newline > kMaxRequestLine) {
      // Over-long (or never-ending) line: one ERR, then the peer sees the
      // connection close. The descriptor itself is closed after the join.
      send_text("ERR request line longer than " +
                std::to_string(kMaxRequestLine) + " bytes\n");
      ::shutdown(fd, SHUT_RDWR);
      release_connection(fd);
      return;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);

    std::string payload;
    std::string reply;
    try {
      reply = handle(fd, line, payload);
    } catch (const std::exception& error) {
      reply = std::string("ERR ") + error.what();
      payload.clear();
    }
    if (!send_text(reply + "\n" + payload)) {
      release_connection(fd);
      return;
    }
  }
}

std::string SpoolServer::handle(int fd, const std::string& line,
                                std::string& payload) {
  std::istringstream fields(line);
  std::string verb;
  fields >> verb;
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Replies that carry bytes: `OK <len>`, the bytes following the line.
  const auto sized = [&payload](std::string bytes) {
    payload = std::move(bytes);
    return "OK " + std::to_string(payload.size());
  };

  if (verb == "MANIFEST") return sized(fs_.manifest_text());
  if (verb == "BLOB") {
    std::string name;
    fields >> name;
    const std::vector<std::uint8_t> bytes = fs_.fetch_blob(name);
    return sized({bytes.begin(), bytes.end()});
  }
  if (verb == "CLAIM") {
    std::string worker = rest_of_line(fields);
    if (worker.empty()) worker = "anonymous";
    requeue_expired_locked();
    const auto claimed = fs_.claim(worker);
    if (!claimed) return "NONE";
    leases_[claimed->id] = Lease{worker, fd, now};
    std::string rows_text;
    for (const std::string& row : claimed->rows) rows_text += row + '\n';
    payload.assign(claimed->payload.begin(), claimed->payload.end());
    payload += rows_text;
    return "OK " + std::to_string(claimed->id) + " " + claimed->kind + " " +
           std::to_string(claimed->payload.size()) + " " +
           std::to_string(rows_text.size());
  }
  const auto shard_id = [&fields, &verb]() {
    unsigned id = 0;
    if (!(fields >> id)) throw std::runtime_error(verb + " needs a shard id");
    return id;
  };
  if (verb == "ROW" || verb == "COST" || verb == "BEAT" || verb == "DONE") {
    const unsigned id = shard_id();
    const auto lease = leases_.find(id);
    if (lease == leases_.end() || lease->second.conn_fd != fd) {
      // A vanished worker's lease was re-queued (and possibly re-claimed);
      // rejecting the zombie keeps a single writer per partial part.
      throw std::runtime_error("shard " + std::to_string(id) +
                               " is not leased by this connection");
    }
    lease->second.last_activity = now;
    if (verb == "BEAT") return "OK";
    if (verb == "ROW") {
      std::string hex;
      fields >> hex;
      const std::string row = rest_of_line(fields);
      if (util::fnv1a64(row) != std::strtoull(hex.c_str(), nullptr, 16)) {
        throw std::runtime_error("row for shard " + std::to_string(id) +
                                 " failed its content hash");
      }
      fs_.append_row(id, row);
      WorkerStats& stats = stats_[lease->second.worker];
      if (stats.rows == 0) stats.first_row = now;
      stats.rows += 1;
      stats.last_row = now;
      return "OK";
    }
    if (verb == "COST") {
      fs_.append_cost(id, rest_of_line(fields));
      return "OK";
    }
    // DONE: the hash check inside complete() keeps the claim open on a
    // truncated upload — the worker sees the ERR and can retry or die
    // without the part ever finalizing short.
    std::string hex;
    fields >> hex;
    fs_.complete(id, std::strtoull(hex.c_str(), nullptr, 16));
    leases_.erase(id);
    return "OK";
  }
  if (verb == "ADOPT") {
    requeue_expired_locked();
    // Orphans: claimed shards no live lease covers (a previous server
    // run, or a worker that died while we were not looking).
    std::size_t requeued = 0;
    for (const std::string& name : claimable_entries(dir_ + "/claimed")) {
      const unsigned id = id_of_entry(name);
      if (leases_.count(id) != 0) continue;
      requeue_locked(id);
      requeued += 1;
    }
    return "OK " + std::to_string(requeued);
  }
  if (verb == "STATUS") {
    return sized(serialize_transport_status(status_locked()));
  }
  if (verb == "FINAL") return sized(fs_.part_text(shard_id()));
  throw std::runtime_error("unknown request '" + verb + "'");
}

void SpoolServer::requeue_expired_locked() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<unsigned> expired;
  for (const auto& [id, lease] : leases_) {
    const double idle =
        std::chrono::duration<double>(now - lease.last_activity).count();
    if (idle > options_.lease_seconds) expired.push_back(id);
  }
  for (const unsigned id : expired) requeue_locked(id);
}

void SpoolServer::requeue_locked(unsigned id) {
  fs_.release(id);
  leases_.erase(id);
}

void SpoolServer::release_connection(int fd) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<unsigned> held;
  for (const auto& [id, lease] : leases_) {
    if (lease.conn_fd == fd) held.push_back(id);
  }
  for (const unsigned id : held) requeue_locked(id);
  // The thread is about to return; the accept loop (or stop()) joins it
  // and closes the descriptor.
  if (const auto it = connections_.find(fd); it != connections_.end()) {
    it->second.finished = true;
  }
}

TransportStatus SpoolServer::status() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return status_locked();
}

TransportStatus SpoolServer::status_locked() {
  TransportStatus status = fs_.status();
  const auto now = std::chrono::steady_clock::now();
  double total_rate = 0.0;
  for (const auto& [worker, stats] : stats_) {
    WorkerRate rate;
    rate.worker = worker;
    rate.rows = stats.rows;
    if (stats.rows >= 2) {
      const double elapsed =
          std::chrono::duration<double>(stats.last_row - stats.first_row)
              .count();
      if (elapsed > 0.0) {
        rate.rows_per_second =
            static_cast<double>(stats.rows - 1) / elapsed;
      }
    }
    // A worker silent for a while no longer contributes to the ETA.
    const double idle =
        std::chrono::duration<double>(now - stats.last_row).count();
    if (idle <= options_.lease_seconds) total_rate += rate.rows_per_second;
    status.workers.push_back(std::move(rate));
  }
  if (total_rate > 0.0 && status.spool.specs >= status.rows_done) {
    status.eta_seconds =
        static_cast<double>(status.spool.specs - status.rows_done) /
        total_rate;
  }
  return status;
}

}  // namespace ulpsync::scenario
