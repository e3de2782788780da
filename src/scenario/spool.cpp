#include "scenario/spool.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "scenario/record.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "util/parallel.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace {

constexpr std::string_view kSweepHeader = "ulpsync-spool v1";
constexpr std::string_view kCampaignHeader = "ulpsync-campaign-spool v1";

/// The global indices of one shard's rows, for the merge: a campaign
/// range's are in the manifest, a sweep bundle lists its own.
std::vector<std::uint64_t> shard_indices(SpoolTransport& transport,
                                         const SpoolManifest& manifest,
                                         const SpoolManifest::Row& shard) {
  if (!manifest.campaign) {
    return parse_bundle_bytes(
               transport.fetch_blob(shard_name(shard.id) + ".bundle"),
               "shard bundle " + std::to_string(shard.id) + " from " +
                   transport.describe())
        .indices;
  }
  std::vector<std::uint64_t> indices(shard.specs);
  std::iota(indices.begin(), indices.end(), shard.begin);
  return indices;
}

}  // namespace

SpoolManifest parse_spool_manifest_text(const std::string& text,
                                        const std::string& what) {
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  SpoolManifest manifest;
  manifest.campaign = line == kCampaignHeader;
  if (!manifest.campaign && line != kSweepHeader) {
    throw std::runtime_error("malformed spool manifest in " + what);
  }
  const std::string count_tag = manifest.campaign ? "faults" : "specs";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "fingerprint") {
      std::string hex;
      fields >> hex;
      manifest.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (tag == count_tag) {
      fields >> manifest.specs;
    } else if (tag == "shards") {
      continue;  // redundant with the shard rows; kept for readability
    } else if (tag == "shard") {
      // Sweeps: id, spec count, bundle hash. Campaigns: id, fault range.
      SpoolManifest::Row row;
      bool ok = false;
      if (manifest.campaign) {
        std::uint64_t end = 0;
        fields >> row.id >> row.begin >> end;
        ok = !fields.fail() && end >= row.begin;
        row.specs = static_cast<std::size_t>(end - row.begin);
      } else {
        std::string hex;
        fields >> row.id >> row.specs >> hex;
        ok = !fields.fail() && !hex.empty();
        row.bundle_hash = std::strtoull(hex.c_str(), nullptr, 16);
      }
      if (!ok) {
        throw std::runtime_error("malformed shard row in spool manifest: " +
                                 line);
      }
      manifest.shards.push_back(row);
    } else if (!tag.empty()) {
      throw std::runtime_error("unknown spool manifest directive: " + line);
    }
  }
  if (manifest.shards.empty()) {
    throw std::runtime_error("spool manifest lists no shards in " + what);
  }
  return manifest;
}

SpoolManifest read_spool_manifest(SpoolTransport& transport) {
  return parse_spool_manifest_text(transport.manifest_text(),
                                   transport.describe());
}

std::string spool_manifest_text(const SpoolManifest& manifest) {
  std::ostringstream out;
  out << (manifest.campaign ? kCampaignHeader : kSweepHeader) << '\n';
  out << "fingerprint " << util::hex64(manifest.fingerprint) << '\n';
  out << (manifest.campaign ? "faults " : "specs ") << manifest.specs << '\n';
  out << "shards " << manifest.shards.size() << '\n';
  for (const SpoolManifest::Row& row : manifest.shards) {
    out << "shard " << row.id << ' ';
    if (manifest.campaign) {
      out << row.begin << ' ' << row.begin + row.specs;
    } else {
      out << row.specs << ' ' << util::hex64(row.bundle_hash);
    }
    out << '\n';
  }
  return out.str();
}

std::string shard_name(unsigned id) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%04u", id);
  return buffer;
}

std::string part_name(unsigned id) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "part-%04u", id);
  return buffer;
}

std::vector<std::string> split_complete_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

void create_spool_dirs(const std::string& dir) {
  namespace fs = std::filesystem;
  if (fs::exists(dir + "/MANIFEST")) {
    throw std::runtime_error("spool " + dir +
                             " is already planned; use a fresh directory");
  }
  for (const char* sub : {"/queue", "/claimed", "/done", "/parts"}) {
    std::error_code ec;
    fs::create_directories(dir + sub, ec);
    if (ec) {
      throw std::runtime_error("cannot create spool directory " + dir + sub +
                               ": " + ec.message());
    }
  }
}

WorkReport drain_spool(SpoolTransport& transport, SpoolJob& job,
                       const std::string& worker_id, bool resume,
                       std::size_t max_shards, unsigned jobs) {
  const std::string worker =
      worker_id.empty() ? std::to_string(::getpid()) : worker_id;
  if (resume) transport.adopt_orphans();

  WorkReport report;
  while (max_shards == 0 || report.shards_completed < max_shards) {
    const auto claimed = transport.claim(worker);
    if (!claimed) break;  // queue drained (or raced dry)
    const std::string shard = "shard " + std::to_string(claimed->id);
    if (claimed->kind != job.manifest.shard_kind()) {
      throw std::runtime_error(shard + " is a " + claimed->kind +
                               " claim in a spool of " +
                               job.manifest.shard_kind() + "s");
    }
    const std::vector<std::uint64_t> indices = job.claim(*claimed);

    std::vector<std::string> rows = claimed->rows;
    if (rows.size() > indices.size()) {
      throw std::runtime_error("partial part of " + shard +
                               " has more rows than the shard has jobs");
    }
    report.rows_reused += rows.size();

    // Rows already present are skipped, not re-run: they are
    // deterministic, so adopting them is byte-identical and a resumed
    // spool never repeats finished work. The rest run in blocks whose rows
    // stream back in index order, so a kill loses at most one block.
    const unsigned threads =
        util::resolve_jobs(jobs, indices.size() - rows.size());
    const std::size_t block_size = threads > 1 ? threads * 4 : 1;
    while (rows.size() < indices.size()) {
      transport.heartbeat(claimed->id);  // blocks can outlast a quiet lease
      const std::size_t base = rows.size();
      std::vector<SpoolRow> block(
          std::min(indices.size() - base, block_size));
      util::parallel_for(block.size(), threads, [&](std::size_t k) {
        block[k] = job.run(indices[base + k]);
      });
      for (const SpoolRow& row : block) {
        transport.append_row(claimed->id, row.csv);
        if (!row.cost.empty()) transport.append_cost(claimed->id, row.cost);
        rows.push_back(row.csv);
        report.runs_executed += 1;
      }
    }

    std::string part_text;
    for (const std::string& row : rows) part_text += row + '\n';
    transport.complete(claimed->id, util::fnv1a64(part_text));
    report.shards_completed += 1;
  }
  return report;
}

std::string merge_spool(SpoolTransport& transport) {
  const SpoolManifest manifest = read_spool_manifest(transport);
  std::vector<std::string> rows(manifest.specs);
  std::vector<bool> filled(manifest.specs, false);
  for (const SpoolManifest::Row& shard : manifest.shards) {
    const std::vector<std::string> lines =
        split_complete_lines(transport.part_text(shard.id));
    const std::vector<std::uint64_t> indices =
        shard_indices(transport, manifest, shard);
    if (lines.size() != indices.size()) {
      throw std::runtime_error(
          "cannot merge: part of shard " + std::to_string(shard.id) +
          " has " + std::to_string(lines.size()) + " rows, the shard has " +
          std::to_string(indices.size()));
    }
    for (std::size_t k = 0; k < lines.size(); ++k) {
      const std::uint64_t index = indices[k];
      if (index >= rows.size() || filled[index]) {
        throw std::runtime_error("cannot merge: shard " +
                                 std::to_string(shard.id) +
                                 " covers an invalid or duplicate index");
      }
      rows[index] = lines[k];
      filled[index] = true;
    }
  }
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      throw std::runtime_error("cannot merge: row " + std::to_string(i) +
                               " is covered by no shard");
    }
  }
  std::string out =
      (manifest.campaign ? campaign_csv_header() : csv_header()) + '\n';
  for (const std::string& row : rows) out += row + '\n';
  return out;
}

std::string merge_spool(const std::string& dir) {
  FsTransport transport(dir);
  return merge_spool(transport);
}

}  // namespace ulpsync::scenario
