#include "scenario/report.h"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/file.h"

namespace ulpsync::scenario {

void require_ok(const std::vector<RunRecord>& records) {
  std::string failures;
  for (const auto& record : records) {
    if (record.ok()) continue;
    failures += "  " + record.spec.workload + " [" + record.spec.design.label +
                "]: " + record.status;
    if (!record.verify_error.empty()) failures += ": " + record.verify_error;
    failures += '\n';
  }
  if (!failures.empty()) {
    throw std::runtime_error("scenario runs failed:\n" + failures);
  }
}

const RunRecord* find(const std::vector<RunRecord>& records,
                      std::string_view workload, bool with_synchronizer) {
  for (const auto& record : records) {
    if (record.spec.workload == workload &&
        record.spec.with_synchronizer() == with_synchronizer) {
      return &record;
    }
  }
  return nullptr;
}

const RunRecord* find_design(const std::vector<RunRecord>& records,
                             std::string_view workload,
                             std::string_view design_label) {
  for (const auto& record : records) {
    if (record.spec.workload == workload &&
        record.spec.design.label == design_label) {
      return &record;
    }
  }
  return nullptr;
}

DesignPair find_pair(const std::vector<RunRecord>& records,
                     std::string_view workload) {
  DesignPair pair{find(records, workload, false), find(records, workload, true)};
  if (pair.baseline == nullptr || pair.synced == nullptr) {
    throw std::runtime_error("no design pair for workload '" +
                             std::string(workload) + "'");
  }
  return pair;
}

double speedup(const DesignPair& pair) {
  return static_cast<double>(pair.baseline->cycles()) /
         static_cast<double>(pair.synced->cycles());
}

power::DesignCharacterization characterization(const RunRecord& record) {
  return {record.energy, record.ops_per_cycle};
}

power::PowerBreakdown breakdown_at_mops(const RunRecord& record, double mops) {
  const double f_mhz = mops / record.ops_per_cycle;
  return power::breakdown_at(record.energy, f_mhz, /*dynamic_scale=*/1.0,
                             /*leakage_mw=*/0.0);
}

EngineOptions engine_options_from(const util::CliArgs& args) {
  EngineOptions options;
  options.jobs = static_cast<unsigned>(args.get_int("jobs", 1));
  return options;
}

namespace {

// A failed write throws, so the program exits non-zero.
void write_output(const std::string& path, const std::string& content,
                  const char* what) {
  util::write_file_atomic(path, content);
  std::printf("%s written to %s\n", what, path.c_str());
}

}  // namespace

void maybe_write_csv(const util::CliArgs& args, const util::Table& table) {
  if (!args.has("csv")) return;
  write_output(args.get("csv", "out.csv"), table.to_csv(), "CSV");
}

void maybe_write_records(const util::CliArgs& args,
                         const std::vector<RunRecord>& records) {
  if (args.has("records")) {
    write_output(args.get("records", "records.csv"), to_csv(records),
                 "records CSV");
  }
  if (args.has("json")) {
    write_output(args.get("json", "records.json"), to_json(records),
                 "records JSON");
  }
}

}  // namespace ulpsync::scenario
