#include "scenario/record.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace ulpsync::scenario {

std::string format_double(double value) {
  // Shortest representation that round-trips through strtod.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  if (std::strtod(buffer, nullptr) != value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

std::string_view arbitration_name(sim::ArbitrationPolicy policy) {
  switch (policy) {
    case sim::ArbitrationPolicy::kFixedPriority: return "fixed-priority";
    case sim::ArbitrationPolicy::kOldestFirst: return "oldest-first";
    case sim::ArbitrationPolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

namespace {

// --- value formatting / parsing --------------------------------------------

[[noreturn]] void fail_number(const std::string& text) {
  throw std::invalid_argument("malformed RunRecord number '" + text + "'");
}

std::uint64_t parse_u64(const std::string& text) {
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') fail_number(text);
  return value;
}

long parse_long(const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') fail_number(text);
  return value;
}

double parse_double(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') fail_number(text);
  return value;
}

std::optional<sim::ArbitrationPolicy> arbitration_from(const std::string& name) {
  if (name.empty()) return std::nullopt;
  if (name == "fixed-priority") return sim::ArbitrationPolicy::kFixedPriority;
  if (name == "oldest-first") return sim::ArbitrationPolicy::kOldestFirst;
  if (name == "round-robin") return sim::ArbitrationPolicy::kRoundRobin;
  throw std::invalid_argument("unknown arbitration policy '" + name + "'");
}

std::string_view energy_params_name(EnergyRequest::Params params) {
  switch (params) {
    case EnergyRequest::Params::kAuto: return "auto";
    case EnergyRequest::Params::kBaseline: return "baseline";
    case EnergyRequest::Params::kSynchronized: return "synchronized";
  }
  return "?";
}

EnergyRequest::Params energy_params_from(const std::string& name) {
  if (name == "auto") return EnergyRequest::Params::kAuto;
  if (name == "baseline") return EnergyRequest::Params::kBaseline;
  if (name == "synchronized") return EnergyRequest::Params::kSynchronized;
  throw std::invalid_argument("unknown energy params variant '" + name + "'");
}

// --- the field table --------------------------------------------------------

struct FieldDef {
  const char* name;
  bool quoted;  ///< string-valued in JSON (numbers are emitted bare)
  std::function<std::string(const RunRecord&)> get;
  std::function<void(RunRecord&, const std::string&)> set;
};

#define FIELD_STR(name, lvalue)                                          \
  {name, true, [](const RunRecord& r) -> std::string { return r.lvalue; }, \
   [](RunRecord& r, const std::string& v) { r.lvalue = v; }}
#define FIELD_U64(name, lvalue)                                \
  {name, false,                                                \
   [](const RunRecord& r) -> std::string {                     \
     return std::to_string(r.lvalue);                          \
   },                                                          \
   [](RunRecord& r, const std::string& v) {                    \
     r.lvalue = parse_u64(v);                                  \
   }}
#define FIELD_UNSIGNED(name, lvalue)                           \
  {name, false,                                                \
   [](const RunRecord& r) -> std::string {                     \
     return std::to_string(r.lvalue);                          \
   },                                                          \
   [](RunRecord& r, const std::string& v) {                    \
     r.lvalue = static_cast<unsigned>(parse_u64(v));           \
   }}
#define FIELD_BOOL(name, lvalue)                               \
  {name, false,                                                \
   [](const RunRecord& r) -> std::string {                     \
     return r.lvalue ? "1" : "0";                              \
   },                                                          \
   [](RunRecord& r, const std::string& v) {                    \
     r.lvalue = (v == "1" || v == "true");                     \
   }}
#define FIELD_DOUBLE(name, lvalue)                             \
  {name, false,                                                \
   [](const RunRecord& r) -> std::string {                     \
     return format_double(r.lvalue);                           \
   },                                                          \
   [](RunRecord& r, const std::string& v) {                    \
     r.lvalue = parse_double(v);                               \
   }}

const std::vector<FieldDef>& field_table() {
  static const std::vector<FieldDef> fields = [] {
    std::vector<FieldDef> table = {
      // --- spec ---
      FIELD_STR("workload", spec.workload),
      FIELD_STR("design", spec.design.label),
      FIELD_BOOL("hw_sync", spec.design.features.hardware_synchronizer),
      FIELD_BOOL("dxbar_policy", spec.design.features.dxbar_pc_policy),
      FIELD_BOOL("partial_broadcast",
                 spec.design.features.ixbar_partial_broadcast),
      FIELD_UNSIGNED("num_cores", spec.params.num_channels),
      FIELD_UNSIGNED("samples", spec.params.samples),
      FIELD_UNSIGNED("l1_half", spec.params.l1_half),
      FIELD_UNSIGNED("l2_half", spec.params.l2_half),
      FIELD_UNSIGNED("scale_small", spec.params.scale_small),
      FIELD_UNSIGNED("scale_large", spec.params.scale_large),
      {"threshold", false,
       [](const RunRecord& r) -> std::string {
         return std::to_string(r.spec.params.threshold);
       },
       [](RunRecord& r, const std::string& v) {
         r.spec.params.threshold = static_cast<std::int16_t>(parse_long(v));
       }},
      FIELD_UNSIGNED("refractory", spec.params.refractory),
      {"per_core_threshold_delta", true,
       [](const RunRecord& r) -> std::string {
         std::string out;
         for (std::size_t i = 0; i < r.spec.params.per_core_threshold_delta.size();
              ++i) {
           if (i) out += ' ';
           out += std::to_string(r.spec.params.per_core_threshold_delta[i]);
         }
         return out;
       },
       [](RunRecord& r, const std::string& v) {
         std::istringstream in(v);
         for (auto& delta : r.spec.params.per_core_threshold_delta) {
           long value = 0;
           in >> value;
           delta = static_cast<std::int16_t>(value);
         }
       }},
      FIELD_DOUBLE("gen_sample_rate_hz", spec.params.generator.sample_rate_hz),
      FIELD_DOUBLE("gen_heart_rate_bpm", spec.params.generator.heart_rate_bpm),
      FIELD_DOUBLE("gen_rr_jitter", spec.params.generator.rr_jitter_fraction),
      FIELD_DOUBLE("gen_amplitude_lsb", spec.params.generator.amplitude_lsb),
      FIELD_DOUBLE("gen_wander_lsb", spec.params.generator.baseline_wander_lsb),
      FIELD_DOUBLE("gen_wander_hz", spec.params.generator.baseline_wander_hz),
      FIELD_DOUBLE("gen_noise_lsb", spec.params.generator.noise_lsb),
      FIELD_DOUBLE("gen_artifact_rate_hz",
                   spec.params.generator.artifact_rate_hz),
      FIELD_DOUBLE("gen_artifact_lsb", spec.params.generator.artifact_lsb),
      FIELD_DOUBLE("gen_dropout_rate_hz",
                   spec.params.generator.dropout_rate_hz),
      FIELD_DOUBLE("gen_dropout_s", spec.params.generator.dropout_s),
      FIELD_U64("gen_seed", spec.params.generator.seed),
      {"arbitration", true,
       [](const RunRecord& r) -> std::string {
         return r.spec.arbitration
                    ? std::string(arbitration_name(*r.spec.arbitration))
                    : std::string{};
       },
       [](RunRecord& r, const std::string& v) {
         r.spec.arbitration = arbitration_from(v);
       }},
      {"im_line_slots", true,
       [](const RunRecord& r) -> std::string {
         return r.spec.im_line_slots ? std::to_string(*r.spec.im_line_slots)
                                     : std::string{};
       },
       [](RunRecord& r, const std::string& v) {
         if (v.empty()) {
           r.spec.im_line_slots = std::nullopt;
         } else {
           r.spec.im_line_slots = static_cast<unsigned>(parse_u64(v));
         }
       }},
      FIELD_U64("max_cycles", spec.max_cycles),
      // --- outcome ---
      FIELD_STR("status", status),
      FIELD_STR("verify_error", verify_error),
      FIELD_U64("useful_ops", useful_ops),
      FIELD_DOUBLE("ops_per_cycle", ops_per_cycle),
      FIELD_DOUBLE("lockstep_fraction", lockstep_fraction),
    };
    // --- event counters ---
    for (const sim::CounterField& counter : sim::kCounterFields) {
      table.push_back(
          {counter.name, false,
           [member = counter.member](const RunRecord& r) {
             return std::to_string(r.counters.*member);
           },
           [member = counter.member](RunRecord& r, const std::string& v) {
             r.counters.*member = parse_u64(v);
           }});
    }
    table.insert(table.end(), {
      // --- synchronizer ---
      FIELD_U64("sync_rmw_ops", sync_stats.rmw_ops),
      FIELD_U64("sync_dm_accesses", sync_stats.dm_accesses),
      FIELD_U64("sync_checkins", sync_stats.checkins),
      FIELD_U64("sync_checkouts", sync_stats.checkouts),
      FIELD_U64("sync_merged_requests", sync_stats.merged_requests),
      FIELD_U64("sync_wakeup_events", sync_stats.wakeup_events),
      FIELD_U64("sync_wakeups_delivered", sync_stats.wakeups_delivered),
      FIELD_U64("sync_max_merge_width", sync_stats.max_merge_width),
      // --- per-cycle energies (pJ at 1.2 V) ---
      FIELD_DOUBLE("energy_cores_pj", energy.cores_pj),
      FIELD_DOUBLE("energy_im_pj", energy.im_pj),
      FIELD_DOUBLE("energy_dm_pj", energy.dm_pj),
      FIELD_DOUBLE("energy_dxbar_pj", energy.dxbar_pj),
      FIELD_DOUBLE("energy_ixbar_pj", energy.ixbar_pj),
      FIELD_DOUBLE("energy_sync_pj", energy.synchronizer_pj),
      FIELD_DOUBLE("energy_clock_pj", energy.clock_tree_pj),
      // --- energy request (spec) ---
      {"energy_params", true,
       [](const RunRecord& r) -> std::string {
         if (!r.spec.energy) return {};
         return std::string(energy_params_name(r.spec.energy->params));
       },
       [](RunRecord& r, const std::string& v) {
         if (v.empty()) return;
         if (!r.spec.energy) r.spec.energy.emplace();
         r.spec.energy->params = energy_params_from(v);
       }},
      {"energy_req_f_mhz", true,
       [](const RunRecord& r) -> std::string {
         return r.spec.energy ? format_double(r.spec.energy->f_mhz)
                              : std::string{};
       },
       [](RunRecord& r, const std::string& v) {
         if (v.empty()) return;
         if (!r.spec.energy) r.spec.energy.emplace();
         r.spec.energy->f_mhz = parse_double(v);
       }},
      {"energy_req_voltage", true,
       [](const RunRecord& r) -> std::string {
         return r.spec.energy ? format_double(r.spec.energy->voltage)
                              : std::string{};
       },
       [](RunRecord& r, const std::string& v) {
         if (v.empty()) return;
         if (!r.spec.energy) r.spec.energy.emplace();
         r.spec.energy->voltage = parse_double(v);
       }},
      // --- energy report (resolved operating point + power) ---
      FIELD_BOOL("energy_feasible", energy_report.feasible),
      FIELD_DOUBLE("op_f_mhz", energy_report.f_mhz),
      FIELD_DOUBLE("op_voltage", energy_report.voltage),
      FIELD_DOUBLE("op_mops", energy_report.mops),
      FIELD_DOUBLE("power_cores_mw", energy_report.breakdown.cores_mw),
      FIELD_DOUBLE("power_im_mw", energy_report.breakdown.im_mw),
      FIELD_DOUBLE("power_dm_mw", energy_report.breakdown.dm_mw),
      FIELD_DOUBLE("power_dxbar_mw", energy_report.breakdown.dxbar_mw),
      FIELD_DOUBLE("power_ixbar_mw", energy_report.breakdown.ixbar_mw),
      FIELD_DOUBLE("power_sync_mw", energy_report.breakdown.synchronizer_mw),
      FIELD_DOUBLE("power_clock_mw", energy_report.breakdown.clock_tree_mw),
      FIELD_DOUBLE("power_leakage_mw", energy_report.breakdown.leakage_mw),
      {"power_total_mw", false,
       [](const RunRecord& r) -> std::string {
         return format_double(r.energy_report.breakdown.total_mw());
       },
       // Derived: recomputed from the parsed components, so the setter is
       // a deliberate no-op (the sum re-emits byte-identically).
       [](RunRecord&, const std::string&) {}},
      FIELD_DOUBLE("energy_per_op_pj", energy_report.energy_per_op_pj),
      FIELD_DOUBLE("energy_total_uj", energy_report.total_energy_uj),
    });
    return table;
  }();
  return fields;
}

#undef FIELD_STR
#undef FIELD_U64
#undef FIELD_UNSIGNED
#undef FIELD_BOOL
#undef FIELD_DOUBLE

const FieldDef* find_field(std::string_view name) {
  for (const auto& field : field_table()) {
    if (name == field.name) return &field;
  }
  return nullptr;
}

// --- CSV helpers ------------------------------------------------------------

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits one CSV line (RFC-4180 quoting). `at` is advanced past the line's
/// terminator.
std::vector<std::string> csv_split_line(std::string_view text,
                                        std::size_t& at) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (; at < text.size(); ++at) {
    const char c = text[at];
    if (in_quotes) {
      if (c == '"') {
        if (at + 1 < text.size() && text[at + 1] == '"') {
          cell += '"';
          ++at;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n' || c == '\r') {
      while (at < text.size() && (text[at] == '\n' || text[at] == '\r')) ++at;
      break;
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

// --- JSON helpers -----------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (at_ < text_.size() && (text_[at_] == ' ' || text_[at_] == '\t' ||
                                  text_[at_] == '\n' || text_[at_] == '\r')) {
      ++at_;
    }
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return at_ >= text_.size();
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (at_ >= text_.size()) fail("unexpected end of input");
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[at_] + "'");
    }
    ++at_;
  }

  [[nodiscard]] bool consume_if(char c) {
    if (at_end() || text_[at_] != c) return false;
    ++at_;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (at_ < text_.size() && text_[at_] != '"') {
      char c = text_[at_++];
      if (c == '\\') {
        if (at_ >= text_.size()) fail("bad escape");
        const char esc = text_[at_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (at_ + 4 > text_.size()) fail("bad \\u escape");
            const std::string hex(text_.substr(at_, 4));
            if (!std::all_of(hex.begin(), hex.end(), [](unsigned char c) {
                  return std::isxdigit(c) != 0;
                })) {
              fail("bad \\u escape");
            }
            const auto code =
                static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
            at_ += 4;
            // Our writer only emits \u escapes for control characters;
            // reject anything wider instead of silently truncating it.
            if (code > 0xFF) fail("unsupported \\u escape (> \\u00ff)");
            out += static_cast<char>(code);
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  /// A bare scalar: number, true, false, null — returned as text.
  std::string parse_bare() {
    skip_ws();
    std::string out;
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (c == ',' || c == '}' || c == ']' || c == ' ' || c == '\n' ||
          c == '\r' || c == '\t') {
        break;
      }
      out += c;
      ++at_;
    }
    if (out.empty()) fail("expected a value");
    if (out == "true") return "1";
    if (out == "false") return "0";
    if (out == "null") return "";
    return out;
  }

  /// Parses one flat object into key/value pairs.
  std::vector<std::pair<std::string, std::string>> parse_object() {
    std::vector<std::pair<std::string, std::string>> pairs;
    expect('{');
    if (consume_if('}')) return pairs;
    for (;;) {
      std::string key = parse_string();
      expect(':');
      std::string value = peek() == '"' ? parse_string() : parse_bare();
      pairs.emplace_back(std::move(key), std::move(value));
      if (consume_if('}')) break;
      expect(',');
    }
    return pairs;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("RunRecord JSON parse error at offset " +
                                std::to_string(at_) + ": " + why);
  }

 private:
  std::string_view text_;
  std::size_t at_ = 0;
};

RunRecord record_from_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  RunRecord record;
  for (const auto& [key, value] : pairs) {
    if (const FieldDef* field = find_field(key)) {
      field->set(record, value);
    } else {
      record.extra.emplace_back(key, value);
    }
  }
  return record;
}

}  // namespace

std::string_view RunRecord::extra_value(std::string_view key) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  return {};
}

std::string csv_header() {
  std::string out;
  for (const auto& field : field_table()) {
    if (!out.empty()) out += ',';
    out += field.name;
  }
  return out;
}

std::string to_csv_row(const RunRecord& record) {
  std::string out;
  bool first = true;
  for (const auto& field : field_table()) {
    if (!first) out += ',';
    first = false;
    out += csv_escape(field.get(record));
  }
  return out;
}

std::string to_csv(const std::vector<RunRecord>& records) {
  std::string out = csv_header() + '\n';
  for (const auto& record : records) out += to_csv_row(record) + '\n';
  return out;
}

std::vector<RunRecord> records_from_csv(std::string_view csv) {
  std::size_t at = 0;
  const auto header = csv_split_line(csv, at);
  std::vector<const FieldDef*> columns;
  columns.reserve(header.size());
  for (const auto& name : header) {
    const FieldDef* field = find_field(name);
    if (field == nullptr) {
      throw std::invalid_argument("unknown RunRecord CSV column '" + name + "'");
    }
    columns.push_back(field);
  }
  std::vector<RunRecord> records;
  while (at < csv.size()) {
    const auto cells = csv_split_line(csv, at);
    if (cells.size() == 1 && cells[0].empty()) continue;  // trailing newline
    if (cells.size() != columns.size()) {
      throw std::invalid_argument(
          "RunRecord CSV row has " + std::to_string(cells.size()) +
          " cells, expected " + std::to_string(columns.size()));
    }
    RunRecord record;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      columns[i]->set(record, cells[i]);
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::string to_json(const RunRecord& record) {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& key, const std::string& value,
                  bool quoted) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(key) + "\": ";
    if (quoted) {
      out += '"' + json_escape(value) + '"';
    } else {
      out += value.empty() ? "null" : value;
    }
  };
  for (const auto& field : field_table()) {
    emit(field.name, field.get(record), field.quoted);
  }
  for (const auto& [key, value] : record.extra) {
    emit(key, value, /*quoted=*/true);
  }
  out += '}';
  return out;
}

std::string to_json(const std::vector<RunRecord>& records) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += "  " + to_json(records[i]);
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

RunRecord record_from_json(std::string_view json) {
  JsonParser parser(json);
  return record_from_pairs(parser.parse_object());
}

std::vector<RunRecord> records_from_json(std::string_view json) {
  JsonParser parser(json);
  std::vector<RunRecord> records;
  parser.expect('[');
  if (parser.consume_if(']')) return records;
  for (;;) {
    records.push_back(record_from_pairs(parser.parse_object()));
    if (parser.consume_if(']')) break;
    parser.expect(',');
  }
  return records;
}

}  // namespace ulpsync::scenario
