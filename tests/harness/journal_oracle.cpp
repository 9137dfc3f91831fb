#include "journal_oracle.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "harness/measurement_io.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace tgi::harness::oracle {
namespace {

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

constexpr char kMagic[] = "TGIJ2";
constexpr char kFieldSep = '\x1f';  // US: separates name=value fields
constexpr char kListSep = '\x1e';   // RS: separates nested list elements

int hex_digit(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  return -1;
}

std::string unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char ch = escaped[i];
    if (ch != '%') {
      out += ch;
      continue;
    }
    if (i + 2 >= escaped.size()) {
      throw util::TgiError("journal: truncated percent escape");
    }
    const int hi = hex_digit(escaped[i + 1]);
    const int lo = hex_digit(escaped[i + 2]);
    if (hi < 0 || lo < 0) {
      throw util::TgiError("journal: malformed percent escape");
    }
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return out;
}

/// Strict: no leading whitespace, finite values only.
double decode_double(const std::string& text) {
  if (text.empty()) throw util::TgiError("journal: empty double field");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (std::isspace(static_cast<unsigned char>(text[0])) != 0 ||
      end != text.c_str() + text.size() || !std::isfinite(v)) {
    throw util::TgiError("journal: bad double '" + text + "'");
  }
  return v;
}

/// A simulated clock reading or duration: finite and >= 0.
double decode_seconds(const std::string& text) {
  const double v = decode_double(text);
  if (v < 0.0) throw util::TgiError("journal: negative time '" + text + "'");
  return v;
}

/// Strict: decimal digits only (no whitespace, no sign) that fit a size_t.
std::size_t decode_size(const std::string& text) {
  if (text.empty()) throw util::TgiError("journal: empty integer field");
  std::size_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    throw util::TgiError("journal: bad integer '" + text + "'");
  }
  return v;
}

std::uint64_t decode_hash(const std::string& text) {
  if (text.size() != 16) {
    throw util::TgiError("journal: spec hash must be 16 hex digits");
  }
  std::uint64_t hash = 0;
  for (const char ch : text) {
    const int digit = hex_digit(ch);
    if (digit < 0) throw util::TgiError("journal: bad spec hash digit");
    hash = (hash << 4U) | static_cast<std::uint64_t>(digit);
  }
  return hash;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

/// Parsed field map with require-style accessors that throw TgiError.
class FieldReader {
 public:
  explicit FieldReader(const std::string& payload) {
    for (const std::string& token : split(payload, kFieldSep)) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw util::TgiError("journal: field is not name=value");
      }
      const std::string name = token.substr(0, eq);
      if (!fields_.emplace(name, unescape(token.substr(eq + 1))).second) {
        throw util::TgiError("journal: duplicate field '" + name + "'");
      }
    }
  }

  [[nodiscard]] const std::string& get(const std::string& name) const {
    const auto it = fields_.find(name);
    if (it == fields_.end()) {
      throw util::TgiError("journal: missing field '" + name + "'");
    }
    return it->second;
  }
  [[nodiscard]] std::size_t get_size(const std::string& name) const {
    return decode_size(get(name));
  }
  [[nodiscard]] double get_seconds(const std::string& name) const {
    return decode_seconds(get(name));
  }
  [[nodiscard]] bool get_flag(const std::string& name) const {
    const std::string& v = get(name);
    if (v == "1") return true;
    if (v == "0") return false;
    throw util::TgiError("journal: flag '" + name + "' must be 0 or 1");
  }

 private:
  std::map<std::string, std::string> fields_;
};

std::vector<std::size_t> decode_values(const std::string& text) {
  std::vector<std::size_t> out;
  if (text.empty()) return out;
  for (const std::string& item : split(text, ',')) {
    out.push_back(decode_size(item));
  }
  return out;
}

std::vector<std::string> split_csv_record(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  TGI_REQUIRE(!in_quotes, "unterminated quote in CSV record: " << line);
  cells.push_back(std::move(cell));
  return cells;
}

std::vector<core::BenchmarkMeasurement> decode_measurements(
    const std::string& text) {
  if (text.empty()) return {};
  std::istringstream in(text);
  return oracle::read_measurements(in);  // validates header, rows, physics
}

std::vector<obs::TraceEvent> decode_events(const std::string& text) {
  std::vector<obs::TraceEvent> out;
  if (text.empty()) return out;
  for (const std::string& item : split(text, kListSep)) {
    const std::vector<std::string> f = split(item, kFieldSep);
    if (f.size() < 7 || (f.size() - 7) % 2 != 0) {
      throw util::TgiError("journal: malformed trace event");
    }
    obs::TraceEvent e;
    if (f[0] == "S") {
      e.kind = obs::TraceEvent::Kind::kSpan;
    } else if (f[0] == "I") {
      e.kind = obs::TraceEvent::Kind::kInstant;
    } else {
      throw util::TgiError("journal: unknown trace event kind '" + f[0] +
                           "'");
    }
    e.name = unescape(f[1]);
    e.category = unescape(f[2]);
    e.benchmark = decode_size(f[3]);
    e.attempt = decode_size(f[4]);
    e.start = util::Seconds(decode_seconds(f[5]));
    e.duration = util::Seconds(decode_seconds(f[6]));
    for (std::size_t i = 7; i + 1 < f.size(); i += 2) {
      e.args.emplace_back(unescape(f[i]), unescape(f[i + 1]));
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<obs::Metric> decode_metrics(const std::string& text) {
  std::vector<obs::Metric> out;
  if (text.empty()) return out;
  for (const std::string& item : split(text, kListSep)) {
    const std::vector<std::string> f = split(item, kFieldSep);
    if (f.size() != 3) throw util::TgiError("journal: malformed metric");
    obs::Metric m;
    m.name = unescape(f[0]);
    if (f[1] == "c") {
      m.kind = obs::MetricKind::kCounter;
    } else if (f[1] == "g") {
      m.kind = obs::MetricKind::kGauge;
    } else {
      throw util::TgiError("journal: unknown metric kind '" + f[1] + "'");
    }
    m.value = decode_double(f[2]);
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<std::string> decode_missing(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  for (const std::string& item : split(text, kListSep)) {
    out.push_back(unescape(item));
  }
  return out;
}

PointRecord parse_point_payload(const std::string& payload) {
  const FieldReader fields(payload);
  PointRecord record;
  record.index = fields.get_size("index");
  record.value = fields.get_size("value");
  record.point.processes = fields.get_size("processes");
  record.point.nodes = fields.get_size("nodes");
  record.point.measurements = decode_measurements(fields.get("measurements"));
  record.robust = fields.get_flag("robust");
  if (record.robust) {
    record.missing = decode_missing(fields.get("missing"));
    record.counters.attempts = fields.get_size("attempts");
    record.counters.retries = fields.get_size("retries");
    record.counters.run_faults = fields.get_size("run_faults");
    record.counters.meter_faults = fields.get_size("meter_faults");
    record.counters.rejected_readings = fields.get_size("rejected_readings");
    record.counters.dropped_benchmarks = fields.get_size("dropped_benchmarks");
    record.counters.backoff = util::Seconds(fields.get_seconds("backoff"));
    record.counters.stalled = util::Seconds(fields.get_seconds("stalled"));
    record.trace_now = util::Seconds(fields.get_seconds("now"));
    record.events = decode_events(fields.get("events"));
    record.trace_metrics = decode_metrics(fields.get("metrics"));
  }
  return record;
}

struct ParsedLine {
  std::string kind;
  std::string payload;
};

/// Validates magic + tokenization + CRC of one journal line; throws
/// TgiError with the quarantine reason on any defect.
ParsedLine parse_record_line(const std::string& line) {
  const std::size_t s1 = line.find(' ');
  if (s1 == std::string::npos || line.substr(0, s1) != kMagic) {
    throw util::TgiError("not a journal record (bad magic)");
  }
  const std::size_t s2 = line.find(' ', s1 + 1);
  if (s2 == std::string::npos) {
    throw util::TgiError("truncated record (no checksum field)");
  }
  const std::size_t s3 = line.find(' ', s2 + 1);
  if (s3 == std::string::npos) {
    throw util::TgiError("truncated record (no payload)");
  }
  ParsedLine parsed;
  parsed.kind = line.substr(s1 + 1, s2 - s1 - 1);
  const std::string crc_field = line.substr(s2 + 1, s3 - s2 - 1);
  parsed.payload = line.substr(s3 + 1);
  if (crc_field.size() != 8) {
    throw util::TgiError("checksum field must be 8 hex digits");
  }
  std::uint32_t expected = 0;
  for (const char ch : crc_field) {
    const int digit = hex_digit(ch);
    if (digit < 0) throw util::TgiError("bad checksum digit");
    expected = (expected << 4U) | static_cast<std::uint32_t>(digit);
  }
  const std::uint32_t actual =
      util::crc32(parsed.kind + " " + parsed.payload);
  if (actual != expected) {
    throw util::TgiError("checksum mismatch (want " + crc_hex(expected) +
                         ", record hashes to " + crc_hex(actual) + ")");
  }
  return parsed;
}

}  // namespace

JournalContents read_journal(const std::string& text) {
  JournalContents contents;
  if (text.empty()) return contents;
  const bool torn_tail = text.back() != '\n';
  const std::vector<std::string> lines = split(text, '\n');
  // split() yields one trailing empty element when the text ends in '\n';
  // drop it so line numbering matches the file.
  std::size_t count = lines.size();
  if (!torn_tail && count > 0 && lines[count - 1].empty()) --count;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line.empty()) continue;
    try {
      if (i == count - 1 && torn_tail) {
        throw util::TgiError(
            "torn record (no trailing newline — interrupted append)");
      }
      const ParsedLine parsed = parse_record_line(line);
      if (parsed.kind == "header") {
        if (contents.header_valid) {
          throw util::TgiError("duplicate header record");
        }
        const FieldReader fields(parsed.payload);
        if (fields.get("v") != "2") {
          throw util::TgiError("unsupported journal version '" +
                               fields.get("v") + "'");
        }
        const std::string& mode = fields.get("mode");
        if (mode != "plain" && mode != "robust") {
          throw util::TgiError("unknown journal mode '" + mode + "'");
        }
        contents.spec_hash = decode_hash(fields.get("spec"));
        contents.mode = mode;
        contents.values = decode_values(fields.get("values"));
        contents.header_valid = true;
      } else if (parsed.kind == "point") {
        contents.points.push_back(parse_point_payload(parsed.payload));
        contents.point_lines.push_back(line_no);
      } else {
        throw util::TgiError("unknown record kind '" + parsed.kind + "'");
      }
    } catch (const util::TgiError& e) {
      contents.damage.push_back(JournalDamage{line_no, e.what()});
    }
  }
  return contents;
}

std::vector<core::BenchmarkMeasurement> read_measurements(std::istream& in) {
  std::string line;
  TGI_REQUIRE(std::getline(in, line), "empty measurement CSV");
  {
    const auto header = split_csv_record(line);
    const std::vector<std::string> expected{"benchmark", "performance",
                                            "unit",      "watts",
                                            "seconds",   "joules"};
    TGI_REQUIRE(header == expected,
                "unexpected CSV header (want '" << kMeasurementCsvHeader
                                                << "')");
  }
  std::vector<core::BenchmarkMeasurement> out;
  int row = 1;
  auto parse_double = [&](const std::string& cell, const char* what) {
    try {
      std::size_t pos = 0;
      const double v = std::stod(cell, &pos);
      TGI_REQUIRE(pos == cell.size(), "trailing characters");
      return v;
    } catch (const std::exception&) {
      throw util::PreconditionError("row " + std::to_string(row) +
                                    ": bad " + what + " value '" + cell +
                                    "'");
    }
  };
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const auto cells = split_csv_record(line);
    TGI_REQUIRE(cells.size() == 6,
                "row " << row << " has " << cells.size()
                       << " cells, expected 6");
    core::BenchmarkMeasurement m;
    m.benchmark = cells[0];
    m.performance = parse_double(cells[1], "performance");
    m.metric_unit = cells[2];
    m.average_power = util::watts(parse_double(cells[3], "watts"));
    m.execution_time = util::seconds(parse_double(cells[4], "seconds"));
    m.energy = util::joules(parse_double(cells[5], "joules"));
    m.validate();
    out.push_back(std::move(m));
  }
  TGI_REQUIRE(!out.empty(), "measurement CSV has no data rows");
  return out;
}

}  // namespace tgi::harness::oracle
