#include "harness/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "harness/measurement_io.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/io_faults.h"
#include "util/log.h"
#include "util/number.h"

namespace tgi::harness {

std::uint64_t journal_spec_hash(std::string_view canonical_spec) {
  // FNV-1a 64: tiny, dependency-free, and stable across platforms — this
  // hash only guards against resuming under a different spec, it is not a
  // cryptographic commitment.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char ch : canonical_spec) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void append_spec_hash_hex(std::string& out, std::uint64_t hash) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(hash >> static_cast<unsigned>(shift)) & 0xFU];
  }
}

std::string spec_hash_hex(std::uint64_t hash) {
  std::string out;
  append_spec_hash_hex(out, hash);
  return out;
}

namespace {

constexpr char kMagic[] = "TGIJ2";
constexpr char kFieldSep = '\x1f';  // US: separates name=value fields
constexpr char kListSep = '\x1e';   // RS: separates nested list elements

/// Percent-escapes the bytes that would break record/field/list structure.
std::string escape(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    if (ch == '%' || ch == '\n' || ch == '\r' || ch == kFieldSep ||
        ch == kListSep) {
      const auto byte = static_cast<unsigned char>(ch);
      out += '%';
      out += kHex[byte >> 4U];
      out += kHex[byte & 0xFU];
    } else {
      out += ch;
    }
  }
  return out;
}

/// Each byte's value as a hex digit, or -1: a lookup, so a run of mixed
/// digits and letters costs no branch per byte.
constexpr std::array<std::int8_t, 256> kHexDigit = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (std::uint8_t i = 0; i < 16; ++i) {
    table[static_cast<std::uint8_t>("0123456789abcdef"[i])] =
        static_cast<std::int8_t>(i);
    table[static_cast<std::uint8_t>("0123456789ABCDEF"[i])] =
        static_cast<std::int8_t>(i);
  }
  return table;
}();

int hex_digit(char ch) { return kHexDigit[static_cast<unsigned char>(ch)]; }

/// Appends the unescaped bytes of `escaped` to `out`.
void unescape_into(std::string_view escaped, std::string& out) {
  std::size_t i = 0;
  for (std::size_t pct = escaped.find('%'); pct != std::string_view::npos;
       pct = escaped.find('%', i)) {
    out.append(escaped.substr(i, pct - i));
    if (pct + 2 >= escaped.size()) {
      throw util::TgiError("journal: truncated percent escape");
    }
    const int hi = hex_digit(escaped[pct + 1]);
    const int lo = hex_digit(escaped[pct + 2]);
    if (hi < 0 || lo < 0) {
      throw util::TgiError("journal: malformed percent escape");
    }
    out += static_cast<char>((hi << 4) | lo);
    i = pct + 3;
  }
  out.append(escaped.substr(i));
}

/// Bit-exact double serialization: C hexfloat via printf %a / strtod.
std::string encode_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Reads the spelling encode_double writes for a normal double or a zero —
/// [-]0x1[.h{1,13}]p±d with the exponent in [-1022, 1023] (h a hex digit
/// in either case), or [-]0x0p+0 — by building its bits, which are exact.
/// Returns nullopt for any other spelling (a subnormal, say), which
/// decode_double leaves to util::parse_double.
std::optional<double> read_printf_hexfloat(std::string_view text) {
  std::uint64_t bits = 0;
  if (!text.empty() && text[0] == '-') {
    bits = std::uint64_t{1} << 63U;
    text.remove_prefix(1);
  }
  if (text == "0x0p+0") return std::bit_cast<double>(bits);
  if (text.size() < 6 || text.substr(0, 3) != "0x1") return std::nullopt;
  std::size_t i = 3;
  if (text[i] == '.') {
    std::uint64_t fraction = 0;
    const std::size_t first = ++i;
    for (; i < text.size() && i - first < 13; ++i) {
      const int digit = hex_digit(text[i]);
      if (digit < 0) break;
      fraction = (fraction << 4U) | static_cast<std::uint64_t>(digit);
    }
    const std::size_t digits = i - first;
    if (digits == 0) return std::nullopt;
    bits |= fraction << (4 * (13 - digits));
  }
  // 'p', a sign, then 1 to 4 decimal digits.
  if (text.size() - i < 3 || text.size() - i > 6 || text[i] != 'p' ||
      (text[i + 1] != '+' && text[i + 1] != '-')) {
    return std::nullopt;
  }
  int exponent = 0;
  for (const char ch : text.substr(i + 2)) {
    if (ch < '0' || ch > '9') return std::nullopt;
    exponent = exponent * 10 + (ch - '0');
  }
  if (text[i + 1] == '-') exponent = -exponent;
  if (exponent < -1022 || exponent > 1023) return std::nullopt;
  bits |= static_cast<std::uint64_t>(exponent + 1023) << 52U;
  return std::bit_cast<double>(bits);
}

/// strtod's grammar (util/number.h), but no leading whitespace and finite
/// values only.
double decode_double(std::string_view text) {
  if (const std::optional<double> v = read_printf_hexfloat(text)) return *v;
  if (text.empty()) throw util::TgiError("journal: empty double field");
  const util::ParsedDouble v = util::parse_double(text);
  if (std::isspace(static_cast<unsigned char>(text[0])) != 0 || !v.complete ||
      !std::isfinite(v.value)) {
    throw util::TgiError("journal: bad double '" + std::string(text) + "'");
  }
  return v.value;
}

/// A simulated clock reading or duration: finite and >= 0.
double decode_seconds(std::string_view text) {
  const double v = decode_double(text);
  if (v < 0.0) {
    throw util::TgiError("journal: negative time '" + std::string(text) +
                         "'");
  }
  return v;
}

/// Strict: decimal digits only (no whitespace, no sign) that fit a size_t.
std::size_t decode_size(std::string_view text) {
  if (text.empty()) throw util::TgiError("journal: empty integer field");
  std::size_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    throw util::TgiError("journal: bad integer '" + std::string(text) + "'");
  }
  return v;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

std::uint64_t decode_hash(std::string_view text) {
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

/// Calls fn(piece) for each `sep`-separated piece of `text`, in order; an
/// empty text is one empty piece.
template <typename Fn>
void for_each_piece(std::string_view text, char sep, Fn&& fn) {
  std::size_t begin = 0;
  for (std::size_t end = text.find(sep); end != std::string_view::npos;
       end = text.find(sep, begin)) {
    fn(text.substr(begin, end - begin));
    begin = end + 1;
  }
  fn(text.substr(begin));
}

/// `text` split at every `sep` into `pieces` (cleared first).
void split_views(std::string_view text, char sep,
                 std::vector<std::string_view>& pieces) {
  pieces.clear();
  for_each_piece(text, sep, [&](std::string_view p) { pieces.push_back(p); });
}

/// The views a record's lists split into, kept across records so a steady
/// decode loop does not allocate for them. Sized up front for a robust
/// point record (a few events of 11 fields, about five metrics); a larger
/// list grows them.
struct SplitScratch {
  SplitScratch() {
    items.reserve(16);
    fields.reserve(16);
  }
  std::vector<std::string_view> items;   ///< RS-separated list elements
  std::vector<std::string_view> fields;  ///< US-separated fields of one
};

/// Ordered field list serializer: name=escape(value) joined by US.
class FieldWriter {
 public:
  void add(std::string_view name, std::string_view value) {
    if (!payload_.empty()) payload_ += kFieldSep;
    payload_.append(name);
    payload_ += '=';
    payload_ += escape(value);
  }
  void add_size(std::string_view name, std::size_t value) {
    add(name, std::to_string(value));
  }
  void add_double(std::string_view name, double value) {
    add(name, encode_double(value));
  }
  [[nodiscard]] const std::string& payload() const { return payload_; }

 private:
  std::string payload_;
};

/// One record's name=value fields as views of its payload, with
/// require-style accessors that throw TgiError. Values that hold a '%' are
/// unescaped once, into one buffer the reader keeps; the rest are views.
/// Reused across records, so a steady decode loop does not allocate.
class FieldReader {
 public:
  /// Room for every field of a robust point record (18), the largest
  /// kind, and for the unescaped values of a payload of `max_payload`
  /// bytes: unescaping only shortens a value.
  explicit FieldReader(std::size_t max_payload) {
    fields_.reserve(20);
    unescaped_.reserve(max_payload);
  }

  /// Splits `payload`, which must outlive every get(); throws on a field
  /// that is not name=value, a bad escape, or a duplicate name.
  void parse(std::string_view payload) {
    fields_.clear();
    unescaped_.clear();
    for_each_piece(payload, kFieldSep, [&](std::string_view token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        throw util::TgiError("journal: field is not name=value");
      }
      Field field{token.substr(0, eq), token.substr(eq + 1)};
      if (field.value.find('%') != std::string_view::npos) {
        const std::size_t at = unescaped_.size();
        unescape_into(field.value, unescaped_);
        field.escaped = true;
        field.at = at;
        field.size = unescaped_.size() - at;
      }
      for (const Field& seen : fields_) {
        if (seen.name == field.name) {
          throw util::TgiError("journal: duplicate field '" +
                               std::string(field.name) + "'");
        }
      }
      fields_.push_back(field);
    });
  }

  /// The unescaped value; valid until the next parse().
  [[nodiscard]] std::string_view get(std::string_view name) const {
    for (const Field& field : fields_) {
      if (field.name != name) continue;
      if (!field.escaped) return field.value;
      return std::string_view(unescaped_).substr(field.at, field.size);
    }
    throw util::TgiError("journal: missing field '" + std::string(name) +
                         "'");
  }
  [[nodiscard]] std::size_t get_size(std::string_view name) const {
    return decode_size(get(name));
  }
  [[nodiscard]] double get_seconds(std::string_view name) const {
    return decode_seconds(get(name));
  }
  [[nodiscard]] bool get_flag(std::string_view name) const {
    const std::string_view v = get(name);
    if (v == "1") return true;
    if (v == "0") return false;
    throw util::TgiError("journal: flag '" + std::string(name) +
                         "' must be 0 or 1");
  }

 private:
  struct Field {
    std::string_view name;
    std::string_view value;  ///< raw, as in the payload
    bool escaped = false;    ///< then the value is unescaped_[at, at+size)
    std::size_t at = 0;
    std::size_t size = 0;
  };
  std::vector<Field> fields_;
  std::string unescaped_;
};

/// The CRC-32 of "<kind> <payload>", without building that string.
std::uint32_t record_crc(std::string_view kind, std::string_view payload) {
  return util::crc32(payload, util::crc32(" ", util::crc32(kind)));
}

std::string encode_record_line(const std::string& kind,
                               const std::string& payload) {
  return std::string(kMagic) + " " + kind + " " +
         crc_hex(record_crc(kind, payload)) + " " + payload + "\n";
}

std::string encode_values(const std::vector<std::size_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

std::vector<std::size_t> decode_values(std::string_view text) {
  std::vector<std::size_t> out;
  if (text.empty()) return out;
  out.reserve(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), ',')) +
              1);
  for_each_piece(text, ',', [&](std::string_view item) {
    out.push_back(decode_size(item));
  });
  return out;
}

std::string encode_measurements(
    const std::vector<core::BenchmarkMeasurement>& ms) {
  if (ms.empty()) return {};
  std::ostringstream out;
  write_measurements(out, ms);
  return out.str();
}

std::vector<core::BenchmarkMeasurement> decode_measurements(
    std::string_view text) {
  if (text.empty()) return {};
  return read_measurements(text);  // validates header, rows, physics
}

std::string encode_events(const std::vector<obs::TraceEvent>& events) {
  std::string out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (i != 0) out += kListSep;
    std::string enc;
    enc += (e.kind == obs::TraceEvent::Kind::kSpan) ? 'S' : 'I';
    enc += kFieldSep;
    enc += escape(e.name);
    enc += kFieldSep;
    enc += escape(e.category);
    enc += kFieldSep;
    enc += std::to_string(e.benchmark);
    enc += kFieldSep;
    enc += std::to_string(e.attempt);
    enc += kFieldSep;
    enc += encode_double(e.start.value());
    enc += kFieldSep;
    enc += encode_double(e.duration.value());
    for (const auto& [key, value] : e.args) {
      enc += kFieldSep;
      enc += escape(key);
      enc += kFieldSep;
      enc += escape(value);
    }
    out += enc;
  }
  return out;
}

std::vector<obs::TraceEvent> decode_events(std::string_view text,
                                           SplitScratch& split) {
  std::vector<obs::TraceEvent> out;
  if (text.empty()) return out;
  split_views(text, kListSep, split.items);
  out.reserve(split.items.size());
  std::vector<std::string_view>& f = split.fields;
  for (const std::string_view item : split.items) {
    split_views(item, kFieldSep, f);
    if (f.size() < 7 || (f.size() - 7) % 2 != 0) {
      throw util::TgiError("journal: malformed trace event");
    }
    obs::TraceEvent& e = out.emplace_back();
    if (f[0] == "S") {
      e.kind = obs::TraceEvent::Kind::kSpan;
    } else if (f[0] == "I") {
      e.kind = obs::TraceEvent::Kind::kInstant;
    } else {
      throw util::TgiError("journal: unknown trace event kind '" +
                           std::string(f[0]) + "'");
    }
    unescape_into(f[1], e.name);
    unescape_into(f[2], e.category);
    e.benchmark = decode_size(f[3]);
    e.attempt = decode_size(f[4]);
    e.start = util::Seconds(decode_seconds(f[5]));
    e.duration = util::Seconds(decode_seconds(f[6]));
    e.args.resize((f.size() - 7) / 2);
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      // Value before key: a pair with two bad escapes reports the value's,
      // as `emplace_back(unescape(key), unescape(value))` does under gcc,
      // which evaluates the arguments right to left.
      unescape_into(f[8 + 2 * i], e.args[i].second);
      unescape_into(f[7 + 2 * i], e.args[i].first);
    }
  }
  return out;
}

std::string encode_metrics(const std::vector<obs::Metric>& metrics) {
  std::string out;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const obs::Metric& m = metrics[i];
    if (i != 0) out += kListSep;
    out += escape(m.name);
    out += kFieldSep;
    out += (m.kind == obs::MetricKind::kGauge) ? 'g' : 'c';
    out += kFieldSep;
    out += encode_double(m.value);
  }
  return out;
}

std::vector<obs::Metric> decode_metrics(std::string_view text,
                                        SplitScratch& split) {
  std::vector<obs::Metric> out;
  if (text.empty()) return out;
  split_views(text, kListSep, split.items);
  out.reserve(split.items.size());
  std::vector<std::string_view>& f = split.fields;
  for (const std::string_view item : split.items) {
    split_views(item, kFieldSep, f);
    if (f.size() != 3) throw util::TgiError("journal: malformed metric");
    obs::Metric& m = out.emplace_back();
    unescape_into(f[0], m.name);
    if (f[1] == "c") {
      m.kind = obs::MetricKind::kCounter;
    } else if (f[1] == "g") {
      m.kind = obs::MetricKind::kGauge;
    } else {
      throw util::TgiError("journal: unknown metric kind '" +
                           std::string(f[1]) + "'");
    }
    m.value = decode_double(f[2]);
  }
  return out;
}

std::string encode_missing(const std::vector<std::string>& missing) {
  std::string out;
  for (std::size_t i = 0; i < missing.size(); ++i) {
    if (i != 0) out += kListSep;
    out += escape(missing[i]);
  }
  return out;
}

std::vector<std::string> decode_missing(std::string_view text,
                                        SplitScratch& split) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  split_views(text, kListSep, split.items);
  out.reserve(split.items.size());
  for (const std::string_view item : split.items) {
    unescape_into(item, out.emplace_back());
  }
  return out;
}

PointRecord parse_point_payload(const FieldReader& fields,
                                SplitScratch& split) {
  PointRecord record;
  record.index = fields.get_size("index");
  record.value = fields.get_size("value");
  record.point.processes = fields.get_size("processes");
  record.point.nodes = fields.get_size("nodes");
  record.point.measurements = decode_measurements(fields.get("measurements"));
  record.robust = fields.get_flag("robust");
  if (record.robust) {
    record.missing = decode_missing(fields.get("missing"), split);
    record.counters.attempts = fields.get_size("attempts");
    record.counters.retries = fields.get_size("retries");
    record.counters.run_faults = fields.get_size("run_faults");
    record.counters.meter_faults = fields.get_size("meter_faults");
    record.counters.rejected_readings = fields.get_size("rejected_readings");
    record.counters.dropped_benchmarks = fields.get_size("dropped_benchmarks");
    record.counters.backoff = util::Seconds(fields.get_seconds("backoff"));
    record.counters.stalled = util::Seconds(fields.get_seconds("stalled"));
    record.trace_now = util::Seconds(fields.get_seconds("now"));
    record.events = decode_events(fields.get("events"), split);
    record.trace_metrics = decode_metrics(fields.get("metrics"), split);
  }
  return record;
}

struct ParsedLine {
  std::string_view kind;
  std::string_view payload;
};

/// Validates magic + tokenization + CRC of one journal line; throws
/// TgiError with the quarantine reason on any defect.
ParsedLine parse_record_line(std::string_view line) {
  const std::size_t s1 = line.find(' ');
  if (s1 == std::string_view::npos || line.substr(0, s1) != kMagic) {
    throw util::TgiError("not a journal record (bad magic)");
  }
  const std::size_t s2 = line.find(' ', s1 + 1);
  if (s2 == std::string_view::npos) {
    throw util::TgiError("truncated record (no checksum field)");
  }
  const std::size_t s3 = line.find(' ', s2 + 1);
  if (s3 == std::string_view::npos) {
    throw util::TgiError("truncated record (no payload)");
  }
  ParsedLine parsed;
  parsed.kind = line.substr(s1 + 1, s2 - s1 - 1);
  const std::string_view crc_field = line.substr(s2 + 1, s3 - s2 - 1);
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
  const std::uint32_t actual = record_crc(parsed.kind, parsed.payload);
  if (actual != expected) {
    throw util::TgiError("checksum mismatch (want " + crc_hex(expected) +
                         ", record hashes to " + crc_hex(actual) + ")");
  }
  return parsed;
}

}  // namespace

std::string encode_header_record(std::uint64_t spec_hash,
                                 const std::string& mode,
                                 const std::vector<std::size_t>& values) {
  TGI_REQUIRE(mode == "plain" || mode == "robust",
              "journal mode must be 'plain' or 'robust', got '" << mode
                                                                << "'");
  FieldWriter fields;
  fields.add("v", "2");
  fields.add("spec", spec_hash_hex(spec_hash));
  fields.add("mode", mode);
  fields.add("values", encode_values(values));
  return encode_record_line("header", fields.payload());
}

std::string encode_point_record(const PointRecord& record) {
  TGI_REQUIRE(record.robust || (record.trace_now.value() == 0.0 &&
                                record.events.empty() &&
                                record.trace_metrics.empty()),
              "point " << record.index
                       << ": a plain record's trace is derived, not stored");
  FieldWriter fields;
  fields.add_size("index", record.index);
  fields.add_size("value", record.value);
  fields.add_size("processes", record.point.processes);
  fields.add_size("nodes", record.point.nodes);
  fields.add("measurements", encode_measurements(record.point.measurements));
  fields.add("robust", record.robust ? "1" : "0");
  if (record.robust) {
    fields.add("missing", encode_missing(record.missing));
    fields.add_size("attempts", record.counters.attempts);
    fields.add_size("retries", record.counters.retries);
    fields.add_size("run_faults", record.counters.run_faults);
    fields.add_size("meter_faults", record.counters.meter_faults);
    fields.add_size("rejected_readings", record.counters.rejected_readings);
    fields.add_size("dropped_benchmarks",
                    record.counters.dropped_benchmarks);
    fields.add_double("backoff", record.counters.backoff.value());
    fields.add_double("stalled", record.counters.stalled.value());
    fields.add_double("now", record.trace_now.value());
    fields.add("events", encode_events(record.events));
    fields.add("metrics", encode_metrics(record.trace_metrics));
  }
  return encode_record_line("point", fields.payload());
}

JournalContents read_journal(const std::string& text) {
  JournalContents contents;
  // A line is at most one point record, and no payload outgrows its line.
  std::size_t lines = 0;
  std::size_t longest = 0;
  for (std::size_t begin = 0; begin < text.size(); ++lines) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    longest = std::max(longest, end - begin);
    begin = end + 1;
  }
  contents.points.reserve(lines);
  contents.point_lines.reserve(lines);
  FieldReader fields(longest);
  SplitScratch split;
  // Lines are views of `text`; a last line without '\n' is a torn append.
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    ++line_no;
    const std::size_t newline = text.find('\n', pos);
    const bool torn = newline == std::string::npos;
    const std::size_t end = torn ? text.size() : newline;
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    try {
      if (torn) {
        throw util::TgiError(
            "torn record (no trailing newline — interrupted append)");
      }
      const ParsedLine parsed = parse_record_line(line);
      if (parsed.kind == "header") {
        if (contents.header_valid) {
          throw util::TgiError("duplicate header record");
        }
        fields.parse(parsed.payload);
        if (fields.get("v") != "2") {
          throw util::TgiError("unsupported journal version '" +
                               std::string(fields.get("v")) + "'");
        }
        const std::string_view mode = fields.get("mode");
        if (mode != "plain" && mode != "robust") {
          throw util::TgiError("unknown journal mode '" + std::string(mode) +
                               "'");
        }
        contents.spec_hash = decode_hash(fields.get("spec"));
        contents.mode = mode;
        contents.values = decode_values(fields.get("values"));
        contents.header_valid = true;
      } else if (parsed.kind == "point") {
        fields.parse(parsed.payload);
        contents.points.push_back(parse_point_payload(fields, split));
        contents.point_lines.push_back(line_no);
      } else {
        throw util::TgiError("unknown record kind '" +
                             std::string(parsed.kind) + "'");
      }
    } catch (const util::TgiError& e) {
      contents.damage.push_back(JournalDamage{line_no, e.what()});
    }
  }
  return contents;
}

JournalContents read_journal_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file_if_exists(path);
  TGI_REQUIRE(text.has_value(),
              "cannot open journal '" << path << "' for reading");
  return read_journal(*text);
}

JournalState reconcile_journal(const JournalContents& contents,
                               std::uint64_t spec_hash,
                               const std::string& mode,
                               const std::vector<std::size_t>& values) {
  return reconcile_journal(JournalContents(contents), spec_hash, mode, values);
}

JournalState reconcile_journal(JournalContents&& contents,
                               std::uint64_t spec_hash,
                               const std::string& mode,
                               const std::vector<std::size_t>& values) {
  JournalState state;
  if (!contents.header_valid) {
    state.damage = std::move(contents.damage);
    state.damage.push_back(JournalDamage{
        0, "journal header missing or damaged; recomputing every point"});
    return state;
  }
  if (contents.spec_hash != spec_hash) {
    throw util::TgiError("journal was written for a different sweep spec "
                         "(journal spec " +
                         spec_hash_hex(contents.spec_hash) +
                         ", current spec " + spec_hash_hex(spec_hash) + ")");
  }
  if (contents.mode != mode) {
    throw util::TgiError("journal mode is '" + contents.mode +
                         "' but this sweep runs '" + mode + "'");
  }
  if (contents.values != values) {
    throw util::TgiError("journal sweep values do not match this sweep");
  }
  state.damage = std::move(contents.damage);
  state.header_valid = true;
  const bool robust = (mode == "robust");
  for (std::size_t i = 0; i < contents.points.size(); ++i) {
    PointRecord& record = contents.points[i];
    const std::size_t line =
        i < contents.point_lines.size() ? contents.point_lines[i] : 0;
    const std::size_t index = record.index;
    if (index >= values.size()) {
      state.damage.push_back(
          JournalDamage{line, "point index " + std::to_string(index) +
                                  " is outside this sweep"});
      continue;
    }
    if (record.value != values[index]) {
      state.damage.push_back(JournalDamage{
          line, "point " + std::to_string(index) + " records sweep value " +
                    std::to_string(record.value) + " but this sweep has " +
                    std::to_string(values[index])});
      continue;
    }
    if (record.robust != robust) {
      state.damage.push_back(JournalDamage{
          line, "point " + std::to_string(index) +
                    " was journaled in the other sweep mode"});
      continue;
    }
    if (!state.completed.try_emplace(index, std::move(record)).second) {
      state.damage.push_back(JournalDamage{
          line, "duplicate record for point " + std::to_string(index) +
                    " (first valid wins)"});
    }
  }
  return state;
}

PointRecord make_point_record(std::size_t index, std::size_t value,
                              const SuitePoint& point,
                              const obs::PointRecorder* /*recorder*/) {
  PointRecord record;
  record.index = index;
  record.value = value;
  record.point = point;
  return record;
}

PointRecord make_robust_point_record(std::size_t index, std::size_t value,
                                     const RobustSuitePoint& point,
                                     const obs::PointRecorder* recorder) {
  PointRecord record = make_point_record(index, value, point.point, nullptr);
  record.robust = true;
  record.missing = point.missing;
  record.counters = point.counters;
  if (recorder != nullptr) {
    record.trace_now = recorder->now();
    record.events = recorder->events();
    record.trace_metrics = recorder->metrics().sorted();
  }
  return record;
}

void restore_recorder(const PointRecord& record,
                      obs::PointRecorder& recorder) {
  if (!record.robust) {
    // A plain point's trace is a pure function of its measurements: one
    // benchmark span each, back to back, as SuiteRunner recorded them.
    const std::vector<core::BenchmarkMeasurement>& ms =
        record.point.measurements;
    for (std::size_t b = 0; b < ms.size(); ++b) {
      recorder.set_context(b, 0);
      record_benchmark_run(recorder, ms[b].benchmark, ms[b].performance,
                           ms[b].metric_unit, ms[b].execution_time);
    }
    return;
  }
  for (const obs::TraceEvent& event : record.events) {
    recorder.restore_event(event);
  }
  for (const obs::Metric& metric : record.trace_metrics) {
    if (metric.kind == obs::MetricKind::kGauge) {
      recorder.metrics().set_max(metric.name, metric.value);
    } else {
      recorder.metrics().add(metric.name, metric.value);
    }
  }
  recorder.advance(record.trace_now);  // exact: clock starts at 0.0
}

obs::SweepTrace replay_trace(
    const std::map<std::size_t, PointRecord>& records) {
  std::vector<obs::PointRecorder> recorders;
  recorders.reserve(records.size());
  for (const auto& [k, record] : records) {
    recorders.emplace_back(k, std::to_string(record.value));
    restore_recorder(record, recorders.back());
  }
  return obs::SweepTrace::merge(std::move(recorders));
}

PointStore::PointStore(std::string path, std::uint64_t spec_hash,
                       std::string mode, std::vector<std::size_t> values)
    : path_(std::move(path)),
      spec_hash_(spec_hash),
      mode_(std::move(mode)),
      values_(std::move(values)) {
  TGI_REQUIRE(!path_.empty(), "PointStore needs a path");
}

StoreLoad PointStore::load(const char* warn_prefix) const {
  return load(path_, spec_hash_, mode_, values_, warn_prefix);
}

StoreLoad PointStore::load(const std::string& path, std::uint64_t spec_hash,
                           const std::string& mode,
                           const std::vector<std::size_t>& values,
                           const char* warn_prefix) {
  TGI_REQUIRE(!path.empty(), "PointStore needs a path");
  StoreLoad out;
  JournalContents contents;
  try {
    const std::optional<std::string> text = util::read_file_if_exists(path);
    if (!text) return out;  // no shard yet: every point misses
    contents = read_journal(*text);
    // Throws before it takes anything from `contents`, so the catch below
    // still sees the structural damage.
    JournalState state =
        reconcile_journal(std::move(contents), spec_hash, mode, values);
    out.completed = std::move(state.completed);
    out.damage = std::move(state.damage);
  } catch (const util::TgiError& ex) {
    // Unreadable (a directory, say), or a VALID header that contradicts
    // this binding: the file is foreign or tampered — quarantine it
    // wholesale.
    out.damage = std::move(contents.damage);
    out.damage.push_back(
        JournalDamage{0, std::string("shard rejected: ") + ex.what()});
  }
  for (const JournalDamage& d : out.damage) {
    TGI_LOG_WARN(warn_prefix << " (" << path << " line " << d.line
                             << "): " << d.reason);
  }
  return out;
}

std::string PointStore::encode_checked(std::size_t index,
                                       const PointRecord& record) const {
  TGI_REQUIRE(record.index == index,
              "point store: record index mismatch at " << index);
  std::string line = encode_point_record(record);
  const JournalState state = reconcile_journal(
      read_journal(encode_header_record(spec_hash_, mode_, values_) + line),
      spec_hash_, mode_, values_);
  TGI_REQUIRE(state.damage.empty(), "point store: refusing point "
                                         << index << " for '" << path_ << "': "
                                         << state.damage.front().reason);
  return line;
}

void PointStore::publish(std::map<std::size_t, PointRecord> records) {
  std::map<std::size_t, std::string> lines;
  for (const auto& [index, record] : records) {
    lines.emplace_hint(lines.end(), index, encode_checked(index, record));
  }
  const std::lock_guard<std::mutex> lock(mu_);
  write_lines(lines);
  lines_ = std::move(lines);
  records_ = std::move(records);
  published_ = true;
}

void PointStore::republish() {
  const std::lock_guard<std::mutex> lock(mu_);
  TGI_REQUIRE(published_, "point store: republish before publish ('"
                              << path_ << "')");
  write_lines(lines_);
}

void PointStore::write_lines(const std::map<std::size_t, std::string>& lines) {
  std::string text = encode_header_record(spec_hash_, mode_, values_);
  for (const auto& [index, line] : lines) text += line;
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  // The rename replaces the file an open append handle points at.
  if (out_.is_open()) out_.close();
  util::atomic_write_file(path_, text);
}

void PointStore::append(PointRecord record) {
  const std::string line = encode_checked(record.index, record);
  const std::lock_guard<std::mutex> lock(mu_);
  TGI_REQUIRE(published_, "point store: append before publish ('" << path_
                                                                  << "')");
  if (!out_.is_open()) {
    out_.open(path_, std::ios::binary | std::ios::app);
    TGI_REQUIRE(out_.good(),
                "cannot open journal '" << path_ << "' for appending");
  }
  // Deterministic I/O fault injection (DESIGN.md §11): tear this append
  // exactly the way ENOSPC/EIO/a crash mid-write would. A short write
  // leaves a prefix with no trailing newline — the same torn tail a
  // SIGKILL leaves — and the per-record CRC quarantines it on read.
  const util::IoFaultKind fault = util::next_io_fault();
  if (fault != util::IoFaultKind::kNone) {
    if (fault == util::IoFaultKind::kShortWrite) {
      out_ << line.substr(0, line.size() / 2);
      out_.flush();
    }
    throw util::TgiError(std::string("journal append failed (injected ") +
                         util::io_fault_name(fault) + ") for '" + path_ +
                         "'");
  }
  out_ << line;
  out_.flush();
  TGI_CHECK(out_.good(), "journal append failed for '" << path_ << "'");
  const std::size_t index = record.index;
  lines_.insert_or_assign(index, line);
  records_.insert_or_assign(index, std::move(record));
}

}  // namespace tgi::harness
