// Differential test of the journal decoder against the decoder it replaced
// (journal_oracle.h). Seeded plain and robust journals get edge
// tokens planted in every kind of number field — integers, hexfloats, trace
// and metric values, measurement CSV cells, quoted and with CR — resealed
// so they get past the CRC, and are then mutated by bit flips, truncations
// and inserted or deleted bytes, inside the checksummed payload or across
// the raw text. Both decoders must agree on every record, point line and
// damage entry — on text in memory and read back from a real file. The one intended difference, non-finite measurements, is
// in core::BenchmarkMeasurement::validate, which both decoders call.
#include "harness/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "harness/measurement_io.h"
#include "journal_oracle.h"
#include "journal_records.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

constexpr char kUs = '\x1f';
constexpr char kRs = '\x1e';
constexpr std::uint64_t kSpec = 0x5eedc0ffee5eedULL;
const std::vector<std::size_t> kValues = {1, 16, 48, 80, 128, 4096};

/// What strtod, std::stod and from_chars disagree on, and what the
/// journal's strict rules single out.
const char* const kEdgeTokens[] = {
    " 5", "+5", "0x1p3", "0X1P+0", "-0x0p+0", "1e-320", "1e400", "nan",
    "inf", "0x0.0000000000001p-1022", "0x1p-1074", "0x1.8p-1075",
    "0x1p-1075", "0x1.fffffffffffffp-1023", "5", "-5", "", "Infinity",
    "-inf", "nan(1)", "1e-400", "\t7", "7 ", "\r7", "0x", "0x.8", "1e", "+-1",
    ".5", "5.", "0", "-0", "1.7976931348623157e308", "1.7976931348623159e308",
    "18446744073709551615", "18446744073709551616", "00012", "12a", "1,2",
    "4.9406564584124654e-324", "2.2250738585072011e-308", "1e-5", "0x1P-3",
    // Near the spelling "%a" writes, which the decoder reads directly.
    "0x1.8P+1", "0X1.8p+1", "0x1.8p1", "0x1.8p+01", "0x1.p+0", "0x1.Ap+0",
    "0x2p+0", "0x1.00000000000000p+0", "0x1.0000000000000p+0", "0x1p+1024",
    "0x1p-1023", "0x1p-1022", "0x1.fffffffffffffp+1023", "-0x1p+0",
    "0x0p+0", "0x0p-0", "0x1p+0000", "0x1p+00000", "0x1.8p+", "0x1.8p",
    "0x1.8e+1", "0x1.-8p+1", "0x1.8p+1 ", "0x1.00000000000008p+0",
    "0x1.fffffffffffff8p+0"};

std::uint64_t pick(util::Xoshiro256& rng, std::size_t n) {
  return rng.next() % n;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// The journal's value escape: %, LF, CR, RS and US as %XX.
std::string escape(const std::string& raw) {
  std::string out;
  for (const char ch : raw) {
    if (ch == '%' || ch == '\n' || ch == '\r' || ch == kUs || ch == kRs) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// Inverse of escape() on the encoder's own output.
std::string unescape(const std::string& escaped) {
  std::string out;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      out += static_cast<char>(
          std::stoi(escaped.substr(i + 1, 2), nullptr, 16));
      i += 2;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

struct Line {
  std::string kind;
  std::string payload;
};

/// "TGIJ2 <kind> <crc> <payload>\n" apart.
Line split_line(const std::string& line) {
  const std::size_t kind_at = line.find(' ') + 1;
  const std::size_t crc_at = line.find(' ', kind_at) + 1;
  return {line.substr(kind_at, crc_at - kind_at - 1),
          line.substr(crc_at + 9, line.size() - crc_at - 10)};
}

/// A well-formed line for `kind` and `payload`, whatever the payload holds.
std::string seal(const std::string& kind, const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", util::crc32(kind + " " + payload));
  return "TGIJ2 " + kind + " " + crc + " " + payload + "\n";
}

/// `token` as one CSV cell: bare, quoted, with a CR the reader drops, or
/// with a CR inside quotes that std::stod skips as leading white space.
std::string csv_cell(const std::string& token, util::Xoshiro256& rng) {
  switch (pick(rng, 5)) {
    case 0:
      return "\"" + token + "\"";
    case 1:
      return token + "\r";
    case 2:
      return "\"\r" + token + "\"";
    default:
      return token;
  }
}

/// Replaces one number cell of one data row of a measurement CSV.
std::string plant_csv(const std::string& csv, const std::string& token,
                      util::Xoshiro256& rng) {
  std::vector<std::string> rows = split(csv, '\n');
  if (rows.size() < 3) return csv;  // header only: nothing to plant in
  // The text ends in '\n', so the last piece is empty.
  std::string& row = rows[1 + pick(rng, rows.size() - 2)];
  std::vector<std::string> cells = split(row, ',');
  if (cells.size() != 6) return csv;
  static const std::size_t kNumberCells[] = {1, 3, 4, 5};
  cells[kNumberCells[pick(rng, std::size(kNumberCells))]] =
      csv_cell(token, rng);
  row = join(cells, ',');
  return join(rows, '\n');
}

/// Replaces element `sub` of one list item of a RS/US-nested field value.
std::string plant_list(const std::string& value, std::size_t min_fields,
                       const std::vector<std::size_t>& number_fields,
                       const std::string& token, util::Xoshiro256& rng) {
  std::vector<std::string> items = split(value, kRs);
  std::string& item = items[pick(rng, items.size())];
  std::vector<std::string> f = split(item, kUs);
  if (f.size() < min_fields) return value;
  f[number_fields[pick(rng, number_fields.size())]] = token;
  item = join(f, kUs);
  return join(items, kRs);
}

/// One field of a record line rewritten around an edge token, and the line
/// resealed so the damage, if any, is the schema's to find.
std::string plant(const std::string& line, util::Xoshiro256& rng) {
  const Line parsed = split_line(line);
  std::vector<std::string> fields = split(parsed.payload, kUs);
  std::string& field = fields[pick(rng, fields.size())];
  const std::size_t eq = field.find('=');
  const std::string name = field.substr(0, eq);
  std::string value = unescape(field.substr(eq + 1));
  const std::string token = kEdgeTokens[pick(rng, std::size(kEdgeTokens))];
  if (name == "measurements" && !value.empty()) {
    value = plant_csv(value, token, rng);
  } else if (name == "events" && !value.empty()) {
    value = plant_list(value, 7, {3, 4, 5, 6}, token, rng);
  } else if (name == "metrics" && !value.empty()) {
    value = plant_list(value, 3, {2}, token, rng);
  } else if (name == "values" && !value.empty()) {
    std::vector<std::string> items = split(value, ',');
    items[pick(rng, items.size())] = token;
    value = join(items, ',');
  } else {
    value = token;
  }
  field = name + "=" + escape(value);
  return seal(parsed.kind, join(fields, kUs));
}

/// One bit flip, truncation, inserted byte or deleted byte.
void mutate(std::string& text, util::Xoshiro256& rng) {
  static const char kBytes[] = "\n \x1f\x1e%=,\"\r0123456789abcdefxXpP.+-";
  if (text.empty()) return;
  const std::size_t at = pick(rng, text.size());
  switch (pick(rng, 4)) {
    case 0:
      text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^
                                   (1U << pick(rng, 8)));
      break;
    case 1:
      text.resize(at);
      break;
    case 2:
      text.insert(at, 1,
                  pick(rng, 4) == 0
                      ? static_cast<char>(rng.next())
                      : kBytes[pick(rng, sizeof(kBytes) - 1)]);
      break;
    default:
      text.erase(at, 1);
      break;
  }
}

/// A mutation inside the checksummed payload, resealed.
std::string mutate_payload(const std::string& line, util::Xoshiro256& rng) {
  const Line parsed = split_line(line);
  std::string payload = parsed.payload;
  mutate(payload, rng);
  return seal(parsed.kind, payload);
}

std::string generated_journal(util::Xoshiro256& rng) {
  const bool robust = pick(rng, 2) == 0;
  std::string text;
  if (pick(rng, 8) != 0) {
    std::string header =
        encode_header_record(kSpec, robust ? "robust" : "plain", kValues);
    if (pick(rng, 4) == 0) header = plant(header, rng);
    text += header;
  }
  const std::uint64_t records = pick(rng, 5);
  for (std::uint64_t r = 0; r < records; ++r) {
    std::string line = encode_point_record(
        generated_record(rng, kValues, pick(rng, kValues.size()), robust));
    const std::uint64_t damage = pick(rng, 4);
    if (damage == 0 || damage == 1) line = plant(line, rng);
    if (damage == 2) line = mutate_payload(line, rng);
    text += line;
  }
  // A third of the journals take a raw mutation, half of those a second.
  if (pick(rng, 3) == 0) {
    mutate(text, rng);
    if (pick(rng, 2) == 0) mutate(text, rng);
  }
  return text;
}

/// A TgiError's message without the "(condition) at file:line" of the
/// TGI_REQUIRE that raised it, which names each decoder's own source.
std::string message_of(const std::string& reason) {
  const std::size_t dash = reason.find(" \u2014 ");  // TGI_REQUIRE's dash
  if (reason.rfind("precondition failed: ", 0) != 0 ||
      dash == std::string::npos) {
    return reason;
  }
  return reason.substr(dash);
}

void expect_same_contents(const JournalContents& want,
                          const JournalContents& got) {
  EXPECT_EQ(want.header_valid, got.header_valid);
  EXPECT_EQ(want.spec_hash, got.spec_hash);
  EXPECT_EQ(want.mode, got.mode);
  EXPECT_EQ(want.values, got.values);
  EXPECT_EQ(want.point_lines, got.point_lines);
  ASSERT_EQ(want.points.size(), got.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    expect_equal_records(want.points[i], got.points[i]);
  }
  ASSERT_EQ(want.damage.size(), got.damage.size());
  for (std::size_t i = 0; i < want.damage.size(); ++i) {
    EXPECT_EQ(want.damage[i].line, got.damage[i].line);
    EXPECT_EQ(message_of(want.damage[i].reason),
              message_of(got.damage[i].reason));
  }
}

TEST(JournalDecoder, AgreesWithTheReferenceDecoderOnDamagedJournals) {
  util::Xoshiro256 rng(0xdec0de5eedULL);
  std::size_t decoded_points = 0;
  std::size_t damaged_lines = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = generated_journal(rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << text);
    const JournalContents want = oracle::read_journal(text);
    const JournalContents got = read_journal(text);
    expect_same_contents(want, got);
    if (::testing::Test::HasFailure()) return;
    decoded_points += got.points.size();
    damaged_lines += got.damage.size();
  }
  // The generator must reach both outcomes often.
  EXPECT_GT(decoded_points, 1000u);
  EXPECT_GT(damaged_lines, 1000u);
}

TEST(JournalDecoder, AnArgWithTwoBadEscapesReportsLikeTheReferenceDecoder) {
  // One trace arg whose key ends in a truncated escape and whose value
  // holds a malformed one: the two decoders must name the same defect.
  PointRecord record;
  record.value = kValues[0];
  record.robust = true;
  obs::TraceEvent event;
  event.name = "HPL";
  event.category = "benchmark";
  event.args = {{"key", "value"}};
  record.events.push_back(event);
  const Line parsed = split_line(encode_point_record(record));
  std::vector<std::string> fields = split(parsed.payload, kUs);
  for (std::string& field : fields) {
    if (field.rfind("events=", 0) != 0) continue;
    std::vector<std::string> f = split(unescape(field.substr(7)), kUs);
    ASSERT_EQ(f.size(), 9u);
    f[7] = "key%4";
    f[8] = "value%zz";
    field = "events=" + escape(join(f, kUs));
  }
  const std::string text =
      encode_header_record(kSpec, "robust", kValues) +
      seal(parsed.kind, join(fields, kUs));
  const JournalContents want = oracle::read_journal(text);
  ASSERT_EQ(want.damage.size(), 1u);
  expect_same_contents(want, read_journal(text));
}

TEST(JournalDecoder, ReconcileMovesWhatItWouldCopy) {
  util::Xoshiro256 rng(0x5ec0dedULL);
  for (int trial = 0; trial < 300; ++trial) {
    const JournalContents contents = read_journal(generated_journal(rng));
    const std::string mode = pick(rng, 2) == 0 ? "robust" : "plain";
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    JournalState copied;
    JournalState moved;
    bool copy_threw = false;
    bool move_threw = false;
    try {
      copied = reconcile_journal(contents, kSpec, mode, kValues);
    } catch (const util::TgiError&) {
      copy_threw = true;
    }
    JournalContents movable = contents;
    try {
      moved = reconcile_journal(std::move(movable), kSpec, mode, kValues);
    } catch (const util::TgiError&) {
      move_threw = true;
      // Nothing was taken before the throw.
      EXPECT_EQ(movable.points.size(), contents.points.size());
      EXPECT_EQ(movable.damage.size(), contents.damage.size());
    }
    ASSERT_EQ(copy_threw, move_threw);
    EXPECT_EQ(copied.header_valid, moved.header_valid);
    ASSERT_EQ(copied.completed.size(), moved.completed.size());
    for (const auto& [index, record] : copied.completed) {
      ASSERT_EQ(moved.completed.count(index), 1u);
      expect_equal_records(record, moved.completed.at(index));
    }
    ASSERT_EQ(copied.damage.size(), moved.damage.size());
    for (std::size_t i = 0; i < copied.damage.size(); ++i) {
      EXPECT_EQ(copied.damage[i].line, moved.damage[i].line);
      EXPECT_EQ(copied.damage[i].reason, moved.damage[i].reason);
    }
  }
}

core::BenchmarkMeasurement random_measurement(util::Xoshiro256& rng) {
  static const char* const kNames[] = {"HPL", "STREAM", "IOzone, rewrite",
                                       "a \"quoted\" one"};
  core::BenchmarkMeasurement m;
  m.benchmark = kNames[pick(rng, std::size(kNames))];
  m.metric_unit = "MFLOPS";
  m.performance = rng.uniform(1e-3, 1e9);
  m.average_power = util::watts(rng.uniform(0.5, 5e4));
  m.execution_time = util::seconds(rng.uniform(1e-3, 1e6));
  m.energy = m.average_power * m.execution_time;
  return m;
}

TEST(JournalDecoder, MeasurementCsvAgreesWithTheReferenceParser) {
  util::Xoshiro256 rng(0xc5feedULL);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<core::BenchmarkMeasurement> ms;
    for (std::uint64_t i = 1 + pick(rng, 3); i > 0; --i) {
      ms.push_back(random_measurement(rng));
    }
    std::ostringstream out;
    write_measurements(out, ms);
    std::string csv = out.str();
    if (pick(rng, 4) != 0) {
      csv = plant_csv(csv, kEdgeTokens[pick(rng, std::size(kEdgeTokens))],
                      rng);
    }
    if (pick(rng, 4) == 0) mutate(csv, rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << csv);
    std::vector<core::BenchmarkMeasurement> want;
    std::vector<core::BenchmarkMeasurement> got;
    std::string want_error;
    std::string got_error;
    try {
      std::istringstream in(csv);
      want = oracle::read_measurements(in);
    } catch (const util::TgiError& e) {
      want_error = e.what();
    }
    try {
      got = read_measurements(std::string_view(csv));
    } catch (const util::TgiError& e) {
      got_error = e.what();
    }
    ASSERT_EQ(message_of(want_error), message_of(got_error));
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].benchmark, got[i].benchmark);
      EXPECT_EQ(want[i].metric_unit, got[i].metric_unit);
      EXPECT_EQ(bits(want[i].performance), bits(got[i].performance));
      EXPECT_EQ(bits(want[i].average_power.value()),
                bits(got[i].average_power.value()));
      EXPECT_EQ(bits(want[i].execution_time.value()),
                bits(got[i].execution_time.value()));
      EXPECT_EQ(bits(want[i].energy.value()), bits(got[i].energy.value()));
    }
    (want_error.empty() ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

/// A per-test scratch directory under the system temp dir, emptied first.
std::filesystem::path scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("tgi_journal_decoder_") + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(JournalDecoder, FileReadsAgreeWithTheReferenceDecoder) {
  // The same damaged journals, read back from a real file the way a cache
  // lookup reads a shard.
  const std::filesystem::path dir = scratch_dir();
  const std::string path = (dir / "shard.tgij").string();
  util::Xoshiro256 rng(0xf11e5eedULL);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = generated_journal(rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << ": " << text);
    util::atomic_write_file(path, text);
    expect_same_contents(oracle::read_journal(text), read_journal_file(path));
    if (::testing::Test::HasFailure()) return;
  }
  // A zero-length shard decodes like empty text; a store loading it
  // quarantines the missing header and serves nothing.
  util::atomic_write_file(path, "");
  expect_same_contents(oracle::read_journal(""), read_journal_file(path));
  const StoreLoad empty = PointStore(path, kSpec, "plain", kValues)
                              .load("test: quarantined entry");
  EXPECT_TRUE(empty.completed.empty());
  ASSERT_EQ(empty.damage.size(), 1u);
  EXPECT_NE(empty.damage[0].reason.find("header missing"), std::string::npos);
  // A missing shard is a miss for the store and an error for the reader.
  const std::string missing = (dir / "absent.tgij").string();
  const StoreLoad none =
      PointStore(missing, kSpec, "plain", kValues).load("test");
  EXPECT_TRUE(none.completed.empty());
  EXPECT_TRUE(none.damage.empty());
  EXPECT_THROW((void)read_journal_file(missing), util::TgiError);
  std::filesystem::remove_all(dir);
}

TEST(JournalDecoder, AShardRenamedOverAfterTheOpenIsReadWhole) {
  // A concurrent writer publishes by rename: a reader that opened the old
  // shard reads the old bytes whole, never a mix of the two files.
  const std::filesystem::path dir = scratch_dir();
  const std::string path = (dir / "shard.tgij").string();
  util::Xoshiro256 rng(0x2e4a3e5ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string before = generated_journal(rng);
    const std::string after = generated_journal(rng);
    util::atomic_write_file(path, before);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    util::atomic_write_file(path, after);
    const std::string text = util::read_to_end(fd, before.size() / 2);
    ::close(fd);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ASSERT_EQ(text, before);
    expect_same_contents(oracle::read_journal(before), read_journal(text));
    expect_same_contents(oracle::read_journal(after), read_journal_file(path));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tgi::harness
