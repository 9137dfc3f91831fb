#include "harness/measurement_io.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/number.h"
#include "util/table.h"

namespace tgi::harness {

void write_measurements(std::ostream& out,
                        const std::vector<core::BenchmarkMeasurement>& ms) {
  util::CsvWriter csv(out);
  csv.write_row({"benchmark", "performance", "unit", "watts", "seconds",
                 "joules"});
  for (const auto& m : ms) {
    m.validate();
    std::ostringstream perf;
    std::ostringstream watts;
    std::ostringstream secs;
    std::ostringstream joules;
    perf.precision(17);
    watts.precision(17);
    secs.precision(17);
    joules.precision(17);
    perf << m.performance;
    watts << m.average_power.value();
    secs << m.execution_time.value();
    joules << m.energy.value();
    csv.write_row({m.benchmark, perf.str(), m.metric_unit, watts.str(),
                   secs.str(), joules.str()});
  }
}

void write_measurements_file(
    const std::string& path,
    const std::vector<core::BenchmarkMeasurement>& ms) {
  // Write-to-temp + rename: a crash mid-write can never leave a truncated
  // measurement CSV where a previous good one stood (DESIGN.md §11).
  util::AtomicFile out(path);
  write_measurements(out.stream(), ms);
  out.commit();
}

namespace {

constexpr std::size_t kColumns = 6;

/// Splits one CSV record into views of its cells, honoring RFC-4180
/// double-quote escaping and dropping CR outside quotes, and returns how
/// many cells it has; the first kColumns land in `cells`. A cell without a
/// quote or a CR is a view of `line`. Any other cell is unescaped into
/// `scratch`, which the call clears and reserves to the line's size, so no
/// later cell moves an earlier one.
std::size_t split_csv_row(std::string_view line, std::string& scratch,
                          std::array<std::string_view, kColumns>& cells) {
  scratch.clear();
  std::size_t n = 0;
  std::size_t i = 0;
  while (true) {
    const std::size_t begin = i;
    while (i < line.size() && line[i] != ',' && line[i] != '"' &&
           line[i] != '\r') {
      ++i;
    }
    std::string_view cell = line.substr(begin, i - begin);
    if (i < line.size() && line[i] != ',') {
      scratch.reserve(line.size());
      const std::size_t at = scratch.size();
      scratch.append(cell);
      bool in_quotes = false;
      for (; i < line.size() && (in_quotes || line[i] != ','); ++i) {
        const char ch = line[i];
        if (ch == '"') {
          if (in_quotes && i + 1 < line.size() && line[i + 1] == '"') {
            scratch += '"';
            ++i;
          } else {
            in_quotes = !in_quotes;
          }
        } else if (in_quotes || ch != '\r') {
          scratch += ch;
        }
      }
      TGI_REQUIRE(!in_quotes, "unterminated quote in CSV record: " << line);
      cell = std::string_view(scratch).substr(at);
    }
    if (n < kColumns) cells[n] = cell;
    ++n;
    if (i == line.size()) return n;
    ++i;  // the comma
  }
}

}  // namespace

std::vector<core::BenchmarkMeasurement> read_measurements(
    std::string_view text) {
  TGI_REQUIRE(!text.empty(), "empty measurement CSV");
  std::size_t pos = 0;
  const auto next_line = [&] {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  std::string scratch;
  std::array<std::string_view, kColumns> cells;
  if (const std::string_view header = next_line();
      header != kMeasurementCsvHeader) {
    static constexpr std::array<std::string_view, kColumns> kExpected = {
        "benchmark", "performance", "unit", "watts", "seconds", "joules"};
    TGI_REQUIRE(split_csv_row(header, scratch, cells) == kColumns &&
                    cells == kExpected,
                "unexpected CSV header (want '" << kMeasurementCsvHeader
                                                << "')");
  }
  std::vector<core::BenchmarkMeasurement> out;
  std::size_t newlines = 0;
  for (std::size_t at = text.find('\n'); at != std::string_view::npos;
       at = text.find('\n', at + 1)) {
    ++newlines;
  }
  // A data row holds five commas and ends in '\n' or the end of the text.
  out.reserve(std::min(newlines, text.size() / kColumns));
  int row = 1;
  // std::stod's acceptance: strtod's grammar, any leading white space, the
  // whole cell, and no range error.
  auto parse_double = [&](std::string_view cell, const char* what) {
    const util::ParsedDouble v = util::parse_double(cell);
    if (!v.complete || v.range_error) {
      throw util::PreconditionError("row " + std::to_string(row) +
                                    ": bad " + what + " value '" +
                                    std::string(cell) + "'");
    }
    return v.value;
  };
  while (pos < text.size()) {
    const std::string_view line = next_line();
    ++row;
    if (line.empty()) continue;
    const std::size_t n = split_csv_row(line, scratch, cells);
    TGI_REQUIRE(n == kColumns,
                "row " << row << " has " << n << " cells, expected 6");
    core::BenchmarkMeasurement& m = out.emplace_back();
    m.benchmark = cells[0];
    m.performance = parse_double(cells[1], "performance");
    m.metric_unit = cells[2];
    m.average_power = util::watts(parse_double(cells[3], "watts"));
    m.execution_time = util::seconds(parse_double(cells[4], "seconds"));
    m.energy = util::joules(parse_double(cells[5], "joules"));
    m.validate();
  }
  TGI_REQUIRE(!out.empty(), "measurement CSV has no data rows");
  return out;
}

std::vector<core::BenchmarkMeasurement> read_measurements(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return read_measurements(std::string_view(text));
}

std::vector<core::BenchmarkMeasurement> read_measurements_file(
    const std::string& path) {
  std::ifstream in(path);
  TGI_REQUIRE(in.good(), "cannot open '" << path << "' for reading");
  return read_measurements(in);
}

}  // namespace tgi::harness
