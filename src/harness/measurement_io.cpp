#include "harness/measurement_io.h"

#include <algorithm>
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

/// Splits one CSV record into cells[0..n) and returns n, honoring RFC-4180
/// double-quote escaping and dropping CR outside quotes. Reuses the strings
/// already in `cells`, so a parse loop allocates only for its first rows.
std::size_t split_csv_into(std::string_view line,
                           std::vector<std::string>& cells) {
  std::size_t n = 0;
  const auto next_cell = [&]() -> std::string& {
    if (n == cells.size()) cells.emplace_back();
    std::string& cell = cells[n++];
    cell.clear();
    return cell;
  };
  std::string* cell = &next_cell();
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    // Copy the run of plain bytes up to the next quote (in quotes) or the
    // next quote, comma or CR (outside), then handle that byte.
    std::size_t stop = i;
    while (stop < line.size() && line[stop] != '"' &&
           (in_quotes || (line[stop] != ',' && line[stop] != '\r'))) {
      ++stop;
    }
    cell->append(line.substr(i, stop - i));
    if (stop == line.size()) break;
    const char ch = line[stop];
    i = stop + 1;
    if (ch == ',') {
      cell = &next_cell();
    } else if (ch == '"') {
      if (!in_quotes) {
        in_quotes = true;
      } else if (i < line.size() && line[i] == '"') {
        *cell += '"';
        ++i;
      } else {
        in_quotes = false;
      }
    }  // else a CR outside quotes: dropped
  }
  TGI_REQUIRE(!in_quotes, "unterminated quote in CSV record: " << line);
  return n;
}

}  // namespace

std::vector<std::string> split_csv_record(const std::string& line) {
  std::vector<std::string> cells;
  cells.resize(split_csv_into(line, cells));
  return cells;
}

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
  std::vector<std::string> cells;
  {
    static constexpr std::string_view kExpected[] = {
        "benchmark", "performance", "unit", "watts", "seconds", "joules"};
    const std::size_t n = split_csv_into(next_line(), cells);
    TGI_REQUIRE(n == std::size(kExpected) &&
                    std::equal(std::begin(kExpected), std::end(kExpected),
                               cells.begin()),
                "unexpected CSV header (want '" << kMeasurementCsvHeader
                                                << "')");
  }
  std::vector<core::BenchmarkMeasurement> out;
  int row = 1;
  // std::stod's acceptance: strtod's grammar, any leading white space, the
  // whole cell, and no range error.
  auto parse_double = [&](const std::string& cell, const char* what) {
    const util::ParsedDouble v = util::parse_double(cell);
    if (!v.complete || v.range_error) {
      throw util::PreconditionError("row " + std::to_string(row) +
                                    ": bad " + what + " value '" + cell +
                                    "'");
    }
    return v.value;
  };
  while (pos < text.size()) {
    const std::string_view line = next_line();
    ++row;
    if (line.empty()) continue;
    const std::size_t n = split_csv_into(line, cells);
    TGI_REQUIRE(n == 6, "row " << row << " has " << n << " cells, expected 6");
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
