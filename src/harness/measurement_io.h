// Measurement CSV interchange.
//
// A site with a real plug meter produces (benchmark, performance, unit,
// watts, seconds, joules) tuples; this module round-trips them through CSV
// so the tgi_calc tool (tools/) can compute the Green Index of machines we
// never simulated. The format is the same one the bench harnesses emit
// with csv=path.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/measurement.h"

namespace tgi::harness {

/// Header row of the interchange format.
inline constexpr const char* kMeasurementCsvHeader =
    "benchmark,performance,unit,watts,seconds,joules";

/// Writes measurements (with header) to a stream / file.
void write_measurements(std::ostream& out,
                        const std::vector<core::BenchmarkMeasurement>& ms);
void write_measurements_file(
    const std::string& path,
    const std::vector<core::BenchmarkMeasurement>& ms);

/// Parses measurements from text / a stream / a file: the one CSV parser,
/// shared by the tools and by journal records (harness/checkpoint.h).
/// Number cells take what std::stod takes, read by util::parse_double.
/// Validates every row (throws TgiError on malformed rows, wrong header, or
/// physically inconsistent tuples).
[[nodiscard]] std::vector<core::BenchmarkMeasurement> read_measurements(
    std::string_view text);
[[nodiscard]] std::vector<core::BenchmarkMeasurement> read_measurements(
    std::istream& in);
[[nodiscard]] std::vector<core::BenchmarkMeasurement> read_measurements_file(
    const std::string& path);

/// Splits one CSV record, honoring RFC-4180 double-quote escaping.
/// Exposed for tests.
[[nodiscard]] std::vector<std::string> split_csv_record(
    const std::string& line);

}  // namespace tgi::harness
