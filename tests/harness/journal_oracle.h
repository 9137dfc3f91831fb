// The journal decoder as it stood before the one-pass rewrite, kept as the
// reference the differential test (test_journal_decoder.cpp) compares the
// production decoder against: line splitting into strings, a std::map of
// unescaped fields, strtod for hexfloats, and measurement CSV read through
// std::istringstream, std::getline and std::stod. Test-only; not linked into
// any tool.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "core/measurement.h"
#include "harness/checkpoint.h"

namespace tgi::harness::oracle {

/// The reference read_journal: same contract as harness::read_journal.
[[nodiscard]] JournalContents read_journal(const std::string& text);

/// The reference read_measurements: same contract as
/// harness::read_measurements.
[[nodiscard]] std::vector<core::BenchmarkMeasurement> read_measurements(
    std::istream& in);

}  // namespace tgi::harness::oracle
