// Measurement CSV interchange: round-trips, quoting, error reporting, and
// seeded fuzz-lite sweeps (random suites must round-trip exactly; corrupted
// bytes must raise TgiError, never crash or mis-parse silently).
#include "harness/measurement_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

core::BenchmarkMeasurement sample(const std::string& name, double perf) {
  core::BenchmarkMeasurement m;
  m.benchmark = name;
  m.performance = perf;
  m.metric_unit = "MBPS";
  m.average_power = util::watts(1234.5);
  m.execution_time = util::seconds(60.0);
  m.energy = m.average_power * m.execution_time;
  return m;
}

TEST(MeasurementIo, RoundTrip) {
  const std::vector<core::BenchmarkMeasurement> original{
      sample("HPL", 901000.0), sample("STREAM", 130560.125),
      sample("IOzone", 63.4)};
  std::stringstream buffer;
  write_measurements(buffer, original);
  const auto parsed = read_measurements(buffer);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].benchmark, original[i].benchmark);
    EXPECT_DOUBLE_EQ(parsed[i].performance, original[i].performance);
    EXPECT_EQ(parsed[i].metric_unit, original[i].metric_unit);
    EXPECT_DOUBLE_EQ(parsed[i].average_power.value(),
                     original[i].average_power.value());
    EXPECT_DOUBLE_EQ(parsed[i].energy.value(), original[i].energy.value());
  }
}

TEST(MeasurementIo, QuotedBenchmarkNames) {
  auto m = sample("weird, \"name\"", 100.0);
  std::stringstream buffer;
  write_measurements(buffer, {m});
  const auto parsed = read_measurements(buffer);
  EXPECT_EQ(parsed[0].benchmark, "weird, \"name\"");
}

TEST(MeasurementIo, SplitCsvRecord) {
  EXPECT_EQ(split_csv_record("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_record("\"x,y\",z"),
            (std::vector<std::string>{"x,y", "z"}));
  EXPECT_EQ(split_csv_record("\"he said \"\"hi\"\"\",2"),
            (std::vector<std::string>{"he said \"hi\"", "2"}));
  EXPECT_EQ(split_csv_record(""), (std::vector<std::string>{""}));
  EXPECT_THROW(split_csv_record("\"unterminated"), util::PreconditionError);
}

TEST(MeasurementIo, RejectsWrongHeader) {
  std::stringstream buffer("foo,bar\n1,2\n");
  EXPECT_THROW(read_measurements(buffer), util::PreconditionError);
}

TEST(MeasurementIo, RejectsMalformedRow) {
  std::stringstream buffer(
      "benchmark,performance,unit,watts,seconds,joules\n"
      "HPL,not_a_number,MFLOPS,100,10,1000\n");
  EXPECT_THROW(read_measurements(buffer), util::PreconditionError);
}

TEST(MeasurementIo, RejectsShortRow) {
  std::stringstream buffer(
      "benchmark,performance,unit,watts,seconds,joules\n"
      "HPL,1,MFLOPS,100\n");
  EXPECT_THROW(read_measurements(buffer), util::PreconditionError);
}

TEST(MeasurementIo, RejectsInconsistentEnergy) {
  std::stringstream buffer(
      "benchmark,performance,unit,watts,seconds,joules\n"
      "HPL,1,MFLOPS,100,10,99999\n");
  EXPECT_THROW(read_measurements(buffer), util::PreconditionError);
}

TEST(MeasurementIo, RejectsInfiniteValues) {
  // Every cell passes the positivity and power x time checks; an infinite
  // performance would publish an infinite TGI.
  for (const char* perf : {"inf", "Infinity", "+INF", "1e400"}) {
    std::stringstream buffer(
        std::string("benchmark,performance,unit,watts,seconds,joules\n"
                    "HPL,") +
        perf + ",MFLOPS,100,10,1000\n");
    EXPECT_THROW(read_measurements(buffer), util::PreconditionError) << perf;
  }
}

TEST(MeasurementIo, RejectsEmptyFile) {
  std::stringstream empty;
  EXPECT_THROW(read_measurements(empty), util::PreconditionError);
  std::stringstream header_only(
      "benchmark,performance,unit,watts,seconds,joules\n");
  EXPECT_THROW(read_measurements(header_only), util::PreconditionError);
}

TEST(MeasurementIo, SkipsBlankLines) {
  std::stringstream buffer(
      "benchmark,performance,unit,watts,seconds,joules\n"
      "\n"
      "HPL,1,MFLOPS,100,10,1000\n"
      "\n");
  EXPECT_EQ(read_measurements(buffer).size(), 1u);
}

// ---------------------------------------------------------------------------
// Fuzz-lite: seeded randomized round-trips and corruption sweeps. The writer
// emits 17 significant digits, so every finite double must survive the trip
// bit-exactly; the reader must convert any malformed byte stream into a
// TgiError (fuzz checks it can never crash, hang, or silently accept).

core::BenchmarkMeasurement random_valid_measurement(util::Xoshiro256& rng) {
  // Names stress the RFC-4180 quoting path: commas, quotes, spaces.
  static const std::vector<std::string> kNames{
      "HPL",  "STREAM",       "IOzone, rewrite", "a \"quoted\" one",
      "\"\"", " lead/trail ", "semi;colon",      "tab\tseparated"};
  core::BenchmarkMeasurement m;
  m.benchmark = kNames[rng.uniform_index(kNames.size())];
  m.metric_unit = rng.uniform() < 0.5 ? "MFLOPS" : "MBPS";
  // Magnitudes from 1e-3 to 1e9: exercises scientific notation output.
  m.performance = rng.uniform(1e-3, 1e9);
  m.average_power = util::watts(rng.uniform(0.5, 50000.0));
  m.execution_time = util::seconds(rng.uniform(1e-3, 1e6));
  // energy = power * time keeps validate() happy by construction.
  m.energy = m.average_power * m.execution_time;
  return m;
}

TEST(MeasurementIoFuzz, RandomSuitesRoundTripExactly) {
  util::Xoshiro256 rng(0x5eedf00dULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    std::vector<core::BenchmarkMeasurement> original;
    for (std::size_t i = 0; i < n; ++i) {
      original.push_back(random_valid_measurement(rng));
    }
    std::stringstream buffer;
    write_measurements(buffer, original);
    const auto parsed = read_measurements(buffer);
    ASSERT_EQ(parsed.size(), original.size()) << "trial " << trial;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i].benchmark, original[i].benchmark);
      EXPECT_EQ(parsed[i].metric_unit, original[i].metric_unit);
      // Bit-exact, not EXPECT_DOUBLE_EQ: precision(17) promises identity.
      EXPECT_EQ(parsed[i].performance, original[i].performance);
      EXPECT_EQ(parsed[i].average_power.value(),
                original[i].average_power.value());
      EXPECT_EQ(parsed[i].execution_time.value(),
                original[i].execution_time.value());
      EXPECT_EQ(parsed[i].energy.value(), original[i].energy.value());
    }
  }
}

TEST(MeasurementIoFuzz, CorruptedInputThrowsTgiErrorNeverCrashes) {
  util::Xoshiro256 rng(0xc0ffeeULL);
  // Start from a known-good serialization and damage one thing per trial.
  std::stringstream pristine;
  write_measurements(pristine,
                     {random_valid_measurement(rng),
                      random_valid_measurement(rng),
                      random_valid_measurement(rng)});
  const std::string good = pristine.str();
  // Explicit length: the embedded NUL must stay part of the noise set.
  static const std::string kNoise("\",x;\t\0#-e9\n", 11);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    switch (rng.uniform_index(4)) {
      case 0:  // truncate mid-stream
        bad.resize(rng.uniform_index(bad.size()));
        break;
      case 1:  // overwrite one byte with noise
        bad[rng.uniform_index(bad.size())] =
            kNoise[rng.uniform_index(kNoise.size())];
        break;
      case 2:  // delete one byte
        bad.erase(rng.uniform_index(bad.size()), 1);
        break;
      default:  // insert one noise byte
        bad.insert(rng.uniform_index(bad.size() + 1), 1,
                   kNoise[rng.uniform_index(kNoise.size())]);
        break;
    }
    std::stringstream buffer(bad);
    try {
      const auto parsed = read_measurements(buffer);
      // Some corruptions are benign (e.g. a digit flip that stays a valid
      // tuple). Accepted output must still be a validated suite.
      for (const auto& m : parsed) m.validate();
    } catch (const util::TgiError&) {
      // The only acceptable failure mode.
    }
  }
}

TEST(MeasurementIoFuzz, RandomGarbageStreamsThrowTgiError) {
  util::Xoshiro256 rng(0xbadc0deULL);
  static const std::string kAlphabet =
      "abcHPL0123456789,.\"-+e \t\n";
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage;
    const std::size_t len = rng.uniform_index(240);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(kAlphabet[rng.uniform_index(kAlphabet.size())]);
    }
    std::stringstream buffer(garbage);
    // Without the exact header line, every stream must be rejected.
    EXPECT_THROW(read_measurements(buffer), util::TgiError)
        << "trial " << trial << " accepted: " << garbage;
  }
}

TEST(MeasurementIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tgi_measurements.csv";
  write_measurements_file(path, {sample("HPL", 1.0)});
  const auto parsed = read_measurements_file(path);
  EXPECT_EQ(parsed.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(read_measurements_file("/nonexistent/tgi.csv"),
               util::PreconditionError);
}

}  // namespace
}  // namespace tgi::harness
