// The point store and checkpoints (DESIGN.md §11): pinned and
// seeded-generated record round-trips, strict field decoding, kill-and-
// rerun determinism at every thread count, a completed journal that is the
// same bytes at every thread count, checksum quarantine of torn and
// corrupted records, the store's refusal to write a record its load would
// quarantine, and the fuzz-lite corruption sweep mirroring the
// measurement_io tests — a damaged journal may cost recomputation, never
// correctness. Every checkpointed sweep here is filled the way tgi_sweep
// fills one: ResultCache::fill over the sweep engine's point body.
#include "harness/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <map>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cache.h"
#include "harness/parallel.h"
#include "journal_records.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/io_faults.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

namespace fs = std::filesystem;

const std::vector<std::size_t> kSweep = {16, 48, 80, 128};
constexpr std::uint64_t kSpec = 0x5eedc0ffee5eedULL;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_checkpoint_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] std::string dir(const std::string& rel) const {
    return (root_ / rel).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static void spill(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  fs::path root_;
};

ParallelSweep make_engine(std::size_t threads, std::size_t stride) {
  power::WattsUpConfig base;
  base.seed = 0x0b5e7fULL;
  ParallelSweepConfig cfg;
  cfg.threads = threads;
  return {sim::fire_cluster(), wattsup_meter_factory(base, stride), cfg};
}

std::size_t plain_stride() { return suite_benchmarks({}).size(); }

/// The test sweep's shard in `dir`: where `tgi_sweep checkpoint=DIR` keeps
/// it, ResultCache::shard_path.
std::string shard(const std::string& dir) {
  return dir + "/" + spec_hash_hex(kSpec) + ".tgij";
}

/// The test sweep's checkpoint store in `dir`.
PointStore store_at(const std::string& dir, const std::string& mode = "plain") {
  return PointStore(shard(dir), kSpec, mode, kSweep);
}

/// How fill_sweep runs the test sweep.
struct SweepRun {
  std::size_t threads = 1;
  std::uint64_t spec = kSpec;
  const FaultPlan* plan = nullptr;  ///< robust sweep when set
  std::size_t crash_value = 0;      ///< this sweep value's point throws
};

struct Filled {
  CacheLookup shard;          ///< every record, plus the quarantined damage
  std::size_t computed = 0;   ///< points handed to compute
};

/// The test sweep checkpointed into `dir` the way `tgi_sweep checkpoint=DIR`
/// runs it: ResultCache::fill over the sweep engine's point body.
Filled fill_sweep(const std::string& dir, const SweepRun& run = {}) {
  const RobustConfig robust;
  const ParallelSweep engine = make_engine(
      run.threads, run.plan != nullptr
                       ? robust_measurements_per_point({}, robust)
                       : plain_stride());
  Filled filled;
  filled.shard = ResultCache(dir).fill(
      run.spec, run.plan != nullptr ? "robust" : "plain", kSweep,
      [&engine, &run, &robust, &filled](const std::vector<std::size_t>& pending,
                                        const RecordSink& done) {
        filled.computed = pending.size();
        execute_points(
            pending.size(), run.threads, nullptr,
            [&engine, &run, &robust, &pending, &done](std::size_t i) {
              const std::size_t k = pending[i];
              if (kSweep[k] == run.crash_value) {
                throw util::TgiError("injected point crash");
              }
              done(engine.record_point(kSweep, k, run.plan, robust));
            });
      });
  return filled;
}

/// The sweep's points as a sweep returns them.
std::vector<SuitePoint> points_of(const Filled& filled) {
  std::vector<SuitePoint> points;
  for (const auto& [k, record] : filled.shard.completed) {
    points.push_back(record.point);
  }
  return points;
}

FaultSpec hot_spec() {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.3;
  spec.failure_rate = 0.15;
  spec.timeout_rate = 0.08;
  spec.truncation_rate = 0.07;
  return spec;
}

std::pair<std::string, std::string> serialize(const obs::SweepTrace& trace) {
  std::ostringstream json;
  trace.write_chrome_trace(json);
  std::ostringstream csv;
  trace.write_metrics_csv(csv);
  return {json.str(), csv.str()};
}

/// The trace derived from plain sweep points, as tgi_sweep emits it.
obs::SweepTrace points_trace(const std::vector<SuitePoint>& points) {
  std::map<std::size_t, PointRecord> records;
  for (std::size_t k = 0; k < points.size(); ++k) {
    records.emplace(k, make_point_record(k, kSweep[k], points[k], nullptr));
  }
  return replay_trace(records);
}

void expect_bitwise_equal(const std::vector<SuitePoint>& a,
                          const std::vector<SuitePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].processes, b[k].processes);
    EXPECT_EQ(a[k].nodes, b[k].nodes);
    ASSERT_EQ(a[k].measurements.size(), b[k].measurements.size());
    for (std::size_t i = 0; i < a[k].measurements.size(); ++i) {
      const auto& x = a[k].measurements[i];
      const auto& y = b[k].measurements[i];
      EXPECT_EQ(x.benchmark, y.benchmark);
      EXPECT_EQ(x.performance, y.performance);
      EXPECT_EQ(x.metric_unit, y.metric_unit);
      EXPECT_EQ(x.average_power.value(), y.average_power.value());
      EXPECT_EQ(x.execution_time.value(), y.execution_time.value());
      EXPECT_EQ(x.energy.value(), y.energy.value());
    }
  }
}

PointRecord sample_record() {
  PointRecord record;
  record.index = 2;
  record.value = 80;
  record.point.processes = 80;
  record.point.nodes = 10;
  core::BenchmarkMeasurement m;
  m.benchmark = "HPL";
  m.performance = 123.4567890123456789;
  m.metric_unit = "MFLOPS";
  m.average_power = util::watts(4321.125);
  m.execution_time = util::seconds(17.03125);
  m.energy = util::joules(4321.125 * 17.03125);
  record.point.measurements.push_back(m);
  return record;
}

/// sample_record as a robust point, with the trace a robust record stores.
PointRecord robust_sample() {
  PointRecord record = sample_record();
  record.robust = true;
  record.counters.attempts = 9;
  record.counters.backoff = util::Seconds(35.0);
  record.counters.stalled = util::Seconds(240.0);
  record.trace_now = util::Seconds(17.03125);
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpan;
  e.name = "HPL";
  e.category = "benchmark";
  e.benchmark = 0;
  e.attempt = 0;
  e.start = util::Seconds(0.0);
  e.duration = util::Seconds(17.03125);
  e.args = {{"note", "weird,chars\npercent % and\x1f sep"}};
  record.events.push_back(e);
  record.trace_metrics.push_back(
      obs::Metric{"runs", obs::MetricKind::kCounter, 1.0});
  record.trace_metrics.push_back(
      obs::Metric{"peak_watts", obs::MetricKind::kGauge, 4321.125});
  return record;
}

// ---------------------------------------------------------------- records

TEST(JournalRecord, HeaderRoundTrips) {
  const std::string line = encode_header_record(kSpec, "robust", kSweep);
  EXPECT_EQ(line.back(), '\n');
  const JournalContents contents = read_journal(line);
  EXPECT_TRUE(contents.damage.empty());
  ASSERT_TRUE(contents.header_valid);
  EXPECT_EQ(contents.spec_hash, kSpec);
  EXPECT_EQ(contents.mode, "robust");
  EXPECT_EQ(contents.values, kSweep);
}

TEST(JournalRecord, PointRoundTripsBitExactly) {
  const PointRecord record = sample_record();
  const std::string text =
      encode_header_record(kSpec, "plain", kSweep) +
      encode_point_record(record);
  const JournalContents contents = read_journal(text);
  ASSERT_TRUE(contents.damage.empty())
      << contents.damage.front().reason;
  ASSERT_EQ(contents.points.size(), 1u);
  const PointRecord& got = contents.points[0];
  EXPECT_EQ(got.index, record.index);
  EXPECT_EQ(got.value, record.value);
  EXPECT_EQ(got.point.processes, record.point.processes);
  EXPECT_EQ(got.point.nodes, record.point.nodes);
  ASSERT_EQ(got.point.measurements.size(), 1u);
  // Bitwise: doubles ride the 17-digit interchange format / hexfloats.
  EXPECT_EQ(got.point.measurements[0].performance,
            record.point.measurements[0].performance);
  EXPECT_EQ(got.point.measurements[0].energy.value(),
            record.point.measurements[0].energy.value());
  // A plain record stores no trace: it is derived from the measurements.
  EXPECT_TRUE(got.events.empty());
  EXPECT_TRUE(got.trace_metrics.empty());
  const std::string line = encode_point_record(record);
  for (const char* field : {"traced=", "now=", "events=", "metrics="}) {
    EXPECT_EQ(line.find(field), std::string::npos) << field;
  }
}

TEST(JournalRecord, RobustTraceRoundTripsBitExactly) {
  const PointRecord record = robust_sample();
  const JournalContents contents = read_journal(
      encode_header_record(kSpec, "robust", kSweep) +
      encode_point_record(record));
  ASSERT_TRUE(contents.damage.empty())
      << contents.damage.front().reason;
  ASSERT_EQ(contents.points.size(), 1u);
  const PointRecord& got = contents.points[0];
  EXPECT_EQ(got.trace_now.value(), record.trace_now.value());
  ASSERT_EQ(got.events.size(), 1u);
  EXPECT_EQ(got.events[0].name, "HPL");
  EXPECT_EQ(got.events[0].duration.value(),
            record.events[0].duration.value());
  ASSERT_EQ(got.events[0].args.size(), 1u);
  EXPECT_EQ(got.events[0].args[0].second,
            record.events[0].args[0].second);
  ASSERT_EQ(got.trace_metrics.size(), 2u);
  EXPECT_EQ(got.trace_metrics[1].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(got.trace_metrics[1].value, 4321.125);
}

TEST(JournalRecord, PlainRecordWithATraceIsRefused) {
  // It would not be stored, so the encoder refuses rather than drop it.
  PointRecord record = sample_record();
  record.events = robust_sample().events;
  EXPECT_THROW((void)encode_point_record(record), util::PreconditionError);
}

TEST(JournalRecord, RobustSectionRoundTrips) {
  PointRecord record = robust_sample();
  record.missing = {"IOzone", "GUPS"};
  record.counters.attempts = 9;
  record.counters.retries = 5;
  record.counters.run_faults = 3;
  record.counters.meter_faults = 2;
  record.counters.rejected_readings = 1;
  record.counters.dropped_benchmarks = 2;
  record.counters.backoff = util::Seconds(35.0);
  record.counters.stalled = util::Seconds(240.0);
  const JournalContents contents =
      read_journal(encode_point_record(record));
  ASSERT_EQ(contents.points.size(), 1u);
  const PointRecord& got = contents.points[0];
  EXPECT_TRUE(got.robust);
  EXPECT_EQ(got.missing, record.missing);
  EXPECT_EQ(got.counters.attempts, 9u);
  EXPECT_EQ(got.counters.retries, 5u);
  EXPECT_EQ(got.counters.dropped_benchmarks, 2u);
  EXPECT_EQ(got.counters.backoff.value(), 35.0);
  EXPECT_EQ(got.counters.stalled.value(), 240.0);
}

TEST(JournalRecord, SpecHashIsStable) {
  // Pin the FNV-1a implementation so journals survive rebuilds.
  EXPECT_EQ(journal_spec_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(journal_spec_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(journal_spec_hash("cluster=fire"),
            journal_spec_hash("cluster=systemg"));
}

// ------------------------------------------------------------- quarantine

TEST(JournalQuarantine, TornTailIsQuarantined) {
  const std::string text = encode_header_record(kSpec, "plain", kSweep) +
                           encode_point_record(sample_record());
  // Kill mid-append: the final record loses its tail (and newline).
  const std::string torn = text.substr(0, text.size() - 7);
  const JournalContents contents = read_journal(torn);
  EXPECT_TRUE(contents.header_valid);
  EXPECT_TRUE(contents.points.empty());
  ASSERT_EQ(contents.damage.size(), 1u);
  EXPECT_NE(contents.damage[0].reason.find("torn"), std::string::npos);
}

TEST(JournalQuarantine, EveryBitFlipIsDetected) {
  const std::string line = encode_point_record(sample_record());
  // Flip each byte of the record (newline excluded) at one bit position;
  // the CRC must catch all of them.
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    std::string flipped = line;
    flipped[i] = static_cast<char>(
        static_cast<unsigned char>(flipped[i]) ^ (1u << (i % 8)));
    if (flipped[i] == '\n') continue;  // handled by the torn/merge paths
    const JournalContents contents = read_journal(flipped);
    EXPECT_TRUE(contents.points.empty()) << "byte " << i;
    EXPECT_FALSE(contents.damage.empty()) << "byte " << i;
  }
}

TEST(JournalQuarantine, ReconcileDropsForeignAndDuplicateRecords) {
  PointRecord valid = sample_record();
  PointRecord dup = valid;
  PointRecord out_of_range = valid;
  out_of_range.index = 99;
  PointRecord wrong_value = valid;
  wrong_value.index = 1;  // kSweep[1] == 48, but record.value stays 80
  const std::string text =
      encode_header_record(kSpec, "plain", kSweep) +
      encode_point_record(valid) + encode_point_record(dup) +
      encode_point_record(out_of_range) + encode_point_record(wrong_value);
  const JournalState state =
      reconcile_journal(read_journal(text), kSpec, "plain", kSweep);
  EXPECT_TRUE(state.header_valid);
  EXPECT_EQ(state.completed.size(), 1u);
  EXPECT_TRUE(state.completed.count(2));
  EXPECT_EQ(state.damage.size(), 3u);
}

TEST(JournalQuarantine, SpecHashMismatchThrows) {
  const std::string text = encode_header_record(kSpec, "plain", kSweep);
  EXPECT_THROW(
      reconcile_journal(read_journal(text), kSpec + 1, "plain", kSweep),
      util::TgiError);
  EXPECT_THROW(reconcile_journal(read_journal(text), kSpec, "robust", kSweep),
               util::TgiError);
  EXPECT_THROW(
      reconcile_journal(read_journal(text), kSpec, "plain", {16, 48}),
      util::TgiError);
}

TEST(JournalQuarantine, MissingHeaderQuarantinesEverything) {
  const std::string text = encode_point_record(sample_record());
  const JournalState state =
      reconcile_journal(read_journal(text), kSpec, "plain", kSweep);
  EXPECT_FALSE(state.header_valid);
  EXPECT_TRUE(state.completed.empty());
  EXPECT_FALSE(state.damage.empty());
}

/// `line` (one encoded record) with `from` replaced by `to` inside its
/// payload and the CRC recomputed: damage only the schema can catch.
std::string reseal(const std::string& line, const std::string& from,
                   const std::string& to) {
  // TGIJ2 <kind> <crc32-hex8> <payload>\n
  const std::size_t kind_at = line.find(' ') + 1;
  const std::size_t crc_at = line.find(' ', kind_at) + 1;
  const std::string kind = line.substr(kind_at, crc_at - kind_at - 1);
  std::string payload = line.substr(crc_at + 9, line.size() - crc_at - 10);
  const std::size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) payload.replace(at, from.size(), to);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", util::crc32(kind + " " + payload));
  return "TGIJ2 " + kind + " " + crc + " " + payload + "\n";
}

/// Asserts the record line is quarantined with exactly one damage entry.
void expect_quarantined(const std::string& line, const std::string& what) {
  const JournalContents contents = read_journal(line);
  EXPECT_TRUE(contents.points.empty()) << what;
  EXPECT_FALSE(contents.header_valid) << what;
  EXPECT_EQ(contents.damage.size(), 1u) << what;
}

TEST(JournalQuarantine, IntegersAreDigitsOnlyAndMustFit) {
  const std::string line = encode_point_record(robust_sample());
  ASSERT_EQ(read_journal(line).points.size(), 1u);
  for (const char* bad : {"attempts= -1", "attempts=+9", "attempts= 9",
                          "attempts=18446744073709551616"}) {
    expect_quarantined(reseal(line, "attempts=9", bad), bad);
  }
}

TEST(JournalQuarantine, HeaderValuesAreDigitsOnly) {
  const std::string header = encode_header_record(kSpec, "plain", {16, 48});
  ASSERT_TRUE(read_journal(header).header_valid);
  expect_quarantined(reseal(header, "values=16,48", "values=16, -5"),
                     "values=16, -5");
}

TEST(JournalQuarantine, RecorderClockMustBeFiniteAndNonNegative) {
  for (const double now : {std::nan(""), HUGE_VAL, -1.0}) {
    PointRecord record = robust_sample();
    record.trace_now = util::Seconds(now);
    expect_quarantined(encode_point_record(record), std::to_string(now));
  }
}

TEST(JournalQuarantine, RobustDurationsMustBeFiniteAndNonNegative) {
  PointRecord backoff = robust_sample();
  backoff.counters.backoff = util::Seconds(-HUGE_VAL);
  expect_quarantined(encode_point_record(backoff), "backoff=-inf");
  PointRecord stalled = robust_sample();
  stalled.counters.stalled = util::Seconds(-2.5);
  expect_quarantined(encode_point_record(stalled), "stalled=-2.5");
}

TEST(JournalQuarantine, TraceEventTimesMustBeFiniteAndNonNegative) {
  PointRecord start = robust_sample();
  start.events[0].start = util::Seconds(-1.0);
  expect_quarantined(encode_point_record(start), "start=-1");
  PointRecord duration = robust_sample();
  duration.events[0].duration = util::Seconds(std::nan(""));
  expect_quarantined(encode_point_record(duration), "duration=nan");
}

TEST(JournalQuarantine, InfiniteMeasurementsAreQuarantined) {
  // A CRC-valid record whose HPL performance is inf: it must not decode,
  // or a resumed or cached figure would carry an infinite TGI.
  const std::string line = encode_point_record(sample_record());
  ASSERT_EQ(read_journal(line).points.size(), 1u);
  for (const char* inf : {"inf", "Infinity"}) {
    expect_quarantined(reseal(line, "123.45678901234568", inf), inf);
  }
}

TEST(JournalQuarantine, MetricValuesMustBeFinite) {
  PointRecord record = robust_sample();
  record.trace_metrics[0].value = HUGE_VAL;
  expect_quarantined(encode_point_record(record), "metric=inf");
}

// ------------------------------------------------------ round-trip property

// generated_record and expect_equal_records: journal_records.h.

TEST(JournalRoundTrip, EncodeReadEncodeIsByteIdentical) {
  util::Xoshiro256 rng(0x70bd7e1bULL);
  const std::vector<std::size_t> values = {1, 16, 48, 80, 128, 4096};
  for (int trial = 0; trial < 300; ++trial) {
    const PointRecord record =
        generated_record(rng, values, rng.next() % values.size(),
                         trial % 2 == 1);
    const std::string line = encode_point_record(record);
    const JournalContents contents = read_journal(line);
    ASSERT_TRUE(contents.damage.empty())
        << "trial " << trial << ": " << contents.damage[0].reason;
    ASSERT_EQ(contents.points.size(), 1u) << "trial " << trial;
    EXPECT_EQ(encode_point_record(contents.points[0]), line)
        << "trial " << trial;
    expect_equal_records(contents.points[0], record);
  }
}

TEST_F(CheckpointTest, GeneratedRecordsSurvivePublishAndLoad) {
  util::Xoshiro256 rng(0x5105eedULL);
  const std::vector<std::size_t> values = {16, 32, 48, 64, 80, 96, 112, 128};
  for (int trial = 0; trial < 24; ++trial) {
    const bool robust = trial % 2 == 1;
    PointStore store(shard(dir("t" + std::to_string(trial))),
                     kSpec + static_cast<std::uint64_t>(trial),
                     robust ? "robust" : "plain", values);
    std::map<std::size_t, PointRecord> published;
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (rng.next() % 4 == 0) continue;  // partial stores are allowed
      published.emplace(k, generated_record(rng, values, k, robust));
    }
    store.publish(published);
    const StoreLoad loaded = store.load("test");
    EXPECT_TRUE(loaded.damage.empty()) << "trial " << trial;
    ASSERT_EQ(loaded.completed.size(), published.size()) << "trial " << trial;
    for (const auto& [k, record] : published) {
      ASSERT_TRUE(loaded.hit(k)) << "trial " << trial << " point " << k;
      expect_equal_records(loaded.completed.at(k), record);
    }
  }
}

// ------------------------------------------------------- engine integration

TEST_F(CheckpointTest, CheckpointingDoesNotPerturbResultsOrTrace) {
  const auto bare = make_engine(2, plain_stride()).run(kSweep);
  const Filled filled = fill_sweep(dir("cp"), {.threads = 2});
  expect_bitwise_equal(points_of(filled), bare);
  EXPECT_EQ(serialize(replay_trace(filled.shard.completed)),
            serialize(points_trace(bare)));
}

TEST_F(CheckpointTest, FreshJournalReplaysCompletely) {
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  EXPECT_EQ(fill_sweep(dir("cp"), {.threads = 2}).computed, kSweep.size());
  const std::string complete = slurp(shard(dir("cp")));
  // A rerun over a complete shard: every point replays, none recompute,
  // and the shard is not even rewritten.
  const fs::file_time_type past =
      fs::last_write_time(shard(dir("cp"))) - std::chrono::hours(24 * 365);
  fs::last_write_time(shard(dir("cp")), past);
  const Filled resumed = fill_sweep(dir("cp"), {.threads = 4});
  EXPECT_TRUE(resumed.shard.damage.empty());
  EXPECT_EQ(resumed.computed, 0u);
  expect_bitwise_equal(points_of(resumed), baseline);
  EXPECT_EQ(slurp(shard(dir("cp"))), complete);
  EXPECT_EQ(fs::last_write_time(shard(dir("cp"))), past);
}

TEST_F(CheckpointTest, CompletedJournalIsThreadCountInvariant) {
  // Points append in completion order, but the completed sweep is
  // published in index order: the same bytes at every thread count — the
  // spec's cache shard.
  std::string serial;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    const std::string cp = dir("t" + std::to_string(threads));
    (void)fill_sweep(cp, {.threads = threads});
    const std::string bytes = slurp(shard(cp));
    if (threads == 1) serial = bytes;
    EXPECT_EQ(bytes, serial) << "threads=" << threads;
  }
  std::string expected = encode_header_record(kSpec, "plain", kSweep);
  for (const auto& [k, record] :
       store_at(dir("t1")).load("test").completed) {
    expected += encode_point_record(record);
  }
  EXPECT_EQ(serial, expected);
}

/// The journal's lines, newline-stripped.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST_F(CheckpointTest, KillAndResumeIsByteIdenticalAtEveryThreadCount) {
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  const auto baseline_bytes = serialize(points_trace(baseline));
  // A full checkpointed run provides the journal we will truncate.
  (void)fill_sweep(dir("full"));
  const std::string full = slurp(shard(dir("full")));
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 1 + kSweep.size());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t keep = 0; keep <= kSweep.size(); ++keep) {
      // "Killed" journal: header + the first `keep` completed points.
      const std::string cp =
          dir("k" + std::to_string(threads) + "_" + std::to_string(keep));
      fs::create_directories(cp);
      std::string partial = lines[0] + "\n";
      for (std::size_t i = 0; i < keep; ++i) partial += lines[1 + i] + "\n";
      spill(shard(cp), partial);

      const Filled resumed = fill_sweep(cp, {.threads = threads});
      EXPECT_EQ(resumed.computed, kSweep.size() - keep);
      expect_bitwise_equal(points_of(resumed), baseline);
      EXPECT_EQ(serialize(replay_trace(resumed.shard.completed)),
                baseline_bytes)
          << "threads=" << threads << " keep=" << keep;
      EXPECT_EQ(slurp(shard(cp)), full)
          << "threads=" << threads << " keep=" << keep;
    }
  }
}

TEST_F(CheckpointTest, RobustKillAndResumeIsByteIdentical) {
  const RobustConfig robust;
  const std::size_t stride = robust_measurements_per_point({}, robust);
  const FaultPlan plan(hot_spec());
  const auto baseline = make_engine(1, stride).run_robust(kSweep, plan, robust);
  // The uninterrupted run's trace, recorded live and stored in its records.
  const auto baseline_bytes =
      serialize(replay_trace(fill_sweep(dir("full"), {.plan = &plan})
                                 .shard.completed));
  const std::string full = slurp(shard(dir("full")));
  // Keep header + first two records: two points replay, two recompute.
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 1 + kSweep.size());
  for (const std::size_t threads : {1u, 8u}) {
    const std::string cp = dir("r" + std::to_string(threads));
    fs::create_directories(cp);
    spill(shard(cp),
          lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
    const Filled resumed =
        fill_sweep(cp, {.threads = threads, .plan = &plan});
    EXPECT_EQ(resumed.computed, 2u);
    ASSERT_EQ(resumed.shard.completed.size(), baseline.size());
    for (std::size_t k = 0; k < baseline.size(); ++k) {
      const PointRecord& got = resumed.shard.completed.at(k);
      EXPECT_TRUE(got.robust);
      EXPECT_EQ(got.missing, baseline[k].missing);
      EXPECT_EQ(got.counters.attempts, baseline[k].counters.attempts);
      EXPECT_EQ(got.counters.backoff.value(),
                baseline[k].counters.backoff.value());
      ASSERT_EQ(got.point.measurements.size(),
                baseline[k].point.measurements.size());
      for (std::size_t i = 0; i < baseline[k].point.measurements.size();
           ++i) {
        EXPECT_EQ(got.point.measurements[i].energy.value(),
                  baseline[k].point.measurements[i].energy.value());
      }
    }
    EXPECT_EQ(serialize(replay_trace(resumed.shard.completed)),
              baseline_bytes)
        << "threads=" << threads;
    EXPECT_EQ(slurp(shard(cp)), full) << "threads=" << threads;
  }
}

TEST_F(CheckpointTest, TornRecordIsQuarantinedAndRecomputed) {
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  (void)fill_sweep(dir("cp"));
  // SIGKILL mid-append: chop the journal mid-record, no trailing newline.
  const std::string full = slurp(shard(dir("cp")));
  spill(shard(dir("cp")), full.substr(0, full.size() - 101));
  const Filled resumed = fill_sweep(dir("cp"), {.threads = 2});
  EXPECT_EQ(resumed.computed, 1u);
  ASSERT_FALSE(resumed.shard.damage.empty());
  EXPECT_NE(resumed.shard.damage.back().reason.find("torn"),
            std::string::npos);
  expect_bitwise_equal(points_of(resumed), baseline);
}

TEST_F(CheckpointTest, ResumeCompactsTheJournal) {
  (void)fill_sweep(dir("cp"));
  // Corrupt one record, then rerun twice: the first rerun quarantines and
  // recomputes; the shard it leaves behind must be fully valid.
  std::string text = slurp(shard(dir("cp")));
  text[text.size() / 2] ^= 0x20;
  spill(shard(dir("cp")), text);
  EXPECT_FALSE(fill_sweep(dir("cp"), {.threads = 2}).shard.damage.empty());
  const Filled again = fill_sweep(dir("cp"));
  EXPECT_TRUE(again.shard.damage.empty());
  EXPECT_EQ(again.computed, 0u);
  EXPECT_EQ(again.shard.completed.size(), kSweep.size());
}

TEST_F(CheckpointTest, ThrowingPointLeavesAResumableJournal) {
  // A point that dies after others journaled (the ThreadPool failure
  // path): the fill rethrows, the journal stays checksum-valid,
  // and a resume completes the remaining points bit-identically.
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  EXPECT_THROW((void)fill_sweep(dir("cp"), {.threads = 4, .crash_value = 128}),
               util::TgiError);
  const CacheLookup banked =
      ResultCache(dir("cp")).lookup(kSpec, "plain", kSweep);
  EXPECT_TRUE(banked.damage.empty());
  EXPECT_EQ(banked.completed.size(), kSweep.size() - 1);
  const Filled resumed = fill_sweep(dir("cp"), {.threads = 2});
  EXPECT_EQ(resumed.computed, 1u);
  expect_bitwise_equal(points_of(resumed), baseline);
}

TEST_F(CheckpointTest, ReplayRepublishesTheShardInIndexOrder) {
  // Survivors from the end of the sweep: points 0 and 1 are recomputed and
  // appended AFTER points 2 and 3, so only the final publish puts the
  // shard back in index order — the bytes of an uninterrupted run.
  (void)fill_sweep(dir("full"));
  const std::string full = slurp(shard(dir("full")));
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 1 + kSweep.size());
  for (const std::size_t threads : {1u, 4u}) {
    const std::string cp = dir("t" + std::to_string(threads));
    fs::create_directories(cp);
    spill(shard(cp), lines[0] + "\n" + lines[3] + "\n" + lines[4] + "\n");
    const Filled resumed = fill_sweep(cp, {.threads = threads});
    EXPECT_TRUE(resumed.shard.damage.empty());
    EXPECT_EQ(resumed.computed, 2u);
    EXPECT_EQ(slurp(shard(cp)), full) << "threads=" << threads;
  }
}

TEST_F(CheckpointTest, AnotherSpecInOneDirectoryGetsItsOwnShard) {
  // A checkpoint directory is a result cache: each spec's points live in
  // the shard its hash names, so a second spec checkpointed into the same
  // directory gets a shard of its own and leaves the first byte-identical.
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  const ResultCache cache(dir("cp"));
  EXPECT_TRUE(fill_sweep(dir("cp")).shard.damage.empty());
  const std::string first = slurp(cache.shard_path(kSpec));
  {
    const Filled other =
        fill_sweep(dir("cp"), {.threads = 2, .spec = kSpec + 1});
    EXPECT_TRUE(other.shard.damage.empty());
    EXPECT_EQ(other.computed, kSweep.size());
    expect_bitwise_equal(points_of(other), baseline);
  }
  EXPECT_EQ(slurp(cache.shard_path(kSpec)), first);
  EXPECT_EQ(cache.lookup(kSpec + 1, "plain", kSweep).completed.size(),
            kSweep.size());

  // Only tampering puts one spec's bytes under another's name: the load
  // quarantines the whole file and the sweep is recomputed, never served.
  spill(cache.shard_path(kSpec + 1), first);
  const Filled tampered =
      fill_sweep(dir("cp"), {.threads = 2, .spec = kSpec + 1});
  EXPECT_EQ(tampered.computed, kSweep.size());
  ASSERT_FALSE(tampered.shard.damage.empty());
  EXPECT_NE(tampered.shard.damage.back().reason.find(
                "written for a different sweep spec"),
            std::string::npos);
  expect_bitwise_equal(points_of(tampered), baseline);
  // The same holds for another mode under the right name.
  const StoreLoad robust =
      PointStore(cache.shard_path(kSpec), kSpec, "robust", kSweep)
          .load("test");
  EXPECT_TRUE(robust.completed.empty());
  ASSERT_FALSE(robust.damage.empty());
  EXPECT_NE(robust.damage.back().reason.find("journal mode is 'plain'"),
            std::string::npos);
}

// ------------------------------------------------------------- fuzz-lite

TEST_F(CheckpointTest, FuzzedJournalsNeverCorruptAResumedSweep) {
  const auto baseline = make_engine(1, plain_stride()).run(kSweep);
  (void)fill_sweep(dir("full"));
  const std::string pristine = slurp(shard(dir("full")));
  util::Xoshiro256 rng(0xfa22edULL);
  const auto rand_index = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = pristine;
    switch (trial % 5) {
      case 0:  // random truncation (torn tail)
        text = text.substr(0, rand_index(text.size()) + 1);
        break;
      case 1:  // random bit flip
        text[rand_index(text.size())] ^=
            static_cast<char>(1u << rand_index(8));
        break;
      case 2: {  // duplicate a random line
        std::vector<std::string> lines = lines_of(text);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rand_index(lines.size())),
                     lines[rand_index(lines.size())]);
        text.clear();
        for (const std::string& line : lines) text += line + "\n";
        break;
      }
      case 3: {  // reverse the record order
        std::vector<std::string> lines = lines_of(text);
        std::reverse(lines.begin(), lines.end());
        text.clear();
        for (const std::string& line : lines) text += line + "\n";
        break;
      }
      case 4:  // overwrite a random byte with garbage
        text[rand_index(text.size())] =
            static_cast<char>(rng.next() % 256);
        break;
    }
    const std::string cp = dir("fuzz" + std::to_string(trial));
    fs::create_directories(cp);
    spill(shard(cp), text);
    // Damage may cost recomputation — never a different answer, and never
    // an error.
    expect_bitwise_equal(points_of(fill_sweep(cp, {.threads = 2})),
                         baseline);
  }
}

// ------------------------------------------------- I/O fault shim (§15)

/// First seed whose first shim draw at rate=1 is `want`.
std::uint64_t seed_with_first(util::IoFaultKind want) {
  for (std::uint64_t seed = 0;; ++seed) {
    util::IoFaultSpec spec;
    spec.seed = seed;
    spec.rate = 1.0;
    util::ScopedIoFaults scoped(spec);
    if (util::next_io_fault() == want) return seed;
  }
}

PointRecord record_for(std::size_t index) {
  PointRecord record = sample_record();
  record.index = index;
  record.value = kSweep[index];
  record.point.processes = kSweep[index];
  return record;
}

TEST_F(CheckpointTest, InjectedShortWriteTearsOneAppendAndIsQuarantined) {
  {
    PointStore journal = store_at(dir("cp"));
    journal.publish({});
    journal.append(record_for(0));
    journal.append(record_for(1));
    util::IoFaultSpec spec;
    spec.seed = seed_with_first(util::IoFaultKind::kShortWrite);
    spec.rate = 1.0;
    util::ScopedIoFaults scoped(spec);
    EXPECT_THROW(journal.append(record_for(2)), util::TgiError);
  }
  // The torn half-record must read exactly like a SIGKILL mid-append:
  // quarantined tail, both earlier records intact.
  const StoreLoad reopened = store_at(dir("cp")).load("test");
  EXPECT_EQ(reopened.completed.size(), 2u);
  ASSERT_FALSE(reopened.damage.empty());
  EXPECT_NE(reopened.damage.back().reason.find("torn"), std::string::npos);
}

TEST_F(CheckpointTest, InjectedEnospcAndEioAbortTheAppendCleanly) {
  for (const util::IoFaultKind kind :
       {util::IoFaultKind::kEnospc, util::IoFaultKind::kEio}) {
    const std::string cp = dir(std::string("cp_") + util::io_fault_name(kind));
    {
      PointStore journal = store_at(cp);
      journal.publish({});
      journal.append(record_for(0));
      util::IoFaultSpec spec;
      spec.seed = seed_with_first(kind);
      spec.rate = 1.0;
      util::ScopedIoFaults scoped(spec);
      EXPECT_THROW(journal.append(record_for(1)), util::TgiError);
    }
    // Nothing was appended: one valid record, zero damage.
    const StoreLoad reopened = store_at(cp).load("test");
    EXPECT_TRUE(reopened.damage.empty()) << util::io_fault_name(kind);
    EXPECT_EQ(reopened.completed.size(), 1u) << util::io_fault_name(kind);
  }
}

TEST_F(CheckpointTest, FaultFuzzedJournalsAlwaysKeepTheBankedPrefix) {
  // Whatever the seed draws (short write, ENOSPC, EIO), a faulted append
  // may cost the one record — never a previously banked one, and never a
  // silently checksum-invalid record.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::string cp = dir("fuzz" + std::to_string(seed));
    {
      PointStore journal = store_at(cp);
      journal.publish({});
      journal.append(record_for(0));
      journal.append(record_for(1));
      util::IoFaultSpec spec;
      spec.seed = seed;
      spec.rate = 1.0;
      util::ScopedIoFaults scoped(spec);
      EXPECT_THROW(journal.append(record_for(2)), util::TgiError)
          << "seed " << seed;
    }
    const JournalContents contents =
        read_journal_file(shard(cp));
    const JournalState state =
        reconcile_journal(contents, kSpec, "plain", kSweep);
    EXPECT_EQ(state.completed.size(), 2u) << "seed " << seed;
    EXPECT_EQ(state.completed.count(0), 1u) << "seed " << seed;
    EXPECT_EQ(state.completed.count(1), 1u) << "seed " << seed;
    EXPECT_EQ(store_at(cp).load("test").completed.size(), 2u)
        << "seed " << seed;
  }
}

// ------------------------------------------------------------ point store

TEST_F(CheckpointTest, AppendsAfterARepublishLandInTheNewFile) {
  // publish() renames a new file over the one an open append handle
  // points at; later appends must reach the new file, not the unlinked one.
  PointStore journal = store_at(dir("cp"));
  journal.publish({});
  journal.append(record_for(2));
  journal.publish({{0, record_for(0)}});
  journal.append(record_for(1));
  const StoreLoad loaded = store_at(dir("cp")).load("test");
  EXPECT_TRUE(loaded.damage.empty());
  ASSERT_EQ(loaded.completed.size(), 2u);
  EXPECT_TRUE(loaded.hit(0));
  EXPECT_TRUE(loaded.hit(1));
  EXPECT_EQ(journal.records().size(), 2u);
  PointStore unpublished = store_at(dir("other"));
  EXPECT_THROW(unpublished.append(record_for(0)), util::TgiError);
}

TEST_F(CheckpointTest, StoreRefusesARecordItsLoadWouldQuarantine) {
  // The write side runs the read side's rule: a record a load would
  // quarantine is refused by append and publish alike, before a byte is
  // written.
  const auto robust_for = [](std::size_t index) {
    PointRecord record = robust_sample();
    record.index = index;
    record.value = kSweep[index];
    return record;
  };
  PointRecord inf_hpl = record_for(1);
  inf_hpl.point.measurements[0].performance = HUGE_VAL;
  PointRecord wrong_value = record_for(1);
  wrong_value.value = 81;
  PointRecord plain_trace = record_for(1);
  plain_trace.trace_now = util::Seconds(1.0);
  PointRecord negative_clock = robust_for(1);
  negative_clock.trace_now = util::Seconds(-1.0);
  PointRecord nan_metric = robust_for(1);
  nan_metric.trace_metrics[0].value = std::nan("");
  struct Bad {
    const char* what;
    const char* mode;
    PointRecord record;
  };
  const Bad bad[] = {{"HPL performance inf", "plain", inf_hpl},
                     {"sweep value mismatch", "plain", wrong_value},
                     {"plain record with a trace", "plain", plain_trace},
                     {"negative trace_now", "robust", negative_clock},
                     {"NaN metric", "robust", nan_metric}};
  for (const Bad& b : bad) {
    const bool robust = std::string(b.mode) == "robust";
    const auto good = [&](std::size_t index) {
      return robust ? robust_for(index) : record_for(index);
    };
    const std::string cp = dir(b.what);
    PointStore journal = store_at(cp, b.mode);
    journal.publish({{0, good(0)}});
    const std::string banked = slurp(shard(cp));
    EXPECT_THROW(journal.append(b.record), util::TgiError) << b.what;
    EXPECT_EQ(slurp(shard(cp)), banked) << b.what;
    EXPECT_THROW(journal.publish({{0, good(0)}, {1, b.record}}),
                 util::TgiError)
        << b.what;
    EXPECT_EQ(slurp(shard(cp)), banked) << b.what;
    EXPECT_EQ(journal.records().size(), 1u) << b.what;
    // The good record still goes through both paths.
    journal.append(good(1));
    journal.publish(journal.records());
    EXPECT_EQ(store_at(cp, b.mode).load("test").completed.size(), 2u)
        << b.what;
  }
}

TEST_F(CheckpointTest, ADirectoryAtTheStorePathIsDamageNotAThrow) {
  // Something other than a regular file where the journal belongs: the
  // load serves nothing and reports damage, as for an empty journal.
  fs::create_directories(shard(dir("cp")));
  StoreLoad loaded;
  ASSERT_NO_THROW(loaded = store_at(dir("cp")).load("test"));
  EXPECT_TRUE(loaded.completed.empty());
  EXPECT_FALSE(loaded.damage.empty());
}

}  // namespace
}  // namespace tgi::harness
