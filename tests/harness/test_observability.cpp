// Observability plane wired through the sweep engine (DESIGN.md §10):
// trace/metrics output must be byte-identical for every thread count,
// tracing must never perturb results, a plain point's derived trace must
// equal what a live recorder records, and the wall-clock profile channel
// must stay quarantined from the deterministic record.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "generated_cluster.h"
#include "harness/checkpoint.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "journal_records.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "util/format.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

const std::vector<std::size_t> kSweep = {16, 48, 80, 128};

ParallelSweep make_engine(std::size_t threads,
                          std::size_t measurements_per_point) {
  power::WattsUpConfig base;
  base.seed = 0x0b5e7fULL;
  ParallelSweepConfig cfg;
  cfg.threads = threads;
  return {sim::fire_cluster(),
          wattsup_meter_factory(base, measurements_per_point), cfg};
}

std::size_t plain_stride() { return suite_benchmarks({}).size(); }

/// The two byte streams --trace writes, serialized in memory.
std::pair<std::string, std::string> serialize(const obs::SweepTrace& trace) {
  std::ostringstream json;
  trace.write_chrome_trace(json);
  std::ostringstream csv;
  trace.write_metrics_csv(csv);
  return {json.str(), csv.str()};
}

FaultSpec hot_spec() {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.3;
  spec.failure_rate = 0.15;
  spec.timeout_rate = 0.08;
  spec.truncation_rate = 0.07;
  return spec;
}

/// The sweep's records computed point by point on `threads`, as
/// serve::compute_points runs them (robust under `plan` when non-null),
/// bracketed by `profiler` when non-null.
std::map<std::size_t, PointRecord> sweep_records(
    std::size_t threads, const FaultPlan* plan = nullptr,
    obs::WallProfiler* profiler = nullptr) {
  const RobustConfig robust;
  const ParallelSweep engine = make_engine(
      threads, plan != nullptr ? robust_measurements_per_point({}, robust)
                               : plain_stride());
  std::map<std::size_t, PointRecord> records;
  std::mutex mu;
  execute_points(kSweep.size(), threads, profiler,
                 [&engine, &records, &mu, plan, &robust](std::size_t k) {
                   PointRecord record =
                       engine.record_point(kSweep, k, plan, robust);
                   const std::lock_guard<std::mutex> lock(mu);
                   records.emplace(k, std::move(record));
                 });
  return records;
}

TEST(SweepTraceDeterminism, PlainSweepTraceIsThreadCountInvariant) {
  const obs::SweepTrace serial_trace = replay_trace(sweep_records(1));
  const auto serial = serialize(serial_trace);
  EXPECT_GT(serial_trace.event_count(), 0u);
  for (const std::size_t threads : {2u, 8u}) {
    const auto got = serialize(replay_trace(sweep_records(threads)));
    EXPECT_EQ(got.first, serial.first) << "trace.json, threads=" << threads;
    EXPECT_EQ(got.second, serial.second)
        << "metrics.csv, threads=" << threads;
  }
}

TEST(SweepTraceDeterminism, FaultedSweepTraceIsThreadCountInvariant) {
  const FaultPlan plan(hot_spec());
  const obs::SweepTrace serial_trace = replay_trace(sweep_records(1, &plan));
  const auto serial = serialize(serial_trace);
  // The spec is hot enough that fault/recovery events are actually in the
  // record, so the byte comparison below exercises them.
  EXPECT_GT(serial_trace.totals().value("run_faults"), 0.0);
  for (const std::size_t threads : {2u, 8u}) {
    const auto got = serialize(replay_trace(sweep_records(threads, &plan)));
    EXPECT_EQ(got.first, serial.first) << "trace.json, threads=" << threads;
    EXPECT_EQ(got.second, serial.second)
        << "metrics.csv, threads=" << threads;
  }
}

TEST(SweepTraceDeterminism, ExtendedSweepTraceIsThreadCountInvariant) {
  // The extended roster's trace, derived from its points as
  // report_extended_suite emits it (benchmark b at context (b, 0)), must
  // be thread-count invariant.
  const auto run = [](std::size_t threads) {
    power::WattsUpConfig base;
    base.seed = 0x0b5e7fULL;
    const std::size_t stride = extended_suite_benchmarks().size();
    ParallelSweepConfig cfg;
    cfg.threads = threads;
    ParallelSweep engine(sim::fire_cluster(),
                         wattsup_meter_factory(base, stride), cfg);
    const std::vector<SuitePoint> points = engine.run_extended(kSweep);
    std::map<std::size_t, PointRecord> records;
    for (std::size_t k = 0; k < points.size(); ++k) {
      records.emplace(k, make_point_record(k, kSweep[k], points[k], nullptr));
    }
    const obs::SweepTrace trace = replay_trace(records);
    EXPECT_EQ(trace.points().front().events().back().benchmark,
              extended_suite_benchmarks().size() - 1);
    return serialize(trace);
  };
  const auto expected = run(1);
  EXPECT_EQ(run(2), expected);
  EXPECT_EQ(run(8), expected);
}

void expect_same_points(const std::vector<SuitePoint>& a,
                        const std::vector<SuitePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].measurements.size(), b[k].measurements.size());
    for (std::size_t i = 0; i < a[k].measurements.size(); ++i) {
      const auto& x = a[k].measurements[i];
      const auto& y = b[k].measurements[i];
      EXPECT_EQ(x.benchmark, y.benchmark);
      // Bitwise: tracing is observational by contract.
      EXPECT_EQ(x.performance, y.performance);
      EXPECT_EQ(x.average_power.value(), y.average_power.value());
      EXPECT_EQ(x.energy.value(), y.energy.value());
    }
  }
}

TEST(SweepTraceDeterminism, TracingDoesNotPerturbResults) {
  // A robust point records its trace live into its record; the same sweep
  // run with no recorder attached must give the same points bit for bit.
  const RobustConfig robust;
  const FaultPlan plan(hot_spec());
  std::vector<SuitePoint> untraced;
  for (const RobustSuitePoint& p :
       make_engine(2, robust_measurements_per_point({}, robust))
           .run_robust(kSweep, plan, robust)) {
    untraced.push_back(p.point);
  }
  std::vector<SuitePoint> traced;
  for (const auto& [k, record] : sweep_records(2, &plan)) {
    EXPECT_FALSE(record.events.empty()) << "point " << k;
    traced.push_back(record.point);
  }
  expect_same_points(traced, untraced);
  // A plain record (its trace derived) holds what a plain sweep returns.
  std::vector<SuitePoint> plain;
  for (const auto& [k, record] : sweep_records(2)) {
    plain.push_back(record.point);
  }
  expect_same_points(plain, make_engine(2, plain_stride()).run(kSweep));
}

TEST(SweepTrace, RecordsTheSuiteTimelinePerPoint) {
  const obs::SweepTrace trace = replay_trace(sweep_records(2));
  ASSERT_EQ(trace.points().size(), kSweep.size());
  const std::vector<std::string> roster = suite_benchmarks({});
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    const obs::PointRecorder& rec = trace.points()[k];
    EXPECT_EQ(rec.point_index(), k);
    EXPECT_EQ(rec.label(), std::to_string(kSweep[k]));
    ASSERT_EQ(rec.events().size(), roster.size());
    util::Seconds cursor{0.0};
    for (std::size_t b = 0; b < roster.size(); ++b) {
      const obs::TraceEvent& e = rec.events()[b];
      EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kSpan);
      EXPECT_EQ(e.name, roster[b]);
      EXPECT_EQ(e.category, "benchmark");
      EXPECT_EQ(e.benchmark, b);
      // Spans tile the point's simulated timeline back to back.
      EXPECT_EQ(e.start.value(), cursor.value());
      EXPECT_GT(e.duration.value(), 0.0);
      cursor += e.duration;
    }
    EXPECT_EQ(rec.metrics().value("runs"),
              static_cast<double>(roster.size()));
  }
  EXPECT_EQ(trace.totals().value("runs"),
            static_cast<double>(kSweep.size() * plain_stride()));
}

TEST(WallProfilerIntegration, BracketsEverySweepPoint) {
  for (const std::size_t threads : {1u, 2u}) {
    obs::WallProfiler profiler;
    (void)sweep_records(threads, nullptr, &profiler);
    EXPECT_EQ(profiler.span_count(), kSweep.size()) << "threads=" << threads;
  }
}

TEST(WallProfilerIntegration, ProfilingLeavesTheDeterministicTraceAlone) {
  const obs::SweepTrace bare_trace = replay_trace(sweep_records(2));
  obs::WallProfiler profiler;
  EXPECT_EQ(serialize(replay_trace(sweep_records(2, nullptr, &profiler))),
            serialize(bare_trace));
}

// ------------------------------------------------- derived plain traces

/// The observability record restore_recorder derives for `record`.
obs::PointRecorder derived(const PointRecord& record) {
  obs::PointRecorder recorder(record.index, std::to_string(record.value));
  restore_recorder(record, recorder);
  return recorder;
}

/// The derivation rule, spelled out apart from the code under test:
/// benchmark b is a `benchmark` span at the running sum of the earlier
/// seconds, over its own seconds, at context (b, 0), with its performance
/// to 3 decimals and its unit; the clock ends at the sum; `runs` counts the
/// benchmarks and `measured_seconds` sums their seconds in order.
void expect_derivation_rule(const PointRecord& record,
                            const obs::PointRecorder& got) {
  const auto& ms = record.point.measurements;
  ASSERT_EQ(got.events().size(), ms.size());
  double clock = 0.0;
  for (std::size_t b = 0; b < ms.size(); ++b) {
    const obs::TraceEvent& e = got.events()[b];
    EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kSpan);
    EXPECT_EQ(e.name, ms[b].benchmark);
    EXPECT_EQ(e.category, "benchmark");
    EXPECT_EQ(e.benchmark, b);
    EXPECT_EQ(e.attempt, 0u);
    EXPECT_EQ(bits(e.start.value()), bits(clock));
    EXPECT_EQ(bits(e.duration.value()), bits(ms[b].execution_time.value()));
    const obs::ArgList args = {
        {"performance", util::fixed(ms[b].performance, 3)},
        {"unit", ms[b].metric_unit}};
    EXPECT_EQ(e.args, args);
    clock += ms[b].execution_time.value();
  }
  EXPECT_EQ(bits(got.now().value()), bits(clock));
  if (ms.empty()) {
    EXPECT_TRUE(got.metrics().sorted().empty());
    return;
  }
  const std::vector<obs::Metric> metrics = got.metrics().sorted();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "measured_seconds");
  EXPECT_EQ(metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(bits(metrics[0].value), bits(clock));
  EXPECT_EQ(metrics[1].name, "runs");
  EXPECT_EQ(metrics[1].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(metrics[1].value, static_cast<double>(ms.size()));
}

/// Bit-for-bit equality of two recorders' events, metrics and clock.
void expect_same_recorder(const obs::PointRecorder& a,
                          const obs::PointRecorder& b) {
  EXPECT_EQ(bits(a.now().value()), bits(b.now().value()));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const obs::TraceEvent& x = a.events()[i];
    const obs::TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.category, y.category);
    EXPECT_EQ(x.benchmark, y.benchmark);
    EXPECT_EQ(x.attempt, y.attempt);
    EXPECT_EQ(bits(x.start.value()), bits(y.start.value()));
    EXPECT_EQ(bits(x.duration.value()), bits(y.duration.value()));
    EXPECT_EQ(x.args, y.args);
  }
  const std::vector<obs::Metric> ma = a.metrics().sorted();
  const std::vector<obs::Metric> mb = b.metrics().sorted();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].name, mb[i].name);
    EXPECT_EQ(ma[i].kind, mb[i].kind);
    EXPECT_EQ(bits(ma[i].value), bits(mb[i].value));
  }
}

/// Runs the standard suite at `value` as sweep point `k` behind `meter`
/// with a live recorder attached, and checks that the trace derived from
/// the point's record — as computed, and as a journal line decodes it —
/// is the live one bit for bit.
void expect_derived_equals_live(const sim::ClusterSpec& cluster,
                                power::PowerMeter& meter, std::size_t k,
                                std::size_t value) {
  obs::PointRecorder live(k, std::to_string(value));
  SuiteRunner runner(cluster, meter);
  runner.attach_recorder(&live);
  const PointRecord record =
      make_point_record(k, value, runner.run_suite(value), nullptr);
  expect_same_recorder(derived(record), live);
  expect_derivation_rule(record, live);
  const JournalContents decoded = read_journal(encode_point_record(record));
  ASSERT_EQ(decoded.points.size(), 1u);
  expect_same_recorder(derived(decoded.points[0]), live);
}

TEST(DerivedTrace, PlainSweepRecordsDeriveTheLiveTrace) {
  // The corpus the checkpoint and observability tests sweep: Fire behind
  // per-point Watts Up meters.
  const MeterFactory meters = wattsup_meter_factory(
      [] {
        power::WattsUpConfig base;
        base.seed = 0x0b5e7fULL;
        return base;
      }(),
      plain_stride());
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    const std::unique_ptr<power::PowerMeter> meter = meters(k);
    expect_derived_equals_live(sim::fire_cluster(), *meter, k, kSweep[k]);
  }
}

TEST(DerivedTrace, GeneratedClustersUnderEveryMeterDeriveTheLiveTrace) {
  // Generated clusters at a random scale, metered by both instruments:
  // dyadic and non-dyadic sample intervals, and a Watts Up with dropout,
  // heavy noise and a coarse resolution.
  util::Xoshiro256 rng(0xde51ed);
  for (int trial = 0; trial < 8; ++trial) {
    const sim::ClusterSpec cluster = sim::generated::generated_cluster(rng);
    SCOPED_TRACE(sim::cluster_to_config(cluster));
    const std::size_t processes = 1 + rng.uniform_index(cluster.total_cores());
    power::WattsUpConfig noisy;
    noisy.seed = rng.next();
    noisy.sample_interval = util::seconds(0.3);
    noisy.dropout_rate = 0.2;
    noisy.noise_pct = 1.0;
    noisy.resolution = util::watts(0.5);
    power::WattsUpConfig plug;
    plug.seed = rng.next();
    power::WattsUpMeter noisy_meter(noisy);
    power::WattsUpMeter plug_meter(plug);
    power::ModelMeter fine(util::seconds(0.05));
    power::ModelMeter coarse(util::seconds(0.5));
    for (power::PowerMeter* meter :
         {static_cast<power::PowerMeter*>(&noisy_meter),
          static_cast<power::PowerMeter*>(&plug_meter),
          static_cast<power::PowerMeter*>(&fine),
          static_cast<power::PowerMeter*>(&coarse)}) {
      SCOPED_TRACE(meter->name());
      expect_derived_equals_live(cluster, *meter,
                                 static_cast<std::size_t>(trial), processes);
    }
  }
}

TEST(DerivedTrace, GeneratedPlainRecordsFollowTheRule) {
  // The codec tests' seeded plain records (journal_records.h): 0 to 3
  // measurements of arbitrary size, derived as journaled and as decoded.
  util::Xoshiro256 rng(0x0de21fedULL);
  const std::vector<std::size_t> values = {1, 16, 48, 80, 128, 4096};
  for (int trial = 0; trial < 100; ++trial) {
    const PointRecord record = generated_record(
        rng, values, rng.next() % values.size(), false);
    const obs::PointRecorder got = derived(record);
    expect_derivation_rule(record, got);
    const JournalContents decoded = read_journal(encode_point_record(record));
    ASSERT_EQ(decoded.points.size(), 1u) << "trial " << trial;
    expect_same_recorder(derived(decoded.points[0]), got);
  }
}

}  // namespace
}  // namespace tgi::harness
