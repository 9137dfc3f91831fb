// Observability plane wired through the sweep engine (DESIGN.md §10):
// trace/metrics output must be byte-identical for every thread count,
// tracing must never perturb results, and the wall-clock profile channel
// must stay quarantined from the deterministic record.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "sim/catalog.h"

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

TEST(SweepTraceDeterminism, PlainSweepTraceIsThreadCountInvariant) {
  obs::SweepTrace serial_trace;
  (void)make_engine(1, plain_stride()).run(kSweep, &serial_trace);
  const auto serial = serialize(serial_trace);
  EXPECT_GT(serial_trace.event_count(), 0u);
  for (const std::size_t threads : {2u, 8u}) {
    obs::SweepTrace trace;
    (void)make_engine(threads, plain_stride()).run(kSweep, &trace);
    const auto got = serialize(trace);
    EXPECT_EQ(got.first, serial.first) << "trace.json, threads=" << threads;
    EXPECT_EQ(got.second, serial.second)
        << "metrics.csv, threads=" << threads;
  }
}

TEST(SweepTraceDeterminism, FaultedSweepTraceIsThreadCountInvariant) {
  const RobustConfig robust;
  const std::size_t stride = robust_measurements_per_point({}, robust);
  obs::SweepTrace serial_trace;
  (void)make_engine(1, stride).run_robust(kSweep, FaultPlan(hot_spec()),
                                          robust, &serial_trace);
  const auto serial = serialize(serial_trace);
  // The spec is hot enough that fault/recovery events are actually in the
  // record, so the byte comparison below exercises them.
  EXPECT_GT(serial_trace.totals().value("run_faults"), 0.0);
  for (const std::size_t threads : {2u, 8u}) {
    obs::SweepTrace trace;
    (void)make_engine(threads, stride)
        .run_robust(kSweep, FaultPlan(hot_spec()), robust, &trace);
    const auto got = serialize(trace);
    EXPECT_EQ(got.first, serial.first) << "trace.json, threads=" << threads;
    EXPECT_EQ(got.second, serial.second)
        << "metrics.csv, threads=" << threads;
  }
}

TEST(SweepTraceDeterminism, ExtendedSweepTraceIsThreadCountInvariant) {
  // The extended roster never stamps a per-benchmark context (spans carry
  // benchmark=0, attempt=0); its trace must still be thread-count
  // invariant.
  const auto run = [](std::size_t threads) {
    power::WattsUpConfig base;
    base.seed = 0x0b5e7fULL;
    const std::size_t stride = extended_suite_benchmarks().size();
    ParallelSweepConfig cfg;
    cfg.threads = threads;
    ParallelSweep engine(sim::fire_cluster(),
                         wattsup_meter_factory(base, stride), cfg);
    obs::SweepTrace trace;
    (void)engine.run_extended(kSweep, &trace);
    return serialize(trace);
  };
  const auto expected = run(1);
  EXPECT_EQ(run(2), expected);
  EXPECT_EQ(run(8), expected);
}

TEST(SweepTraceDeterminism, TracingDoesNotPerturbResults) {
  const auto plain = make_engine(2, plain_stride()).run(kSweep);
  obs::SweepTrace trace;
  const auto traced = make_engine(2, plain_stride()).run(kSweep, &trace);
  ASSERT_EQ(traced.size(), plain.size());
  for (std::size_t k = 0; k < plain.size(); ++k) {
    ASSERT_EQ(traced[k].measurements.size(), plain[k].measurements.size());
    for (std::size_t i = 0; i < plain[k].measurements.size(); ++i) {
      const auto& a = plain[k].measurements[i];
      const auto& b = traced[k].measurements[i];
      EXPECT_EQ(a.benchmark, b.benchmark);
      // Bitwise: tracing is observational by contract.
      EXPECT_EQ(a.performance, b.performance);
      EXPECT_EQ(a.average_power.value(), b.average_power.value());
      EXPECT_EQ(a.energy.value(), b.energy.value());
    }
  }
}

TEST(SweepTrace, RecordsTheSuiteTimelinePerPoint) {
  obs::SweepTrace trace;
  (void)make_engine(2, plain_stride()).run(kSweep, &trace);
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

/// The sweep's records computed point by point on `threads`, as
/// serve::compute_points runs them, bracketed by `profiler` when non-null.
std::map<std::size_t, PointRecord> profiled_records(
    std::size_t threads, obs::WallProfiler* profiler) {
  const ParallelSweep engine = make_engine(threads, plain_stride());
  std::map<std::size_t, PointRecord> records;
  std::mutex mu;
  execute_points(kSweep.size(), threads, profiler,
                 [&engine, &records, &mu](std::size_t k) {
                   PointRecord record = engine.record_point(kSweep, k, nullptr);
                   const std::lock_guard<std::mutex> lock(mu);
                   records.emplace(k, std::move(record));
                 });
  return records;
}

TEST(WallProfilerIntegration, BracketsEverySweepPoint) {
  for (const std::size_t threads : {1u, 2u}) {
    obs::WallProfiler profiler;
    (void)profiled_records(threads, &profiler);
    EXPECT_EQ(profiler.span_count(), kSweep.size()) << "threads=" << threads;
  }
}

TEST(WallProfilerIntegration, ProfilingLeavesTheDeterministicTraceAlone) {
  obs::SweepTrace bare_trace;
  (void)make_engine(2, plain_stride()).run(kSweep, &bare_trace);
  obs::WallProfiler profiler;
  EXPECT_EQ(serialize(replay_trace(profiled_records(2, &profiler))),
            serialize(bare_trace));
}

}  // namespace
}  // namespace tgi::harness
