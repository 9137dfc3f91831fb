// Seeded journal records for the codec tests (test_checkpoint.cpp,
// test_journal_decoder.cpp): plain, robust and traced records whose names
// need escaping and whose times sit at the edges of the double range, and a
// field-by-field, bit-exact record comparison.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness/checkpoint.h"
#include "util/rng.h"

namespace tgi::harness {

/// A double's bit pattern: -0.0 and 0.0 differ, as decoded records may.
inline std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// A name built from pieces that need escaping (%, LF, CR, US, RS) mixed
/// with ordinary text. Never empty: an empty list element and an empty
/// list encode alike.
inline std::string awkward_name(util::Xoshiro256& rng) {
  static const char* const kPieces[] = {"HPL", "%",  "%25", "\x1f", "\x1e",
                                        "\n",  "\r", "a=b", " ",    "x,y"};
  std::string name;
  const std::uint64_t pieces = 1 + rng.next() % 4;
  for (std::uint64_t i = 0; i < pieces; ++i) {
    name += kPieces[rng.next() % std::size(kPieces)];
  }
  return name;
}

/// A finite double >= 0, sometimes at the edges of the representable range.
inline double awkward_seconds(util::Xoshiro256& rng) {
  switch (rng.next() % 5) {
    case 0:
      return 0.0;
    case 1:
      return 5e-324;  // smallest subnormal
    case 2:
      return 1e300;
    default:
      return rng.uniform() * 1e4;
  }
}

/// A seeded record for point `index` of `values`: plain or robust, with
/// or without an observability section.
inline PointRecord generated_record(util::Xoshiro256& rng,
                             const std::vector<std::size_t>& values,
                             std::size_t index, bool robust, bool traced) {
  static const char* const kBenchmarks[] = {"HPL", "STREAM", "IOzone", "GUPS"};
  PointRecord record;
  record.index = index;
  record.value = values[index];
  record.point.processes = values[index];
  record.point.nodes = 1 + rng.next() % 64;
  const std::uint64_t measured = rng.next() % 4;
  for (std::uint64_t i = 0; i < measured; ++i) {
    core::BenchmarkMeasurement m;
    m.benchmark = kBenchmarks[i];
    m.performance = 1e-3 + rng.uniform() * 1e6;
    m.metric_unit = "MFLOPS";
    m.average_power = util::watts(1.0 + rng.uniform() * 1e4);
    m.execution_time = util::seconds(1e-3 + rng.uniform() * 1e3);
    m.energy = util::joules(m.average_power.value() *
                            m.execution_time.value());
    record.point.measurements.push_back(m);
  }
  record.robust = robust;
  if (robust) {
    const std::uint64_t missing = rng.next() % 3;
    for (std::uint64_t i = 0; i < missing; ++i) {
      record.missing.push_back(awkward_name(rng));
    }
    record.counters.attempts = rng.next();  // any 64-bit count
    record.counters.retries = rng.next() % 100;
    record.counters.run_faults = rng.next() % 10;
    record.counters.meter_faults = rng.next() % 10;
    record.counters.rejected_readings = rng.next() % 10;
    record.counters.dropped_benchmarks = rng.next() % 4;
    record.counters.backoff = util::Seconds(awkward_seconds(rng));
    record.counters.stalled = util::Seconds(awkward_seconds(rng));
  }
  record.traced = traced;
  if (traced) {
    record.trace_now = util::Seconds(awkward_seconds(rng));
    const std::uint64_t events = rng.next() % 4;
    for (std::uint64_t i = 0; i < events; ++i) {
      obs::TraceEvent e;
      e.kind = rng.next() % 2 == 0 ? obs::TraceEvent::Kind::kSpan
                                   : obs::TraceEvent::Kind::kInstant;
      e.name = awkward_name(rng);
      e.category = awkward_name(rng);
      e.benchmark = rng.next() % 6;
      e.attempt = rng.next() % 3;
      e.start = util::Seconds(awkward_seconds(rng));
      e.duration = util::Seconds(awkward_seconds(rng));
      const std::uint64_t args = rng.next() % 3;
      for (std::uint64_t a = 0; a < args; ++a) {
        e.args.emplace_back(awkward_name(rng), awkward_name(rng));
      }
      record.events.push_back(std::move(e));
    }
    const std::uint64_t metrics = rng.next() % 4;
    for (std::uint64_t i = 0; i < metrics; ++i) {
      record.trace_metrics.push_back(obs::Metric{
          awkward_name(rng),
          rng.next() % 2 == 0 ? obs::MetricKind::kCounter
                              : obs::MetricKind::kGauge,
          (rng.uniform() - 0.5) * 1e9});
    }
  }
  return record;
}

inline void expect_equal_records(const PointRecord& a, const PointRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.point.processes, b.point.processes);
  EXPECT_EQ(a.point.nodes, b.point.nodes);
  ASSERT_EQ(a.point.measurements.size(), b.point.measurements.size());
  for (std::size_t i = 0; i < a.point.measurements.size(); ++i) {
    const auto& x = a.point.measurements[i];
    const auto& y = b.point.measurements[i];
    EXPECT_EQ(x.benchmark, y.benchmark);
    EXPECT_EQ(bits(x.performance), bits(y.performance));
    EXPECT_EQ(x.metric_unit, y.metric_unit);
    EXPECT_EQ(bits(x.average_power.value()), bits(y.average_power.value()));
    EXPECT_EQ(bits(x.execution_time.value()), bits(y.execution_time.value()));
    EXPECT_EQ(bits(x.energy.value()), bits(y.energy.value()));
  }
  EXPECT_EQ(a.robust, b.robust);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_EQ(a.counters.attempts, b.counters.attempts);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.run_faults, b.counters.run_faults);
  EXPECT_EQ(a.counters.meter_faults, b.counters.meter_faults);
  EXPECT_EQ(a.counters.rejected_readings, b.counters.rejected_readings);
  EXPECT_EQ(a.counters.dropped_benchmarks, b.counters.dropped_benchmarks);
  EXPECT_EQ(bits(a.counters.backoff.value()), bits(b.counters.backoff.value()));
  EXPECT_EQ(bits(a.counters.stalled.value()), bits(b.counters.stalled.value()));
  EXPECT_EQ(a.traced, b.traced);
  EXPECT_EQ(bits(a.trace_now.value()), bits(b.trace_now.value()));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].name, b.events[i].name);
    EXPECT_EQ(a.events[i].category, b.events[i].category);
    EXPECT_EQ(a.events[i].benchmark, b.events[i].benchmark);
    EXPECT_EQ(a.events[i].attempt, b.events[i].attempt);
    EXPECT_EQ(bits(a.events[i].start.value()), bits(b.events[i].start.value()));
    EXPECT_EQ(bits(a.events[i].duration.value()),
              bits(b.events[i].duration.value()));
    EXPECT_EQ(a.events[i].args, b.events[i].args);
  }
  ASSERT_EQ(a.trace_metrics.size(), b.trace_metrics.size());
  for (std::size_t i = 0; i < a.trace_metrics.size(); ++i) {
    EXPECT_EQ(a.trace_metrics[i].name, b.trace_metrics[i].name);
    EXPECT_EQ(a.trace_metrics[i].kind, b.trace_metrics[i].kind);
    EXPECT_EQ(bits(a.trace_metrics[i].value), bits(b.trace_metrics[i].value));
  }
}

}  // namespace tgi::harness
