#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/error.h"
#include "util/format.h"

namespace tgi::obs {
namespace {

using util::json_escape;
using util::Seconds;

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonMicroseconds, FixedThreeDigitMicroseconds) {
  EXPECT_EQ(json_microseconds(Seconds{0.0}), "0.000");
  EXPECT_EQ(json_microseconds(Seconds{1.5}), "1500000.000");
  EXPECT_EQ(json_microseconds(Seconds{0.0000005}), "0.500");
}

TEST(PointRecorder, ClockAdvancesAndRefusesToRunBackwards) {
  PointRecorder rec(3, "64");
  EXPECT_EQ(rec.now().value(), 0.0);
  rec.advance(Seconds{2.5});
  rec.advance(Seconds{1.5});
  EXPECT_EQ(rec.now().value(), 4.0);
  EXPECT_THROW(rec.advance(Seconds{-0.1}), util::PreconditionError);
}

TEST(PointRecorder, SpansCarryTheCurrentContext) {
  PointRecorder rec(0);
  rec.set_context(2, 1);
  rec.span("HPL", "benchmark", Seconds{1.0}, Seconds{3.0},
           {{"workload", "hpl"}});
  rec.advance(Seconds{4.0});
  rec.instant("meter-fault", "fault");

  ASSERT_EQ(rec.events().size(), 2u);
  const TraceEvent& span = rec.events()[0];
  EXPECT_EQ(span.kind, TraceEvent::Kind::kSpan);
  EXPECT_EQ(span.benchmark, 2u);
  EXPECT_EQ(span.attempt, 1u);
  EXPECT_EQ(span.start.value(), 1.0);
  EXPECT_EQ(span.duration.value(), 3.0);
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_EQ(span.args[0].first, "workload");

  const TraceEvent& instant = rec.events()[1];
  EXPECT_EQ(instant.kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(instant.start.value(), 4.0);
  EXPECT_EQ(instant.duration.value(), 0.0);
}

TEST(PointRecorder, NegativeDurationSpanThrows) {
  PointRecorder rec(0);
  EXPECT_THROW(rec.span("x", "y", Seconds{0.0}, Seconds{-1.0}),
               util::PreconditionError);
}

std::vector<PointRecorder> sample_points() {
  std::vector<PointRecorder> points;
  points.emplace_back(0, "4");
  points.emplace_back(1, "8");

  points[0].set_context(0, 0);
  points[0].span("HPL", "benchmark", Seconds{0.0}, Seconds{2.0});
  points[0].metrics().add("runs");
  points[0].metrics().add("backoff_seconds", 5.0);
  points[0].metrics().set_max("attempt_max", 0.0);

  points[1].set_context(1, 2);
  points[1].advance(Seconds{3.0});
  points[1].instant("benchmark-failure", "fault");
  points[1].metrics().add("runs");
  points[1].metrics().add("retries", 2.0);
  points[1].metrics().set_max("attempt_max", 2.0);
  return points;
}

TEST(SweepTrace, MergeFoldsTotalsInPointOrder) {
  const SweepTrace trace = SweepTrace::merge(sample_points());
  EXPECT_EQ(trace.points().size(), 2u);
  EXPECT_EQ(trace.event_count(), 2u);
  EXPECT_EQ(trace.totals().value("runs"), 2.0);
  EXPECT_EQ(trace.totals().value("retries"), 2.0);
  EXPECT_EQ(trace.totals().value("backoff_seconds"), 5.0);
  EXPECT_EQ(trace.totals().value("attempt_max"), 2.0);
}

TEST(SweepTrace, ChromeTraceIsWellFormedAndDeterministic) {
  const SweepTrace trace = SweepTrace::merge(sample_points());
  std::ostringstream first;
  trace.write_chrome_trace(first);
  std::ostringstream second;
  trace.write_chrome_trace(second);
  EXPECT_EQ(first.str(), second.str());

  const std::string out = first.str();
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"point 0 (4)\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"point 1 (8)\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"HPL\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":2000000.000"), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\":3000000.000"), std::string::npos);
  EXPECT_NE(out.find("\"benchmark\":1,\"attempt\":2"), std::string::npos);
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(SweepTrace, MetricsCsvListsTotalsThenPoints) {
  const SweepTrace trace = SweepTrace::merge(sample_points());
  std::ostringstream out;
  trace.write_metrics_csv(out);
  const std::string csv = out.str();

  const auto total_pos = csv.find("total,runs,counter,2");
  const auto p0_pos = csv.find("point0,runs,counter,1");
  const auto p1_pos = csv.find("point1,retries,counter,2");
  EXPECT_EQ(csv.rfind("scope,metric,kind,value", 0), 0u);
  ASSERT_NE(total_pos, std::string::npos);
  ASSERT_NE(p0_pos, std::string::npos);
  ASSERT_NE(p1_pos, std::string::npos);
  EXPECT_LT(total_pos, p0_pos);
  EXPECT_LT(p0_pos, p1_pos);
  EXPECT_NE(csv.find("total,attempt_max,gauge,2"), std::string::npos);
}

TEST(SweepTrace, EmptyTraceStillWritesValidSkeletons) {
  const SweepTrace trace = SweepTrace::merge({});
  std::ostringstream json;
  trace.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"traceEvents\":["), std::string::npos);

  std::ostringstream csv;
  trace.write_metrics_csv(csv);
  EXPECT_EQ(csv.str(), "scope,metric,kind,value\n");
}

}  // namespace
}  // namespace tgi::obs
