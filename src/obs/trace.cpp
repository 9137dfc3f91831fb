#include "obs/trace.h"

#include <filesystem>
#include <ostream>

#include "obs/json.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace tgi::obs {

PointRecorder::PointRecorder(std::size_t point_index, std::string label)
    : point_index_(point_index), label_(std::move(label)) {}

void PointRecorder::advance(util::Seconds dt) {
  TGI_REQUIRE(dt.value() >= 0.0, "trace clock cannot run backwards");
  now_ += dt;
}

void PointRecorder::set_context(std::size_t benchmark, std::size_t attempt) {
  benchmark_ = benchmark;
  attempt_ = attempt;
}

void PointRecorder::span(std::string name, std::string category,
                         util::Seconds start, util::Seconds duration,
                         ArgList args) {
  TGI_REQUIRE(duration.value() >= 0.0, "span duration must be >= 0");
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.name = std::move(name);
  event.category = std::move(category);
  event.benchmark = benchmark_;
  event.attempt = attempt_;
  event.start = start;
  event.duration = duration;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void PointRecorder::instant(std::string name, std::string category,
                            ArgList args) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.name = std::move(name);
  event.category = std::move(category);
  event.benchmark = benchmark_;
  event.attempt = attempt_;
  event.start = now_;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

SweepTrace SweepTrace::merge(std::vector<PointRecorder> points) {
  SweepTrace trace;
  trace.points_ = std::move(points);
  // Fold totals in vector order — the engine preallocates this as point
  // order, so the floating-point sums are thread-count-invariant.
  for (const PointRecorder& point : trace.points_) {
    trace.totals_.merge(point.metrics());
  }
  return trace;
}

std::size_t SweepTrace::event_count() const {
  std::size_t n = 0;
  for (const PointRecorder& point : points_) n += point.events().size();
  return n;
}

namespace {

void write_args(std::ostream& out, std::size_t benchmark, std::size_t attempt,
                const ArgList& args) {
  out << "\"args\":{\"benchmark\":" << benchmark << ",\"attempt\":" << attempt;
  for (const auto& [key, value] : args) {
    out << ",\"" << util::json_escape(key) << "\":\""
        << util::json_escape(value) << "\"";
  }
  out << "}";
}

void write_event(std::ostream& out, std::size_t tid, const TraceEvent& e,
                 bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":\"" << util::json_escape(e.name) << "\",\"cat\":\""
      << util::json_escape(e.category) << "\",\"ph\":\""
      << (e.kind == TraceEvent::Kind::kSpan ? "X" : "i") << "\"";
  if (e.kind == TraceEvent::Kind::kInstant) out << ",\"s\":\"t\"";
  out << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
      << json_microseconds(e.start);
  if (e.kind == TraceEvent::Kind::kSpan) {
    out << ",\"dur\":" << json_microseconds(e.duration);
  }
  out << ",";
  write_args(out, e.benchmark, e.attempt, e.args);
  out << "}";
}

}  // namespace

void SweepTrace::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[\n";
  // Metadata: name each logical track after its sweep point so the viewer
  // shows "point 3 (64)" instead of a bare tid.
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"tgi sweep (simulated time)\"}}";
  bool first = false;
  for (const PointRecorder& point : points_) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << point.point_index() << ",\"args\":{\"name\":\"point "
        << point.point_index();
    if (!point.label().empty()) {
      out << " (" << util::json_escape(point.label()) << ")";
    }
    out << "\"}}";
  }
  for (const PointRecorder& point : points_) {
    for (const TraceEvent& event : point.events()) {
      write_event(out, point.point_index(), event, first);
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void SweepTrace::write_metrics_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"scope", "metric", "kind", "value"});
  const auto write_scope = [&](const std::string& scope,
                               const MetricRegistry& registry) {
    for (const Metric& metric : registry.sorted()) {
      csv.write_row({scope, metric.name, metric_kind_name(metric.kind),
                     format_metric_value(metric.value)});
    }
  };
  write_scope("total", totals_);
  for (const PointRecorder& point : points_) {
    write_scope("point" + std::to_string(point.point_index()),
                point.metrics());
  }
}

void SweepTrace::write_files(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  util::AtomicFile json(dir + "/trace.json");
  write_chrome_trace(json.stream());
  json.commit();
  util::AtomicFile metrics(dir + "/metrics.csv");
  write_metrics_csv(metrics.stream());
  metrics.commit();
}

}  // namespace tgi::obs
