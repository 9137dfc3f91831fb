// Deterministic structured tracing for the sweep engine.
//
// The paper's argument rests on trustworthy per-benchmark measurements;
// once the fault plane (harness/faults.h) and the recovery policy
// (harness/robust.h) started retrying, rejecting, and dropping work, the
// decisions behind each published number became invisible. This module
// records them as structured spans and events on a SIMULATED timeline —
// the same accounted seconds the robustness layer already charges — keyed
// by logical indices (point_index, benchmark, attempt), never by wall
// clock or completion order.
//
// Determinism contract (DESIGN.md §10): each sweep point records into its
// own PointRecorder on its worker thread; SweepTrace::merge concatenates
// recorders BY POINT INDEX. Because every recorded field derives from the
// deterministic simulation, trace output is bit-identical at threads=1/2/8.
// Wall-clock timing lives in the separate, explicitly non-deterministic
// profile channel (obs/profile.h) and never mixes into this one.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/units.h"

namespace tgi::obs {

/// Key-value annotations on a span/event, emitted in insertion order.
using ArgList = std::vector<std::pair<std::string, std::string>>;

/// One recorded trace entry on a point's simulated timeline.
struct TraceEvent {
  enum class Kind {
    kSpan,     ///< closed interval [start, start + duration]
    kInstant,  ///< zero-duration marker at `start`
  };
  Kind kind = Kind::kInstant;
  std::string name;      ///< e.g. "HPL", "backoff", "benchmark-failure"
  std::string category;  ///< e.g. "benchmark", "fault", "recovery", "point"
  std::size_t benchmark = 0;      ///< logical benchmark index in the suite
  std::size_t attempt = 0;        ///< retry ordinal (0 = first attempt)
  util::Seconds start{0.0};       ///< simulated-time begin
  util::Seconds duration{0.0};    ///< simulated-time extent (spans only)
  ArgList args;
};

/// Collects one sweep point's spans, events, and metrics. Owns the point's
/// simulated clock: runners advance it by the modeled cost of each attempt
/// (run elapsed time, accounted backoff, accounted stalls), so span
/// timestamps reproduce the timeline an operator would have lived through.
/// Not thread-safe — each point records from exactly one worker.
class PointRecorder {
 public:
  PointRecorder() = default;
  explicit PointRecorder(std::size_t point_index, std::string label = "");

  [[nodiscard]] std::size_t point_index() const { return point_index_; }
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Current simulated time on this point's timeline.
  [[nodiscard]] util::Seconds now() const { return now_; }

  /// Advances the simulated clock. Precondition: dt >= 0.
  void advance(util::Seconds dt);

  /// Sets the logical (benchmark, attempt) indices stamped onto every
  /// subsequently recorded span/event.
  void set_context(std::size_t benchmark, std::size_t attempt);
  [[nodiscard]] std::size_t benchmark() const { return benchmark_; }
  [[nodiscard]] std::size_t attempt() const { return attempt_; }

  /// Records a closed span on the simulated timeline.
  void span(std::string name, std::string category, util::Seconds start,
            util::Seconds duration, ArgList args = {});

  /// Records a zero-duration marker at the current simulated time.
  void instant(std::string name, std::string category, ArgList args = {});

  /// Replays a previously recorded event verbatim (checkpoint resume,
  /// DESIGN.md §11): no context stamping, no clock coupling — a restored
  /// recorder reproduces the journaling one byte-for-byte.
  void restore_event(TraceEvent event) { events_.push_back(std::move(event)); }

  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const { return metrics_; }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

 private:
  std::size_t point_index_ = 0;
  std::string label_;
  util::Seconds now_{0.0};
  std::size_t benchmark_ = 0;
  std::size_t attempt_ = 0;
  std::vector<TraceEvent> events_;
  MetricRegistry metrics_;
};

/// A whole sweep's merged observability record: per-point recorders in
/// point-index order plus the merged metric totals.
class SweepTrace {
 public:
  SweepTrace() = default;

  /// Merges per-point recorders BY INDEX (the vector's order, which the
  /// sweep engine preallocates as point order): totals are folded
  /// 0, 1, 2, ... so even floating-point counter sums are reproducible
  /// for every thread count.
  [[nodiscard]] static SweepTrace merge(std::vector<PointRecorder> points);

  [[nodiscard]] const std::vector<PointRecorder>& points() const {
    return points_;
  }
  [[nodiscard]] const MetricRegistry& totals() const { return totals_; }
  [[nodiscard]] std::size_t event_count() const;

  /// Chrome trace-event-format JSON (load in chrome://tracing or
  /// Perfetto): one "X"/"i" event per recorded entry, tid = point index,
  /// ts/dur = simulated microseconds. Byte-deterministic.
  void write_chrome_trace(std::ostream& out) const;

  /// metrics.csv: `scope,metric,kind,value` — merged totals first
  /// (scope "total"), then each point (scope "point<k>"), metrics sorted
  /// by name within each scope. Byte-deterministic.
  void write_metrics_csv(std::ostream& out) const;

  /// Publishes <dir>/trace.json and <dir>/metrics.csv (creating `dir`),
  /// each atomically through util::AtomicFile.
  void write_files(const std::string& dir) const;

 private:
  std::vector<PointRecorder> points_;
  MetricRegistry totals_;
};

}  // namespace tgi::obs
