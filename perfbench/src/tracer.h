// Benchmark-owned spans and counters for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions — never inside the program. They live in memory and are
// written once, when the run ends. Each span has a name, a start, an end
// and the span that caused it; the spans of one operation share its id. A
// layer's self time is its span's duration minus the part its child spans
// cover. Single-threaded by design: every workload drives the layers from
// the benchmark's own thread (sweeps run at threads=1).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::string name;
  std::string tag;  ///< optional detail, e.g. "HPL@128"
  std::uint64_t op = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children
  [[nodiscard]] double self_us() const {
    return static_cast<double>(end_ns - start_ns - child_ns) / 1e3;
  }
  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class Tracer {
 public:
  /// Spans opened from now on belong to operation `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens a span as a child of the innermost open span.
  std::size_t open(const std::string& name, const std::string& tag = "");
  /// Closes span `index`, which must be the innermost open span.
  void close(std::size_t index);

  /// Adds `value` to counter `name` of the current operation.
  void count(const std::string& name, double value = 1.0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Counter totals over the whole run.
  [[nodiscard]] const std::map<std::string, double>& counters() const {
    return counters_;
  }

  /// Writes the spans of operations below `max_ops` (all ops feed the
  /// metrics; the file keeps a readable sample) and every counter total as
  /// Chrome trace-event JSON.
  void write_json(const std::string& path, std::uint64_t max_ops) const;

 private:
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it a no-op, so untraced and traced runs
/// share one code path.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& tag = "")
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, tag) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

inline void count(Tracer* tracer, const std::string& name, double value = 1.0) {
  if (tracer != nullptr) tracer->count(name, value);
}

}  // namespace perfbench
