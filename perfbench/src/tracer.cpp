#include "tracer.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Tracer::open(const std::string& name, const std::string& tag) {
  Span span;
  span.name = name;
  span.tag = tag;
  span.op = op_;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = now_ns();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

void Tracer::count(const std::string& name, double value) {
  counters_[name] += value;
}

void Tracer::write_json(const std::string& path,
                        std::uint64_t max_ops) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op >= max_ops) continue;
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << s.duration_us() << ", \"args\": {\"id\": " << i
        << ", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"tag\": \"" << s.tag << "\", \"self_us\": " << s.self_us()
        << "}}";
    first = false;
  }
  out << "\n], \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}}\n";
}

}  // namespace perfbench
