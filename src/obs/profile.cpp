#include "obs/profile.h"

#include <algorithm>
#include <ostream>
#include <tuple>
#include <utility>

#include "obs/json.h"
#include "util/error.h"
#include "util/format.h"

namespace tgi::obs {

WallProfiler::WallProfiler() : epoch_(std::chrono::steady_clock::now()) {}

double WallProfiler::now_us() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

void WallProfiler::record(std::string name, std::size_t track,
                          double start_us, double end_us) {
  TGI_REQUIRE(end_us >= start_us, "wall span must not end before it starts");
  const std::scoped_lock lock(mutex_);
  spans_.push_back({std::move(name), track, start_us, end_us});
}

util::ThreadPool::TaskHook WallProfiler::task_hook(std::string name_prefix) {
  return [this, prefix = std::move(name_prefix)](
             std::size_t worker, std::size_t task, bool begin) {
    if (begin) {
      const double start = now_us();
      const std::scoped_lock lock(mutex_);
      if (worker >= open_.size()) open_.resize(worker + 1);
      open_[worker] = {task, start, true};
      return;
    }
    const double end = now_us();
    double start = end;
    {
      const std::scoped_lock lock(mutex_);
      if (worker < open_.size() && open_[worker].active &&
          open_[worker].task == task) {
        start = open_[worker].start_us;
        open_[worker].active = false;
      }
    }
    record(prefix + " " + std::to_string(task), worker, start, end);
  };
}

std::size_t WallProfiler::span_count() const {
  const std::scoped_lock lock(mutex_);
  return spans_.size();
}

void WallProfiler::write_chrome_trace(std::ostream& out) const {
  std::vector<WallSpan> spans;
  {
    const std::scoped_lock lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const WallSpan& a, const WallSpan& b) {
              return std::tie(a.start_us, a.track, a.name) <
                     std::tie(b.start_us, b.track, b.name);
            });
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"tgi sweep (wall clock, non-deterministic)\"}}";
  for (const WallSpan& span : spans) {
    out << ",\n{\"name\":\"" << util::json_escape(span.name)
        << "\",\"cat\":\"wall\",\"ph\":\"X\",\"pid\":0,\"tid\":" << span.track
        << ",\"ts\":" << util::fixed(span.start_us, 3)
        << ",\"dur\":" << util::fixed(span.end_us - span.start_us, 3)
        << ",\"args\":{}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace tgi::obs
