#include "harness/parallel.h"

#include <string>
#include <utility>

#include "util/error.h"
#include "util/thread_pool.h"

namespace tgi::harness {

MeterFactory wattsup_meter_factory(power::WattsUpConfig base,
                                   std::size_t measurements_per_point) {
  TGI_REQUIRE(measurements_per_point >= 1,
              "a sweep point performs at least one measurement");
  return [base, measurements_per_point](std::size_t point_index) {
    power::WattsUpConfig config = base;
    config.run_offset =
        base.run_offset +
        static_cast<std::uint64_t>(point_index) * measurements_per_point;
    return std::make_unique<power::WattsUpMeter>(config);
  };
}

MeterFactory model_meter_factory(util::Seconds sample_interval) {
  return [sample_interval](std::size_t /*point_index*/) {
    return std::make_unique<power::ModelMeter>(sample_interval);
  };
}

void execute_points(std::size_t count, std::size_t threads,
                    obs::WallProfiler* profiler,
                    const std::function<void(std::size_t)>& run_point) {
  if (threads == 0) threads = util::ThreadPool::default_thread_count();
  if (threads <= 1 || count <= 1) {
    for (std::size_t k = 0; k < count; ++k) {
      if (profiler != nullptr) {
        const double start = profiler->now_us();
        run_point(k);
        profiler->record("point " + std::to_string(k), 0, start,
                         profiler->now_us());
      } else {
        run_point(k);
      }
    }
    return;
  }
  util::ThreadPool pool(threads < count ? threads : count);
  if (profiler != nullptr) pool.set_task_hook(profiler->task_hook("point"));
  util::parallel_for(pool, count, run_point);
}

ParallelSweep::ParallelSweep(sim::ClusterSpec cluster,
                             MeterFactory meter_factory,
                             ParallelSweepConfig config)
    : cluster_(std::move(cluster)),
      meter_factory_(std::move(meter_factory)),
      config_(std::move(config)) {
  TGI_REQUIRE(static_cast<bool>(meter_factory_),
              "ParallelSweep needs a meter factory");
}

namespace {

/// The one sweep body behind run_with and run_robust. Each point is fully
/// self-contained: `compute(k)` builds point k's own meter and runner.
/// Results land in preallocated slots, so completion order cannot reorder
/// the output.
template <typename Point, typename Compute>
std::vector<Point> sweep_points(const ParallelSweepConfig& config,
                                std::size_t count, const Compute& compute) {
  std::vector<Point> results(count);
  execute_points(count, config.threads, nullptr,
                 [&results, &compute](std::size_t k) {
                   results[k] = compute(k);
                 });
  return results;
}

SuitePoint standard_suite(SuiteRunner& runner, std::size_t processes) {
  return runner.run_suite(processes);
}

}  // namespace

SuitePoint ParallelSweep::plain_point(std::size_t k, std::size_t value,
                                      const SweepPointFn& fn) const {
  const std::unique_ptr<power::PowerMeter> meter = meter_factory_(k);
  TGI_CHECK(meter != nullptr, "meter factory returned null");
  SuiteRunner runner(cluster_, *meter, config_.suite);
  return fn(runner, value);
}

RobustSuitePoint ParallelSweep::robust_point(
    std::size_t k, std::size_t value, const FaultPlan& plan,
    const RobustConfig& robust, obs::PointRecorder* recorder) const {
  // The fault plane adds no shared state: FaultPlan decisions are pure
  // functions of indices.
  const std::unique_ptr<power::PowerMeter> meter = meter_factory_(k);
  TGI_CHECK(meter != nullptr, "meter factory returned null");
  RobustSuiteRunner runner(cluster_, *meter, plan, robust, config_.suite, k);
  if (recorder != nullptr) runner.attach_recorder(recorder);
  return runner.run_suite(value);
}

PointRecord ParallelSweep::record_point(const std::vector<std::size_t>& values,
                                        std::size_t k, const FaultPlan* plan,
                                        const RobustConfig& robust) const {
  TGI_REQUIRE(k < values.size(),
              "sweep point " << k << " is outside the sweep");
  if (plan == nullptr) {
    return make_point_record(k, values[k],
                             plain_point(k, values[k], standard_suite),
                             nullptr);
  }
  // A robust point's fault, backoff and stall events are in no
  // measurement, so its record keeps the live recorder's trace.
  obs::PointRecorder recorder(k, std::to_string(values[k]));
  return make_robust_point_record(
      k, values[k], robust_point(k, values[k], *plan, robust, &recorder),
      &recorder);
}

std::vector<SuitePoint> ParallelSweep::run_with(
    const std::vector<std::size_t>& values, const SweepPointFn& fn) const {
  TGI_REQUIRE(static_cast<bool>(fn), "ParallelSweep::run_with: empty fn");
  return sweep_points<SuitePoint>(
      config_, values.size(), [this, &fn, &values](std::size_t k) {
        return plain_point(k, values[k], fn);
      });
}

std::vector<RobustSuitePoint> ParallelSweep::run_robust(
    const std::vector<std::size_t>& process_counts, const FaultPlan& plan,
    const RobustConfig& robust) const {
  return sweep_points<RobustSuitePoint>(
      config_, process_counts.size(),
      [this, &plan, &robust, &process_counts](std::size_t k) {
        return robust_point(k, process_counts[k], plan, robust, nullptr);
      });
}

std::vector<SuitePoint> ParallelSweep::run(
    const std::vector<std::size_t>& process_counts) const {
  return run_with(process_counts, standard_suite);
}

std::vector<SuitePoint> ParallelSweep::run_extended(
    const std::vector<std::size_t>& process_counts) const {
  return run_with(process_counts,
                  [](SuiteRunner& runner, std::size_t processes) {
                    return runner.run_extended_suite(processes);
                  });
}

}  // namespace tgi::harness
