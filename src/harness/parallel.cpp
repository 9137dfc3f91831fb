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

/// Validates the checkpoint store against the call and returns it (null
/// when checkpointing is off).
PointStore* checked_store(const ParallelSweepConfig& config, const char* mode,
                          const std::vector<std::size_t>& values) {
  PointStore* store = config.checkpoint;
  if (store == nullptr) return nullptr;
  TGI_REQUIRE(store->mode() == mode,
              "checkpoint journal mode '" << store->mode()
                                          << "' does not match this sweep ('"
                                          << mode << "')");
  TGI_REQUIRE(store->values() == values,
              "checkpoint journal sweep values do not match this sweep");
  return store;
}

/// The one sweep body behind run_with and run_robust. Each point is fully
/// self-contained: `compute(k, recorder)` builds point k's own meter and
/// runner (recorder is null unless tracing or checkpointing). Results and
/// recorders land in preallocated slots, so completion order cannot
/// reorder the output. Points the checkpoint holds are replayed serially,
/// in index order (`restore` rebuilds the result from its record); only
/// the remainder is executed, each appended to the checkpoint as it
/// finishes, and the completed sweep is published in index order.
/// Checkpointing always attaches recorders (attaching is observational):
/// each record carries its observability section so a later replay can
/// serve trace=.
template <typename Point, typename Restore, typename Compute,
          typename MakeRecord>
std::vector<Point> sweep_points(const ParallelSweepConfig& config,
                                const char* mode,
                                const std::vector<std::size_t>& values,
                                obs::SweepTrace* trace, const Restore& restore,
                                const Compute& compute,
                                const MakeRecord& make_record) {
  PointStore* store = checked_store(config, mode, values);
  std::vector<obs::PointRecorder> recorders;
  if (trace != nullptr || store != nullptr) {
    recorders.reserve(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      recorders.emplace_back(k, std::to_string(values[k]));
    }
  }
  std::vector<Point> results(values.size());
  std::vector<std::size_t> pending;
  pending.reserve(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (store != nullptr && store->records().count(k) != 0) {
      const PointRecord& record = store->records().at(k);
      results[k] = restore(record);
      restore_recorder(record, recorders[k]);
    } else {
      pending.push_back(k);
    }
  }
  execute_points(
      pending.size(), config.threads, config.profiler,
      [&pending, &recorders, &results, &values, &compute, &make_record,
       store](std::size_t i) {
        const std::size_t k = pending[i];
        obs::PointRecorder* recorder =
            recorders.empty() ? nullptr : &recorders[k];
        results[k] = compute(k, recorder);
        if (store != nullptr) {
          store->append(make_record(k, values[k], results[k], recorder));
        }
      });
  if (store != nullptr) store->publish(store->records());
  if (trace != nullptr) *trace = obs::SweepTrace::merge(std::move(recorders));
  return results;
}

SuitePoint standard_suite(SuiteRunner& runner, std::size_t processes) {
  return runner.run_suite(processes);
}

}  // namespace

SuitePoint ParallelSweep::plain_point(std::size_t k, std::size_t value,
                                      const SweepPointFn& fn,
                                      obs::PointRecorder* recorder) const {
  const std::unique_ptr<power::PowerMeter> meter = meter_factory_(k);
  TGI_CHECK(meter != nullptr, "meter factory returned null");
  SuiteRunner runner(cluster_, *meter, config_.suite);
  if (recorder != nullptr) runner.attach_recorder(recorder);
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
  obs::PointRecorder recorder(k, std::to_string(values[k]));
  if (plan != nullptr) {
    return make_robust_point_record(
        k, values[k], robust_point(k, values[k], *plan, robust, &recorder),
        &recorder);
  }
  return make_point_record(
      k, values[k], plain_point(k, values[k], standard_suite, &recorder),
      &recorder);
}

std::vector<SuitePoint> ParallelSweep::run_with(
    const std::vector<std::size_t>& values, const SweepPointFn& fn,
    obs::SweepTrace* trace) const {
  TGI_REQUIRE(static_cast<bool>(fn), "ParallelSweep::run_with: empty fn");
  return sweep_points<SuitePoint>(
      config_, "plain", values, trace,
      [](const PointRecord& record) { return record.point; },
      [this, &fn, &values](std::size_t k, obs::PointRecorder* recorder) {
        return plain_point(k, values[k], fn, recorder);
      },
      make_point_record);
}

std::vector<RobustSuitePoint> ParallelSweep::run_robust(
    const std::vector<std::size_t>& process_counts, const FaultPlan& plan,
    const RobustConfig& robust, obs::SweepTrace* trace) const {
  return sweep_points<RobustSuitePoint>(
      config_, "robust", process_counts, trace,
      [](const PointRecord& record) {
        return RobustSuitePoint{record.point, record.missing, record.counters};
      },
      [this, &plan, &robust, &process_counts](std::size_t k,
                                              obs::PointRecorder* recorder) {
        return robust_point(k, process_counts[k], plan, robust, recorder);
      },
      make_robust_point_record);
}

std::vector<SuitePoint> ParallelSweep::run(
    const std::vector<std::size_t>& process_counts,
    obs::SweepTrace* trace) const {
  return run_with(process_counts, standard_suite, trace);
}

std::vector<SuitePoint> ParallelSweep::run_extended(
    const std::vector<std::size_t>& process_counts,
    obs::SweepTrace* trace) const {
  return run_with(
      process_counts,
      [](SuiteRunner& runner, std::size_t processes) {
        return runner.run_extended_suite(processes);
      },
      trace);
}

}  // namespace tgi::harness
