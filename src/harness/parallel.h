// Deterministic parallel sweep engine.
//
// A suite sweep (Figures 5-6, Tables I-II, the ablations) is a vector of
// independent points: each builds its own simulated cluster state behind
// its own meter, mirroring the paper's repeat-per-scale procedure. That
// makes the sweep embarrassingly parallel — provided the meter's error
// draws stay reproducible when points run out of order.
//
// The determinism contract: sweep point k gets a FRESH meter constructed
// by a MeterFactory from the pair (seed, k). For the WattsUp instrument
// the factory sets WattsUpConfig::run_offset = k * measurements_per_point,
// which replays exactly the RNG streams that a single meter shared across
// a serial sweep would have used for point k. Results are collected into a
// preallocated vector BY INDEX, never by completion order. Consequence:
// the output is bit-identical for every thread count — threads=1
// reproduces today's serial execution exactly, and threads=N reproduces
// threads=1.
// The engine does no I/O: banking points is ResultCache::fill's job
// (harness/cache.h), fed through record_point.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "sim/machine.h"
#include "util/units.h"

namespace tgi::harness {

/// Builds the meter for sweep point `point_index`. Must be callable
/// concurrently and must return an instrument whose error draws depend
/// only on (its own configuration, point_index) — never on call order.
using MeterFactory =
    std::function<std::unique_ptr<power::PowerMeter>(std::size_t point_index)>;

/// MeterFactory for the simulated Watts Up meter: point k's meter starts
/// its run counter at k * measurements_per_point, so the per-measurement
/// RNG streams are bit-identical to one meter of config `base` shared
/// across a serial sweep (run_suite consumes 3 + include_gups
/// measurements per point, run_extended_suite 6, run_iozone 1).
[[nodiscard]] MeterFactory wattsup_meter_factory(
    power::WattsUpConfig base, std::size_t measurements_per_point);

/// MeterFactory for the exact ModelMeter (stateless, so the point index is
/// ignored).
[[nodiscard]] MeterFactory model_meter_factory(
    util::Seconds sample_interval = util::Seconds(0.05));

/// Inert: kept only because perfbench/ names it; no code branches on it.
enum class SweepGranularity { kPoint, kTask };

/// Runs run_point(0 .. count-1) with the engine's execution discipline:
/// inline, in index order, when threads <= 1 (0 =
/// ThreadPool::default_thread_count()), else on a pool. When a profiler is
/// attached every call is bracketed with a wall span ("point <i>"); the
/// profiler only observes, so scheduling and results are identical with
/// and without it.
void execute_points(std::size_t count, std::size_t threads,
                    obs::WallProfiler* profiler,
                    const std::function<void(std::size_t)>& run_point);

struct ParallelSweepConfig {
  /// Per-benchmark knobs, forwarded to every point's SuiteRunner.
  SuiteConfig suite;
  /// Worker threads; 0 = ThreadPool::default_thread_count() (the
  /// TGI_THREADS environment variable, else hardware concurrency), 1 =
  /// inline serial execution on the calling thread.
  std::size_t threads = 0;
};

/// Maps sweep points to SuitePoint results concurrently; output is
/// bit-identical to the serial path for any thread count.
class ParallelSweep {
 public:
  ParallelSweep(sim::ClusterSpec cluster, MeterFactory meter_factory,
                ParallelSweepConfig config = {});

  /// The standard suite across a process-count sweep: parallel equivalent
  /// of SuiteRunner::sweep. It records no trace: a plain point's is derived
  /// from its measurements (replay_trace, harness/checkpoint.h).
  [[nodiscard]] std::vector<SuitePoint> run(
      const std::vector<std::size_t>& process_counts) const;

  /// The six-benchmark extended suite across a process-count sweep.
  [[nodiscard]] std::vector<SuitePoint> run_extended(
      const std::vector<std::size_t>& process_counts) const;

  /// Generic form: point k is produced by fn(runner_for_point_k,
  /// values[k]). Use for sweeps over something other than process counts
  /// (e.g. Figure 4's node sweep calling run_iozone).
  using SweepPointFn =
      std::function<SuitePoint(SuiteRunner& runner, std::size_t value)>;
  [[nodiscard]] std::vector<SuitePoint> run_with(
      const std::vector<std::size_t>& values, const SweepPointFn& fn) const;

  /// The standard suite sweep through the fault plane and recovery policy
  /// (harness/robust.h): point k runs on a RobustSuiteRunner whose fault
  /// and meter streams are keyed on k, so a fixed FaultPlan yields
  /// bit-identical output for every thread count. Build the meter factory
  /// with a robust_measurements_per_point(suite, robust) stride so
  /// per-point instruments stay on non-overlapping streams even when
  /// every attempt retries.
  [[nodiscard]] std::vector<RobustSuitePoint> run_robust(
      const std::vector<std::size_t>& process_counts, const FaultPlan& plan,
      const RobustConfig& robust = {}) const;

  /// The point body every sweep above runs, for callers that compute part
  /// of a sweep (serve::compute_points): point `k` of the standard suite
  /// over `values` (robust under `plan` when non-null) as the record a
  /// cache shard banks; only a robust point runs with a recorder, whose
  /// trace its record stores. Thread-safe.
  [[nodiscard]] PointRecord record_point(
      const std::vector<std::size_t>& values, std::size_t k,
      const FaultPlan* plan, const RobustConfig& robust = {}) const;

 private:
  [[nodiscard]] SuitePoint plain_point(std::size_t k, std::size_t value,
                                       const SweepPointFn& fn) const;
  [[nodiscard]] RobustSuitePoint robust_point(
      std::size_t k, std::size_t value, const FaultPlan& plan,
      const RobustConfig& robust, obs::PointRecorder* recorder) const;

  sim::ClusterSpec cluster_;
  MeterFactory meter_factory_;
  ParallelSweepConfig config_;
};

}  // namespace tgi::harness
