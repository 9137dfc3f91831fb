// Ablation: the fault plane. Injects meter faults (dropout bursts,
// stuck-at windows, gain spikes) and run faults (failures, timeouts,
// truncated logs) at increasing rates through the recovery policy
// (DESIGN.md §9) and reports what the Green Index does: how far the
// accepted-measurement TGI moves from the fault-free truth, what the
// retries and drops cost, and that the whole pipeline stays bit-identical
// across thread counts — the property that keeps fault sweeps testable.
#include "bench_common.h"

#include <cmath>

#include "harness/faults.h"
#include "harness/robust.h"

namespace {

using namespace tgi;

bool same_counters(const harness::PointCounters& a,
                   const harness::PointCounters& b) {
  return a.attempts == b.attempts && a.retries == b.retries &&
         a.run_faults == b.run_faults && a.meter_faults == b.meter_faults &&
         a.rejected_readings == b.rejected_readings &&
         a.dropped_benchmarks == b.dropped_benchmarks &&
         a.backoff.value() == b.backoff.value() &&
         a.stalled.value() == b.stalled.value();
}

bool same_robust_points(const std::vector<harness::RobustSuitePoint>& a,
                        const std::vector<harness::RobustSuitePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bench::same_measurements(a[i].point.measurements,
                                  b[i].point.measurements) ||
        a[i].missing != b[i].missing ||
        !same_counters(a[i].counters, b[i].counters)) {
      return false;
    }
  }
  return true;
}

/// The rate-parameterized fault mix the table sweeps: meter faults at the
/// headline rate, run faults at half of it.
harness::FaultSpec mixed_spec(double rate) {
  harness::FaultSpec spec;
  spec.dropout_burst_rate = rate;
  spec.stuck_rate = rate / 2;
  spec.spike_rate = rate / 2;
  spec.failure_rate = rate / 2;
  spec.timeout_rate = rate / 4;
  spec.truncation_rate = rate / 4;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "fault plane: TGI stability vs injected faults");
    power::ModelMeter exact_ref(util::seconds(0.5));
    const auto reference =
        harness::reference_measurements(e.reference_system, exact_ref);
    const core::TgiCalculator calc(reference);

    harness::RobustConfig robust;
    // The WattsUp simulation is noisy, so long bit-identical sample runs
    // really are stuck readings there; ModelMeter repeats legitimately.
    if (e.meter_kind == "wattsup") robust.stuck_run_limit = 8;
    const harness::SuiteConfig suite{};
    const std::size_t robust_stride =
        harness::robust_measurements_per_point(suite, robust);

    // Fault-free truth: today's plain parallel sweep.
    const std::vector<harness::SuitePoint> plain = bench::run_sweep(e);
    std::vector<double> truth;
    for (const auto& pt : plain) {
      truth.push_back(
          calc.compute(pt.measurements, core::WeightScheme::kArithmeticMean)
              .tgi);
    }

    harness::ParallelSweepConfig cfg;
    cfg.threads = e.threads;

    // Zero-fault robust sweep: with no faults there are no retries, so the
    // plain per-point meter stride replays the plain sweep's RNG streams
    // exactly and the whole recovery stack must be a bit-exact no-op.
    {
      const harness::ParallelSweep engine(
          e.system_under_test,
          bench::sweep_meter_factory(e, bench::suite_measurements(suite)),
          cfg);
      const auto robust_points =
          engine.run_robust(e.sweep, harness::FaultPlan(), robust);
      bool identical = robust_points.size() == plain.size();
      bool untouched = identical;
      for (std::size_t k = 0; identical && k < plain.size(); ++k) {
        identical = bench::same_measurements(
            plain[k].measurements, robust_points[k].point.measurements);
        const harness::PointCounters& c = robust_points[k].counters;
        untouched = untouched && !robust_points[k].degraded() &&
                    c.retries == 0 && c.run_faults == 0 &&
                    c.meter_faults == 0 && c.rejected_readings == 0;
      }
      bench::print_check(
          "zero-fault robust sweep is bit-identical to the plain sweep",
          identical && untouched);
    }

    // The same engine (retry-aware meter stride) across the fault rates.
    const harness::ParallelSweep engine(
        e.system_under_test, bench::sweep_meter_factory(e, robust_stride),
        cfg);
    util::TextTable table({"rate", "TGI(AM) mean", "worst |rel err|",
                           "retries", "rejected", "dropped", "degraded"});
    double worst_recovered = 0.0;
    for (const double rate : {0.05, 0.15, 0.30}) {
      const auto points =
          engine.run_robust(e.sweep, harness::FaultPlan(mixed_spec(rate)),
                            robust);
      double sum = 0.0;
      std::size_t measured = 0;
      double worst = 0.0;
      std::size_t retries = 0;
      std::size_t rejected = 0;
      std::size_t dropped = 0;
      std::size_t degraded = 0;
      for (std::size_t k = 0; k < points.size(); ++k) {
        const harness::RobustSuitePoint& rp = points[k];
        retries += rp.counters.retries;
        rejected += rp.counters.rejected_readings;
        dropped += rp.counters.dropped_benchmarks;
        if (rp.degraded()) ++degraded;
        if (rp.point.measurements.empty()) continue;
        const double tgi =
            calc.compute_partial(rp.point.measurements,
                                 core::WeightScheme::kArithmeticMean)
                .result.tgi;
        sum += tgi;
        ++measured;
        if (!rp.degraded()) {
          worst = std::max(worst, std::fabs(tgi - truth[k]) / truth[k]);
        }
      }
      worst_recovered = std::max(worst_recovered, worst);
      table.add_row({util::fixed(rate, 2),
                     measured > 0
                         ? util::fixed(sum / static_cast<double>(measured), 4)
                         : "n/a",
                     util::percent(worst), std::to_string(retries),
                     std::to_string(rejected), std::to_string(dropped),
                     std::to_string(degraded) + "/" +
                         std::to_string(points.size())});
    }
    std::cout << table;
    // Full (non-degraded) points re-measure every rejected reading, so
    // their TGI should stay within the instrument-noise envelope that
    // ablation_meter pins for the fault-free pipeline.
    bench::print_check(
        "recovered full-suite TGI stays within 5% of fault-free truth",
        worst_recovered < 0.05);

    // Thread-count invariance under heavy faults: measurements, missing
    // lists, and every counter must match double-for-double.
    {
      const harness::FaultPlan plan(mixed_spec(0.30));
      harness::ParallelSweepConfig serial_cfg;
      serial_cfg.threads = 1;
      harness::ParallelSweepConfig wide_cfg;
      wide_cfg.threads = 8;
      const harness::MeterFactory factory =
          bench::sweep_meter_factory(e, robust_stride);
      const harness::ParallelSweep serial(e.system_under_test, factory,
                                          serial_cfg);
      const harness::ParallelSweep wide(e.system_under_test, factory,
                                        wide_cfg);
      bench::print_check(
          "faulted sweep is bit-identical at threads=1 and threads=8",
          same_robust_points(serial.run_robust(e.sweep, plan, robust),
                             wide.run_robust(e.sweep, plan, robust)));
    }

    // Graceful degradation: drive the failure rate high enough that some
    // benchmark exhausts its retries, then check the partial TGI math.
    {
      harness::FaultSpec spec;
      spec.failure_rate = 0.8;
      const auto points =
          engine.run_robust(e.sweep, harness::FaultPlan(spec), robust);
      const harness::RobustSuitePoint* sample = nullptr;
      for (const auto& rp : points) {
        if (rp.degraded() && !rp.point.measurements.empty()) {
          sample = &rp;
          break;
        }
      }
      bool ok = sample != nullptr;
      if (ok) {
        const core::PartialTgiResult partial = calc.compute_partial(
            sample->point.measurements, core::WeightScheme::kTime);
        double weight_sum = 0.0;
        for (const auto& component : partial.result.components) {
          weight_sum += component.weight;
        }
        ok = partial.partial() &&
             partial.result.components.size() + partial.missing.size() ==
                 reference.size() &&
             std::fabs(weight_sum - 1.0) < 1e-12;
        std::cout << "degraded sample point: "
                  << partial.result.components.size() << " survivors, "
                  << partial.missing.size() << " missing, weights sum "
                  << util::fixed(weight_sum, 12) << "\n";
      }
      bench::print_check(
          "degraded points renormalize surviving weights to sum to 1", ok);
    }
  });
}
