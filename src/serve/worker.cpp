#include "serve/worker.h"

#include <optional>
#include <utility>

#include "harness/parallel.h"
#include "harness/robust.h"
#include "util/error.h"

namespace tgi::serve {

void compute_points(const CampaignSpec& spec,
                    const std::vector<std::size_t>& indices,
                    std::size_t threads,
                    const std::function<void(harness::PointRecord)>& done,
                    obs::WallProfiler* profiler) {
  TGI_REQUIRE(!indices.empty(), "no sweep points to compute");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    TGI_REQUIRE(indices[i] < spec.sweep.size(),
                "point index " << indices[i] << " is outside the sweep");
    TGI_REQUIRE(i == 0 || indices[i - 1] < indices[i],
                "point indices must be strictly increasing");
  }
  const harness::ParallelSweep engine(spec.cluster, spec_meter_factory(spec));
  const std::optional<harness::FaultPlan> plan =
      spec.faulted() ? std::optional<harness::FaultPlan>(spec.faults())
                     : std::nullopt;
  const harness::RobustConfig robust = spec_robust_config(spec);
  harness::execute_points(
      indices.size(), threads, profiler,
      [&spec, &indices, &engine, &plan, &robust, &done](std::size_t i) {
        done(engine.record_point(spec.sweep, indices[i],
                                 plan ? &*plan : nullptr, robust));
      });
}

std::size_t run_worker(const CampaignSpec& spec, const WorkerAssignment& a) {
  TGI_REQUIRE(!a.journal_dir.empty(), "worker needs a journal directory");
  harness::PointStore journal(a.journal_dir + "/journal.tgij",
                              spec_hash(spec), spec_mode(spec), spec.sweep);
  journal.publish({});
  compute_points(spec, a.indices, a.threads,
                 [&journal](harness::PointRecord record) {
                   journal.append(std::move(record));
                 });
  return a.indices.size();
}

}  // namespace tgi::serve
