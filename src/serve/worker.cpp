#include "serve/worker.h"

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <utility>

#include <unistd.h>

#include "harness/parallel.h"
#include "harness/robust.h"
#include "util/error.h"

namespace tgi::serve {

namespace {

/// True when any deterministic process-fault hook is armed (DESIGN.md
/// §15); an armed hook forces the serial assignment-order path.
bool fault_hook_armed(const WorkerAssignment& a) {
  return a.die_after > 0 || a.hang_after > 0 || a.exit_after > 0 ||
         a.garbage_after > 0;
}

/// Fires whichever process-fault hook has come due after `done` points
/// were journaled; returns only when none has.
void maybe_fire_fault_hook(const WorkerAssignment& a, std::size_t done) {
  if (a.die_after > 0 && done >= a.die_after) std::raise(SIGKILL);
  if (a.exit_after > 0 && done >= a.exit_after) std::_Exit(3);
  if (a.hang_after > 0 && done >= a.hang_after) {
    // Stop journaling but refuse SIGTERM: the only way this process ends
    // is the supervisor's watchdog escalating to SIGKILL.
    std::signal(SIGTERM, SIG_IGN);
    for (;;) ::pause();
  }
  if (a.garbage_after > 0 && done >= a.garbage_after) {
    // Tear the journal the way a crash mid-append would — a record with
    // no trailing newline — then exit CLEAN. The journal reader
    // quarantines the torn tail and the supervisor still strikes the
    // shard for its missing points: trust is journal-driven, never
    // exit-status-driven. Deliberate raw append, like the journal's own
    // handle.
    std::ofstream tail(  // tgi-lint: allow(nonatomic-output-write)
        a.journal_dir + "/journal.tgij", std::ios::binary | std::ios::app);
    tail << "TGIJ2 point deadbeef {\"torn\":";
    tail.flush();
    std::_Exit(0);
  }
}

}  // namespace

void compute_points(const CampaignSpec& spec,
                    const std::vector<std::size_t>& indices,
                    std::size_t threads,
                    const std::function<void(harness::PointRecord)>& done,
                    obs::WallProfiler* profiler) {
  TGI_REQUIRE(!indices.empty(), "worker assignment is empty");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    TGI_REQUIRE(indices[i] < spec.sweep.size(),
                "worker index " << indices[i] << " is outside the sweep");
    TGI_REQUIRE(i == 0 || indices[i - 1] < indices[i],
                "worker indices must be strictly increasing");
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
  // An armed hook runs serially, in assignment order: "journaled N then
  // faulted" must mean exactly the first N records are on disk.
  const bool armed = fault_hook_armed(a);
  std::size_t journaled = 0;
  compute_points(spec, a.indices, armed ? 1 : a.threads,
                 [&a, &journal, armed, &journaled](harness::PointRecord r) {
                   journal.append(std::move(r));
                   if (armed) maybe_fire_fault_hook(a, ++journaled);
                 });
  return a.indices.size();
}

}  // namespace tgi::serve
