#include "serve/worker.h"

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include <unistd.h>

#include "harness/checkpoint.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "power/meter.h"
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
    tail << "TGIJ1 point deadbeef {\"torn\":";
    tail.flush();
    std::_Exit(0);
  }
}

}  // namespace

std::size_t run_worker(const CampaignSpec& spec, const WorkerAssignment& a) {
  const std::vector<std::size_t>& values = spec.sweep;
  TGI_REQUIRE(!a.indices.empty(), "worker assignment is empty");
  for (std::size_t i = 0; i < a.indices.size(); ++i) {
    TGI_REQUIRE(a.indices[i] < values.size(),
                "worker index " << a.indices[i] << " is outside the sweep");
    TGI_REQUIRE(i == 0 || a.indices[i - 1] < a.indices[i],
                "worker indices must be strictly increasing");
  }
  TGI_REQUIRE(!a.journal_dir.empty(), "worker needs a journal directory");

  const std::string mode = spec_mode(spec);
  harness::CheckpointConfig ccfg;
  ccfg.directory = a.journal_dir;
  ccfg.resume = false;
  harness::CheckpointJournal journal(std::move(ccfg), spec_hash(spec), mode,
                                     values);

  // Full preallocation, global labels — exactly ParallelSweep's recorders,
  // so a shard's trace section is byte-identical to the record an
  // unsharded sweep would journal for the same point.
  std::vector<obs::PointRecorder> recorders;
  recorders.reserve(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    recorders.emplace_back(k, std::to_string(values[k]));
  }

  const harness::SuiteConfig suite;
  const std::optional<harness::FaultPlan> plan =
      spec.faulted() ? std::optional<harness::FaultPlan>(spec.faults())
                     : std::nullopt;
  const harness::RobustConfig robust = spec_robust_config(spec);
  const harness::MeterFactory factory = spec_meter_factory(spec);
  const auto run_point = [&spec, &a, &values, &recorders, &plan, &robust,
                          &suite, &factory, &journal](std::size_t i) {
    const std::size_t k = a.indices[i];
    const std::unique_ptr<power::PowerMeter> meter = factory(k);
    if (plan) {
      harness::RobustSuiteRunner runner(spec.cluster, *meter, *plan, robust,
                                        suite, k);
      runner.attach_recorder(&recorders[k]);
      journal.record(harness::make_robust_point_record(
          k, values[k], runner.run_suite(values[k]), &recorders[k]));
    } else {
      harness::SuiteRunner runner(spec.cluster, *meter, suite);
      runner.attach_recorder(&recorders[k]);
      journal.record(harness::make_point_record(
          k, values[k], runner.run_suite(values[k]), &recorders[k]));
    }
  };
  if (fault_hook_armed(a)) {
    // Serial, in assignment order: "journaled N then faulted" must mean
    // exactly the first N records are on disk.
    for (std::size_t i = 0; i < a.indices.size(); ++i) {
      run_point(i);
      maybe_fire_fault_hook(a, i + 1);
    }
  } else {
    harness::execute_points(a.indices.size(), a.threads, nullptr, run_point);
  }
  journal.finalize();
  return a.indices.size();
}

}  // namespace tgi::serve
