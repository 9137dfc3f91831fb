// The campaign worker: computes an assigned subset of one spec's sweep
// points (DESIGN.md §13).
//
// A worker — a `tgi_serve --worker` shard process or the engine's
// in-process heal — is handed GLOBAL point indices and must reproduce
// exactly the bytes ParallelSweep would produce for them in a full sweep,
// so both run the sweep engine's own point body through compute_points
// (meters, fault and robust streams keyed on the global index). run_worker
// appends every record to a harness::PointStore at
// `journal_dir`/journal.tgij, which the engine loads in fixed shard order;
// the in-process heal keeps its records in memory.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "serve/spec.h"

namespace tgi::serve {

/// One worker's work order.
struct WorkerAssignment {
  /// Global sweep-point indices to compute; strictly increasing.
  std::vector<std::size_t> indices;
  /// Directory for the worker's journal (journal.tgij inside).
  std::string journal_dir;
  /// Sweep threads (0 = ThreadPool default, 1 = serial).
  std::size_t threads = 1;

  // Deterministic process-fault hooks (DESIGN.md §15, serve_check.cmake):
  // each fires after journaling exactly that many points, so "N points
  // then the fault" is a precise statement about what's on disk. Any armed
  // hook forces serial execution in assignment order (records are
  // thread-count-invariant, so the journal bytes are unchanged). 0 = off.
  /// Raise SIGKILL — a real mid-campaign kill, no sleep-and-poll raciness.
  std::size_t die_after = 0;
  /// Stop journaling and ignore SIGTERM forever: exercises the
  /// supervisor's progress watchdog and its SIGTERM→SIGKILL escalation.
  std::size_t hang_after = 0;
  /// _Exit(3) — a nonzero exit with the journal intact up to this point.
  std::size_t exit_after = 0;
  /// Append a torn garbage record (no trailing newline) to the journal,
  /// then _Exit(0): a CLEAN exit with an incomplete, damaged journal.
  /// Proves supervision trust is journal-driven, never exit-status-driven.
  std::size_t garbage_after = 0;
};

/// Computes `indices` (global, strictly increasing) of the spec's sweep on
/// `threads` through the sweep engine's point body, handing each finished
/// record to `done` — concurrently when threads > 1, in index order
/// otherwise.
void compute_points(const CampaignSpec& spec,
                    const std::vector<std::size_t>& indices,
                    std::size_t threads,
                    const std::function<void(harness::PointRecord)>& done);

/// Computes the assignment into a fresh journal and returns the number of
/// points journaled. With a process-fault hook armed this call may not
/// return at all.
std::size_t run_worker(const CampaignSpec& spec, const WorkerAssignment& a);

}  // namespace tgi::serve
