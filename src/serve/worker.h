// The campaign worker: computes an assigned subset of one spec's sweep
// points and journals them (DESIGN.md §13).
//
// A worker — whether a `tgi_serve --worker` shard process or the engine's
// in-process fallback — is handed GLOBAL point indices. It must reproduce
// exactly the bytes ParallelSweep would have produced for those indices in
// a full sweep: meters are built from the global index (WattsUp run_offset
// = k * measurements_per_point), fault and robust streams key on the
// global index, recorders carry the global index and label, and every
// completed point is appended to a fresh CheckpointJournal in
// `journal_dir` — the engine merges shard journals in fixed shard order
// and banks the records in the result cache. Because the journal record
// is the canonical byte representation, a worker's output is
// thread-count-invariant by the same §3b argument the sweep engine
// carries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

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

  // Deterministic process-fault hooks (DESIGN.md §15, ci.sh stages 9/11):
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

/// Computes the assignment and returns the number of points journaled.
/// With a process-fault hook armed this call may not return at all.
std::size_t run_worker(const CampaignSpec& spec, const WorkerAssignment& a);

}  // namespace tgi::serve
