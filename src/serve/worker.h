// The sweep engine's point body for a subset of one spec's sweep points
// (DESIGN.md §13).
//
// tgi_sweep, a campaign entry and the fig/table harnesses all compute
// through compute_points on GLOBAL point indices (meters, fault and robust
// streams keyed on the global index), reproducing exactly the bytes
// ParallelSweep would produce in a full sweep.
//
// run_worker and WorkerAssignment stay only because perfbench/ drives the
// `tgi_serve --worker` mode (ROADMAP item 1 removes them): run_worker
// appends every record to a harness::PointStore at
// `journal_dir`/journal.tgij.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "obs/profile.h"
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
};

/// Computes `indices` (global, strictly increasing) of the spec's sweep on
/// `threads` through the sweep engine's point body, handing each finished
/// record to `done` — concurrently when threads > 1, in index order
/// otherwise. A non-null `profiler` only brackets each point in wall time.
void compute_points(const CampaignSpec& spec,
                    const std::vector<std::size_t>& indices,
                    std::size_t threads,
                    const std::function<void(harness::PointRecord)>& done,
                    obs::WallProfiler* profiler = nullptr);

/// Computes the assignment into a fresh journal and returns the number of
/// points journaled.
std::size_t run_worker(const CampaignSpec& spec, const WorkerAssignment& a);

}  // namespace tgi::serve
