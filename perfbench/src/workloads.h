// The benchmark's workloads. Each drives the TGI libraries in-process
// through their public entry points.
//
//   sweep_cold   the paper's 8-point Fire grid plus the SystemG reference
//                and TGI under all four weight schemes, with a fresh
//                WattsUp seed per op: kernels -> sim -> power -> core only,
//                so meter work shows here.
//   cache_warm   an 8-entry, 72-point campaign mix (3 clusters, both
//                meters, one faulted entry, point/task granularity) served
//                from a cache filled in set-up: shard lookup, journal
//                decode and TGI; no meter or simulator runs, so meter gains
//                must not move it.
//
// Neither writes a file while timed. On a KVM guest's ext4 (mounted with
// discard), writing and renaming one small file cost 57 to 717 us of CPU
// within minutes, growing with the files recently created and deleted
// nearby — the benchmark's own churn — so a timed op that publishes
// measures that history rather than the code. The layers that only publishing or worker processes reach are
// measured by the traced runs instead: cache_warm's replay stores shards,
// publishes the campaign's artifacts and runs the warm CampaignEngine;
// sweep_cold's replay runs the op's sweep in `tgi_serve --worker`
// processes under serve::Supervisor.
//
// Every op's output is checked against an expected output that set-up
// computes once on the serial in-process path; a mismatch fails the op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

struct Context {
  std::string root;        ///< checkout root (clusters/, tests/data/golden/)
  std::string work_dir;    ///< scratch owned by this workload instance
  std::string worker_exe;  ///< tgi_serve, for sweep_cold's traced replay
  std::uint64_t seed = 0;  ///< workload seed: every input derives from it
  /// Sensitivity self-check only: every sweep_cold meter measures twice.
  bool double_meter = false;
};

struct OpOutcome {
  std::size_t points = 0;  ///< sweep points + reference runs delivered
  /// Checks the op's output against the expected output; returns why it
  /// differs, or "" when it is correct. Run after the op's timing stops,
  /// so the benchmark's own checking is never timed.
  std::function<std::string()> check;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the input pool and the expected outputs (timed as setup_s).
  virtual void setup() = 0;
  /// Runs op `i` through the public entry points. With a tracer, spans
  /// wrap the entry calls (meters are decorated).
  virtual OpOutcome run_op(std::size_t i, Tracer* tracer) = 0;
  /// Traced run only: replays op `i`'s layer calls one by one, each a span
  /// under a root span of the replay's own. Returns false when the replay
  /// disagrees with the op's output.
  virtual bool replay(std::size_t i, Tracer& tracer) = 0;
  /// Untimed clean-up after op `i` (and its replay).
  virtual void finish_op(std::size_t /*i*/) {}
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Context& ctx);

/// Flips one byte inside a point record of the first cache shard under
/// `cache_dir` (self-test of the cache_warm output check).
void corrupt_cache_shard(const std::string& cache_dir);
/// The warm cache directory of a cache_warm workload's context.
[[nodiscard]] std::string warm_cache_dir(const Context& ctx);

}  // namespace perfbench
