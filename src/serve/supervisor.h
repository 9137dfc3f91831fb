// serve::Supervisor — deterministic worker-process supervision
// (DESIGN.md §15).
//
// Kept only because perfbench/ drives it: its traced sweep_cold replays a
// two-shard `tgi_serve --worker` sweep under it (ROADMAP item 1 removes
// it). The campaign engine computes in-process and never spawns a worker.
//
//   - progress watchdog: a shard counts as hung after `stall_polls`
//     supervision polls with NO growth of its journal file — ticks without
//     a journaled byte, never a wall-clock read;
//   - escalation: a hung worker gets SIGTERM, `grace_polls` ticks to
//     comply, then SIGKILL;
//   - bounded restarts: every failed attempt (signal, nonzero exit, hang,
//     or a clean exit that left points unjournaled — trust is
//     journal-driven, never exit-status-driven) is a strike. Up to
//     `max_restarts` restarts recompute ONLY the still-missing indices;
//     each restart charges accounted (never slept) exponential backoff,
//     base * 2^(r-1), mirroring RobustConfig;
//   - crash-loop quarantine: a shard that exhausts its budget is
//     quarantined, and what it still owes is left to the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "util/units.h"

namespace tgi::serve {

/// Supervision policy knobs.
struct SupervisorConfig {
  /// Restarts per shard after the first attempt (attempts = 1 + this).
  std::size_t max_restarts = 2;
  /// Supervision polls (~2 ms apart) without journal growth before a
  /// live worker counts as hung. Progress-based, not wall-clock: a slow
  /// but journaling worker never trips it.
  std::size_t stall_polls = 15000;
  /// Polls between SIGTERM and SIGKILL for a hung worker.
  std::size_t grace_polls = 250;
  /// Accounted exponential backoff per restart: base * 2^(r-1), charged
  /// to the shard's account, never slept (mirrors RobustConfig).
  util::Seconds backoff_base{5.0};

  void validate() const;
};

/// How one attempt (or the whole shard) ended.
enum class ShardOutcome {
  kClean,        ///< exit 0 with every assigned point journaled
  kSignal,       ///< killed by a signal
  kNonzero,      ///< exited with a nonzero code
  kHung,         ///< stalled past the watchdog; SIGTERM→SIGKILL escalation
  kQuarantined,  ///< restart budget exhausted
};

[[nodiscard]] const char* outcome_name(ShardOutcome outcome);

/// One spawn of one shard's worker.
struct ShardAttempt {
  std::size_t attempt = 0;  ///< 1-based
  ShardOutcome outcome = ShardOutcome::kClean;
  std::string detail;      ///< ExitStatus::describe() / stall description
  std::size_t banked = 0;  ///< records this attempt's journal contributed
  bool failed = false;     ///< counted as a strike
};

/// The supervision record for one shard — the taxonomy its caller reads.
struct ShardReport {
  std::size_t shard = 0;
  std::vector<ShardAttempt> attempts;
  ShardOutcome outcome = ShardOutcome::kClean;
  std::size_t restarts = 0;
  util::Seconds backoff{0.0};  ///< accounted, never slept

  [[nodiscard]] bool quarantined() const {
    return outcome == ShardOutcome::kQuarantined;
  }
};

/// One shard's work order. The supervisor owns attempt directories
/// (`dir`/attempt<k>, journal + worker.out/err inside) and re-invokes
/// `argv` over the still-missing indices on each restart.
struct ShardJob {
  std::size_t shard = 0;
  std::string label;  ///< for log lines, e.g. "[alpha]"
  /// Global sweep indices assigned to this shard (strictly increasing).
  std::vector<std::size_t> indices;
  /// Scratch root for this shard's attempt directories.
  std::string dir;
  /// Builds the worker argv for one attempt over `remaining` indices,
  /// journaling into `journal_dir`. The supervisor additionally exports
  /// TGI_SERVE_WORKER_ATTEMPT=<attempt> to the child.
  std::function<std::vector<std::string>(
      const std::vector<std::size_t>& remaining,
      const std::string& journal_dir, std::size_t attempt)>
      argv;
  /// Reads + reconciles one attempt's journal, returning its valid
  /// records (damage is the callee's to count and WARN about).
  std::function<std::map<std::size_t, harness::PointRecord>(
      const std::string& journal_path)>
      merge;
};

/// One supervised shard's outcome: every banked record (attempts merged
/// in attempt order — deterministic, and immaterial to bytes since a
/// point's record is identical whichever attempt computed it) plus the
/// taxonomy report.
struct SupervisedShard {
  std::map<std::size_t, harness::PointRecord> records;
  ShardReport report;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);

  /// Runs every job's worker concurrently, supervising all of them in one
  /// poll loop, until each shard either journals its full assignment or
  /// is quarantined. Results are indexed like `jobs`; the caller folds
  /// records in fixed shard order.
  [[nodiscard]] std::vector<SupervisedShard> run(
      const std::vector<ShardJob>& jobs);

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }

 private:
  SupervisorConfig config_;
};

}  // namespace tgi::serve
