#include "serve/supervisor.h"

#include <csignal>
#include <ctime>
#include <filesystem>
#include <memory>
#include <utility>

#include "util/error.h"
#include "util/log.h"
#include "util/subprocess.h"

namespace tgi::serve {

namespace {

/// One supervision poll tick: 2 ms of nanosleep. Counting ticks is the
/// watchdog's only notion of time — it never reads a clock, and nothing
/// deterministic depends on how long a tick really took.
void sleep_poll_tick() {
  struct timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = 2'000'000;
  ::nanosleep(&ts, nullptr);
}

/// Journal size in bytes; 0 while the worker has not created it yet.
std::uintmax_t journal_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Everything the poll loop tracks for one live shard.
struct ShardState {
  const ShardJob* job = nullptr;
  SupervisedShard result;
  std::size_t attempt = 0;  ///< 1-based; 0 = not yet spawned
  std::unique_ptr<util::Subprocess> child;
  std::string attempt_dir;
  std::uintmax_t last_size = 0;
  std::size_t stalled_polls = 0;
  std::size_t grace_polls = 0;
  bool escalating = false;  ///< SIGTERM sent, counting down to SIGKILL
  bool hung = false;        ///< this attempt tripped the watchdog
  bool done = false;
};

std::vector<std::size_t> missing_indices(const ShardState& state) {
  std::vector<std::size_t> remaining;
  for (const std::size_t index : state.job->indices) {
    if (state.result.records.find(index) == state.result.records.end()) {
      remaining.push_back(index);
    }
  }
  return remaining;
}

void spawn_attempt(ShardState& state) {
  ++state.attempt;
  state.attempt_dir =
      state.job->dir + "/attempt" + std::to_string(state.attempt);
  std::filesystem::create_directories(state.attempt_dir);
  util::SubprocessOptions options;
  options.stdout_path = state.attempt_dir + "/worker.out";
  options.stderr_path = state.attempt_dir + "/worker.err";
  options.extra_env.push_back("TGI_SERVE_WORKER_ATTEMPT=" +
                              std::to_string(state.attempt));
  std::vector<std::string> argv = state.job->argv(
      missing_indices(state), state.attempt_dir, state.attempt);
  state.child =
      std::make_unique<util::Subprocess>(std::move(argv), std::move(options));
  state.last_size = 0;
  state.stalled_polls = 0;
  state.grace_polls = 0;
  state.escalating = false;
  state.hung = false;
}

}  // namespace

const char* outcome_name(ShardOutcome outcome) {
  switch (outcome) {
    case ShardOutcome::kClean:
      return "clean";
    case ShardOutcome::kSignal:
      return "signal";
    case ShardOutcome::kNonzero:
      return "nonzero";
    case ShardOutcome::kHung:
      return "hung";
    case ShardOutcome::kQuarantined:
      return "quarantined";
  }
  return "clean";
}

void SupervisorConfig::validate() const {
  TGI_REQUIRE(max_restarts <= 16,
              "supervisor restart budget must be in [0, 16], got "
                  << max_restarts);
  TGI_REQUIRE(stall_polls >= 10 && stall_polls <= 1000000,
              "supervisor stall_polls must be in [10, 1000000], got "
                  << stall_polls);
  TGI_REQUIRE(grace_polls >= 1 && grace_polls <= 1000000,
              "supervisor grace_polls must be in [1, 1000000], got "
                  << grace_polls);
  TGI_REQUIRE(backoff_base.value() >= 0.0,
              "supervisor backoff_base must be >= 0");
}

Supervisor::Supervisor(SupervisorConfig config) : config_(config) {
  config_.validate();
}

std::vector<SupervisedShard> Supervisor::run(
    const std::vector<ShardJob>& jobs) {
  std::vector<ShardState> states(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    TGI_REQUIRE(!jobs[i].indices.empty(),
                "supervised shard " << jobs[i].shard << " has no indices");
    TGI_REQUIRE(jobs[i].argv && jobs[i].merge,
                "supervised shard needs argv and merge callbacks");
    states[i].job = &jobs[i];
    states[i].result.report.shard = jobs[i].shard;
    spawn_attempt(states[i]);
  }

  // Handles the end of one attempt: merge its journal, classify, and
  // either finish, restart over the missing suffix, or quarantine.
  const auto settle_attempt = [this](ShardState& state,
                                     const util::ExitStatus& status) {
    const ShardJob& job = *state.job;
    ShardAttempt attempt;
    attempt.attempt = state.attempt;

    std::size_t banked = 0;
    std::map<std::size_t, harness::PointRecord> records =
        job.merge(state.attempt_dir + "/journal.tgij");
    for (auto& [index, record] : records) {
      if (state.result.records.emplace(index, std::move(record)).second) {
        ++banked;
      }
    }
    attempt.banked = banked;
    const std::vector<std::size_t> remaining = missing_indices(state);

    if (state.hung) {
      attempt.outcome = ShardOutcome::kHung;
      attempt.detail = "no journal growth in " +
                       std::to_string(config_.stall_polls) +
                       " polls; killed (SIGTERM escalated to SIGKILL)";
      attempt.failed = true;
    } else if (!status.exited) {
      attempt.outcome = ShardOutcome::kSignal;
      attempt.detail = status.describe();
      attempt.failed = true;
    } else if (status.code != 0) {
      attempt.outcome = ShardOutcome::kNonzero;
      attempt.detail = status.describe();
      attempt.failed = true;
    } else if (!remaining.empty()) {
      // Trust is journal-driven, never exit-status-driven: a clean exit
      // that left points unjournaled is still a strike.
      attempt.outcome = ShardOutcome::kClean;
      attempt.detail = "clean exit but " + std::to_string(remaining.size()) +
                       " assigned points missing from the journal";
      attempt.failed = true;
    } else {
      attempt.outcome = ShardOutcome::kClean;
      attempt.detail = status.describe();
    }

    if (attempt.failed) {
      TGI_LOG_WARN("serve: worker shard "
                   << job.shard << " for " << job.label << " "
                   << (attempt.outcome == ShardOutcome::kHung
                           ? "hung (" + attempt.detail + ")"
                           : "died (" + attempt.detail + ")")
                   << "; merging its partial journal (stderr: "
                   << state.attempt_dir << "/worker.err)");
    }
    state.result.report.attempts.push_back(attempt);

    if (!attempt.failed) {
      state.result.report.outcome = ShardOutcome::kClean;
      state.done = true;
      return;
    }
    if (remaining.empty()) {
      // The attempt died AFTER journaling its last point: the shard owes
      // nothing, so a restart would supervise an empty assignment.
      state.result.report.outcome = ShardOutcome::kClean;
      state.done = true;
      return;
    }
    if (state.attempt > config_.max_restarts) {
      state.result.report.outcome = ShardOutcome::kQuarantined;
      state.done = true;
      TGI_LOG_WARN("serve: worker shard "
                   << job.shard << " for " << job.label
                   << " quarantined after " << state.attempt
                   << " attempt(s); its " << remaining.size()
                   << " point(s) still unjournaled");
      return;
    }
    // Accounted exponential backoff (never slept), RobustConfig's shape:
    // restart r charges base * 2^(r-1).
    const std::size_t restart = state.result.report.restarts + 1;
    const double charge =
        config_.backoff_base.value() *
        static_cast<double>(1ULL << (restart - 1));
    state.result.report.backoff =
        util::Seconds(state.result.report.backoff.value() + charge);
    state.result.report.restarts = restart;
    TGI_LOG_WARN("serve: worker shard "
                 << job.shard << " for " << job.label << " restarting (attempt "
                 << state.attempt + 1 << "/" << config_.max_restarts + 1
                 << ", backoff " << charge << "s accounted, "
                 << remaining.size() << " point(s) remaining)");
    spawn_attempt(state);
  };

  for (;;) {
    bool all_done = true;
    for (ShardState& state : states) {
      if (state.done) continue;
      all_done = false;

      const util::ExitStatus* status = state.child->try_wait();
      if (status != nullptr) {
        settle_attempt(state, *status);
        continue;
      }
      if (state.escalating) {
        if (++state.grace_polls > config_.grace_polls) {
          state.child->kill(SIGKILL);
        }
        continue;
      }
      // Progress watchdog: journal growth is the only progress signal.
      const std::uintmax_t size =
          journal_size(state.attempt_dir + "/journal.tgij");
      if (size > state.last_size) {
        state.last_size = size;
        state.stalled_polls = 0;
      } else if (++state.stalled_polls > config_.stall_polls) {
        state.hung = true;
        state.escalating = true;
        state.grace_polls = 0;
        state.child->kill(SIGTERM);
      }
    }
    if (all_done) break;
    sleep_poll_tick();
  }

  std::vector<SupervisedShard> results;
  results.reserve(states.size());
  for (ShardState& state : states) {
    results.push_back(std::move(state.result));
  }
  return results;
}

}  // namespace tgi::serve
