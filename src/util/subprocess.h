// The sanctioned process-spawn primitive — util::Subprocess is to child
// processes what util::ThreadPool is to threads (DESIGN.md §15).
//
// Kept only because perfbench/ drives serve::Supervisor over it (ROADMAP
// item 1 removes it); nothing in the TGI pipeline spawns a process. While
// it exists, process creation stays concentrated here (lint rule
// raw-process-spawn). A spawned child gets an explicit argv, optional
// stdout/stderr redirection to files, and optional extra environment
// variables; the parent observes only the exit disposition. No shells, no
// PATH-dependent surprises beyond execvp's documented lookup, no inherited
// stream interleaving unless asked for.
#pragma once

#include <string>
#include <vector>

namespace tgi::util {

/// Exit disposition of a finished child process.
struct ExitStatus {
  bool exited = false;  ///< true: normal exit; false: killed by a signal
  int code = -1;        ///< exit code when `exited`
  int signal = 0;       ///< terminating signal when not `exited`

  [[nodiscard]] bool success() const { return exited && code == 0; }
  /// Human-readable summary, e.g. "exit 0" or "signal 9 (SIGKILL)".
  [[nodiscard]] std::string describe() const;
};

/// Spawn-time options.
struct SubprocessOptions {
  /// Redirect the child's stdout/stderr to these files (truncating).
  /// Empty = inherit the parent's stream.
  std::string stdout_path;
  std::string stderr_path;
  /// Extra `NAME=VALUE` environment entries set in the child on top of the
  /// inherited environment.
  std::vector<std::string> extra_env;
};

/// One child process: spawned on construction, supervisable afterwards.
/// wait() joins; try_wait() probes without blocking; kill() signals. The
/// destructor never blocks forever: an unreaped child is asked to exit
/// (SIGTERM), given a bounded grace period, then SIGKILLed and reaped — a
/// Subprocess can never outlive its handle unsupervised (mirror of
/// ThreadPool's join-on-destruction), and a hung child cannot wedge the
/// parent on the way out.
class Subprocess {
 public:
  /// Spawns `argv` (argv[0] is the executable; execvp lookup rules).
  /// Throws TgiError when the spawn itself fails. An exec failure inside
  /// the child surfaces as exit code 127.
  explicit Subprocess(std::vector<std::string> argv,
                      SubprocessOptions options = {});
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&&) = delete;

  /// Blocks until the child exits and returns its disposition. Idempotent.
  const ExitStatus& wait();

  /// Non-blocking probe: reaps and returns the disposition when the child
  /// has exited (idempotent afterwards), nullptr while it is still
  /// running. The supervision poll primitive — watchdogs call this between
  /// progress checks instead of blocking in wait().
  const ExitStatus* try_wait();

  /// Sends `sig` to the child. No-op once the child has been reaped (the
  /// pid may have been recycled); a signal racing the child's own exit is
  /// benign and ignored.
  void kill(int sig);

  [[nodiscard]] long pid() const { return pid_; }

 private:
  long pid_ = -1;
  bool waited_ = false;
  ExitStatus status_;
};

/// Convenience: spawn, wait, return the disposition.
[[nodiscard]] ExitStatus run_process(std::vector<std::string> argv,
                                     SubprocessOptions options = {});

}  // namespace tgi::util
