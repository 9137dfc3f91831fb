#include "util/subprocess.h"

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <utility>

#include "util/error.h"

namespace tgi::util {

namespace {

/// Opens `path` for truncating write and dup2s it onto `target_fd`.
/// Child-side only: failures _exit(127) because throwing across fork is
/// meaningless.
void redirect_or_die(const std::string& path, int target_fd) {
  if (path.empty()) return;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ::_exit(127);
  if (::dup2(fd, target_fd) < 0) ::_exit(127);
  ::close(fd);
}

/// One supervision poll tick: 2 ms of nanosleep. Deliberately NOT a clock
/// read — the destructor's grace period is counted in ticks, and nothing
/// deterministic ever depends on how long a tick really took.
void sleep_poll_tick() {
  struct timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = 2'000'000;
  ::nanosleep(&ts, nullptr);
}

/// SIGTERM → grace → SIGKILL ticks: ~0.5 s for a child that handles
/// SIGTERM promptly, bounded for one that ignores it.
constexpr int kDestructorGraceTicks = 250;

/// Decodes a raw waitpid status word.
ExitStatus decode_status(int raw) {
  ExitStatus status;
  if (WIFEXITED(raw)) {
    status.exited = true;
    status.code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status.exited = false;
    status.signal = WTERMSIG(raw);
  } else {
    status.exited = false;
    status.signal = 0;
  }
  return status;
}

}  // namespace

std::string ExitStatus::describe() const {
  if (exited) return "exit " + std::to_string(code);
  std::string text = "signal " + std::to_string(signal);
  const char* name = ::strsignal(signal);
  if (name != nullptr) text += std::string(" (") + name + ")";
  return text;
}

Subprocess::Subprocess(std::vector<std::string> argv,
                       SubprocessOptions options) {
  TGI_REQUIRE(!argv.empty(), "Subprocess needs a non-empty argv");
  const pid_t pid = ::fork();
  TGI_CHECK(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    // Child. Only async-signal-safe calls until exec; any failure exits
    // with the shell's conventional "command not found" code.
    redirect_or_die(options.stdout_path, STDOUT_FILENO);
    redirect_or_die(options.stderr_path, STDERR_FILENO);
    for (const std::string& entry : options.extra_env) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos) ::_exit(127);
      const std::string name = entry.substr(0, eq);
      const std::string value = entry.substr(eq + 1);
      if (::setenv(name.c_str(), value.c_str(), 1) != 0) ::_exit(127);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  pid_ = static_cast<long>(pid);
}

Subprocess::~Subprocess() {
  if (pid_ < 0 || waited_) return;
  // A destructor that blocks in wait() forever on a hung child wedges the
  // whole engine. Escalate instead: ask politely, give a bounded grace
  // period, then force the exit and reap.
  if (try_wait() != nullptr) return;
  kill(SIGTERM);
  for (int tick = 0; tick < kDestructorGraceTicks; ++tick) {
    if (try_wait() != nullptr) return;
    sleep_poll_tick();
  }
  kill(SIGKILL);
  wait();
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), waited_(other.waited_), status_(other.status_) {
  other.pid_ = -1;
  other.waited_ = true;
}

const ExitStatus& Subprocess::wait() {
  if (waited_) return status_;
  TGI_CHECK(pid_ >= 0, "wait on a moved-from Subprocess");
  int raw = 0;
  pid_t got = -1;
  do {
    got = ::waitpid(static_cast<pid_t>(pid_), &raw, 0);
  } while (got < 0 && errno == EINTR);
  TGI_CHECK(got == static_cast<pid_t>(pid_),
            "waitpid failed: " << std::strerror(errno));
  waited_ = true;
  status_ = decode_status(raw);
  return status_;
}

const ExitStatus* Subprocess::try_wait() {
  if (waited_) return &status_;
  TGI_CHECK(pid_ >= 0, "try_wait on a moved-from Subprocess");
  int raw = 0;
  pid_t got = -1;
  do {
    got = ::waitpid(static_cast<pid_t>(pid_), &raw, WNOHANG);
  } while (got < 0 && errno == EINTR);
  TGI_CHECK(got >= 0, "waitpid(WNOHANG) failed: " << std::strerror(errno));
  if (got == 0) return nullptr;  // still running
  waited_ = true;
  status_ = decode_status(raw);
  return &status_;
}

void Subprocess::kill(int sig) {
  if (waited_ || pid_ < 0) return;
  // ESRCH here means the child exited between our probe and the signal;
  // the next try_wait()/wait() reaps it. Any other failure is a caller
  // bug (bad signal number).
  if (::kill(static_cast<pid_t>(pid_), sig) != 0) {
    TGI_CHECK(errno == ESRCH,
              "kill(" << sig << ") failed: " << std::strerror(errno));
  }
}

ExitStatus run_process(std::vector<std::string> argv,
                       SubprocessOptions options) {
  Subprocess child(std::move(argv), std::move(options));
  return child.wait();
}

}  // namespace tgi::util
