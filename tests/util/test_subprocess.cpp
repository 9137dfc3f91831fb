// util::Subprocess supervision surface: non-blocking try_wait(), kill(),
// and the destructor's SIGTERM→SIGKILL escalation — the regression that a
// hung, SIGTERM-immune child can no longer wedge the parent in ~Subprocess
// (DESIGN.md §15).
#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace tgi::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Subprocess, RunProcessReportsExitCode) {
  const ExitStatus ok = run_process({"/bin/sh", "-c", "exit 0"});
  EXPECT_TRUE(ok.exited);
  EXPECT_TRUE(ok.success());
  EXPECT_EQ(ok.code, 0);
  EXPECT_EQ(ok.describe(), "exit 0");

  const ExitStatus fail = run_process({"/bin/sh", "-c", "exit 7"});
  EXPECT_TRUE(fail.exited);
  EXPECT_FALSE(fail.success());
  EXPECT_EQ(fail.code, 7);
}

TEST(Subprocess, ExecFailureSurfacesAs127) {
  const ExitStatus status =
      run_process({"/no/such/executable/anywhere-tgi-test"});
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 127);
}

TEST(Subprocess, TryWaitProbesWithoutBlockingAndIsIdempotent) {
  Subprocess child({"/bin/sh", "-c", "sleep 0.2; exit 5"});
  // May legitimately still be running on the first probes.
  const ExitStatus* status = child.try_wait();
  while (status == nullptr) status = child.try_wait();
  EXPECT_TRUE(status->exited);
  EXPECT_EQ(status->code, 5);
  // Idempotent after reaping — same disposition, no blocking.
  const ExitStatus* again = child.try_wait();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->code, 5);
  EXPECT_EQ(child.wait().code, 5);
}

TEST(Subprocess, KillTerminatesAndWaitReportsTheSignal) {
  Subprocess child({"/bin/sh", "-c", "sleep 30"});
  child.kill(SIGKILL);
  const ExitStatus& status = child.wait();
  EXPECT_FALSE(status.exited);
  EXPECT_EQ(status.signal, SIGKILL);
  EXPECT_NE(status.describe().find("signal 9"), std::string::npos)
      << status.describe();
  // Signaling after the reap is a documented no-op (pid may be recycled).
  child.kill(SIGTERM);
}

TEST(Subprocess, DestructorReapsACleanChild) {
  { Subprocess child({"/bin/sh", "-c", "exit 0"}); }
  // Nothing to assert beyond "returned": the destructor must reap.
}

TEST(Subprocess, DestructorEscalatesPastASigtermImmuneChild) {
  // Regression: the old destructor blocked forever in wait() on a hung
  // child. A SIGTERM-immune sleeper must be SIGKILLed within the bounded
  // grace window — this test HANGS under the old behavior.
  {
    Subprocess child(
        {"/bin/sh", "-c", "trap '' TERM; while :; do sleep 0.05; done"});
    // Give the shell a moment to install its trap, then destroy.
    (void)child.try_wait();
  }
}

TEST(Subprocess, RedirectsStdoutStderrAndInjectsEnv) {
  const fs::path root =
      fs::temp_directory_path() / "tgi_subprocess_test_redirect";
  fs::remove_all(root);
  fs::create_directories(root);
  SubprocessOptions options;
  options.stdout_path = (root / "out.txt").string();
  options.stderr_path = (root / "err.txt").string();
  options.extra_env.push_back("TGI_SUBPROCESS_TEST_VAR=forty-two");
  const ExitStatus status = run_process(
      {"/bin/sh", "-c", "echo \"got $TGI_SUBPROCESS_TEST_VAR\"; echo oops >&2"},
      options);
  EXPECT_TRUE(status.success());
  EXPECT_EQ(slurp(options.stdout_path), "got forty-two\n");
  EXPECT_EQ(slurp(options.stderr_path), "oops\n");
  fs::remove_all(root);
}

}  // namespace
}  // namespace tgi::util
