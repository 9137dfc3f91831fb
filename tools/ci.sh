#!/usr/bin/env sh
# Canonical pre-merge gate for the TGI repository (recorded in ROADMAP.md).
#
# Every scenario check is a registered ctest (the CMake scripts under
# tools/ and the bench_* tests), so the three build trees run the same
# suite. Four stages, fail-fast:
#   1. tier-1: warning-clean RelWithDebInfo build + the full ctest suite.
#      Configuring runs the registration guard (top-level CMakeLists.txt):
#      a golden transcript or gate scenario without its registered test
#      fails here;
#   2. sanitize: ASan+UBSan build + ctest with halt-on-first-report
#      semantics (-fno-sanitize-recover=all);
#   3. tsan: ThreadSanitizer build + ctest — the thread pool, the parallel
#      sweep, the campaign engine and its worker processes run real
#      concurrency, so data races are a class of bug this repo can have;
#   4. bench: the timing checks perfbench cannot see, run by name (a
#      `[check] ... FAILED` line fails the exit code), then
#      `perfbench/run.py --selftest`, which checks the benchmark of
#      record's own instrument on its Release build under .bench_build/.
#
# Usage: tools/ci.sh [jobs]          (from the repo root)
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== [1/4] tier-1: build + ctest =="
# build/ may already be configured by the tier-1 verify command, with
# CMake's default generator; a different -G would stop the configure.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build -DTGI_WARNINGS_AS_ERRORS=ON
else
  cmake -B build -G Ninja -DTGI_WARNINGS_AS_ERRORS=ON
fi
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure

echo "== [2/4] sanitize: ASan+UBSan build + ctest =="
cmake -B build-asan -G Ninja -DTGI_SANITIZE="address;undefined" \
  -DTGI_WARNINGS_AS_ERRORS=ON
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure

echo "== [3/4] tsan: ThreadSanitizer build + ctest =="
cmake -B build-tsan -G Ninja -DTGI_SANITIZE=thread -DTGI_WARNINGS_AS_ERRORS=ON
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan -j "$JOBS" --output-on-failure

echo "== [4/4] bench: microbench checks + perfbench selftest =="
for bench in micro_kernels micro_parallel_sweep micro_substrate; do
  "build/bench/$bench"
done
python3 perfbench/run.py --selftest

echo "ci.sh: all gates passed"
