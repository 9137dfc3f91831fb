#!/usr/bin/env sh
# Canonical pre-merge gate for the TGI repository (recorded in ROADMAP.md).
#
# Eleven stages, fail-fast:
#   1. tier-1: warning-clean RelWithDebInfo build + full ctest suite
#      (includes the lint_repo convention check, the paper-shape
#      integration tests, and the parallel-sweep determinism tests);
#   2. lint: the tgi-lint static analyzer over the whole tree — per-file
#      rules, the include-graph layering/cycle passes, and the waiver
#      audit — explicitly, so a broken test harness cannot mask a
#      convention regression; the machine-readable report lands in
#      build/lint.json;
#   3. golden: byte-diff every figure/table harness transcript against
#      tests/data/golden/, explicitly, so silent figure drift fails even
#      if CTest discovery ever loses the golden_* tests;
#   4. sanitize: ASan+UBSan configure/build/test cycle with
#      halt-on-first-report semantics (-fno-sanitize-recover=all);
#   5. tsan: ThreadSanitizer cycle over the same suite — the ThreadPool /
#      ParallelSweep layer runs real threads, so data races are now a
#      class of bug this repo can have; TSan keeps it empty;
#   6. tsan-faults: the fault-injection ablation on the TSan build with
#      threads=8 — the FaultyMeter/RobustSuiteRunner stack under real
#      concurrency, with the fault plane actually firing;
#   7. tsan-trace: a traced + profiled faulted sweep on the TSan build at
#      every thread count — the observability plane (DESIGN.md §10) under
#      real concurrency — then a byte-diff proving trace.json/metrics.csv
#      are thread-count invariant (profile.json is wall clock and exempt);
#   8. tsan-resume: crash tolerance (DESIGN.md §11) under TSan — a traced
#      faulted checkpointed sweep is SIGKILLed partway, then resumed at a
#      different thread count and byte-diffed against an uninterrupted
#      run, and its completed journal must equal an uninterrupted run's;
#      then tools/checkpoint_check.cmake runs against the TSan binary (torn
#      and corrupted journals quarantined and resumed at threads=1/4/8,
#      byte-identically, each completed journal equal to the full run's);
#   9. tsan-serve: the campaign engine + result cache (DESIGN.md §13)
#      under TSan — a cold faulted traced campaign (worker processes),
#      warm reruns at different worker/thread counts byte-diffed against
#      it with computed=0 (a cache hit is a byte-identical no-op), a
#      SIGKILLed worker shard whose partial journal is banked and healed
#      in-process, again byte-identically, and two concurrent campaigns
#      racing on one fresh cache, both exiting 0 with identical bytes;
#  10. bench-trajectory: every bench/micro_* microbench runs and drops its
#      BENCH_*.json into build/bench_trajectory/ (out=PATH);
#      a microbench without its JSON emitter, or one printing a
#      `[check] ... FAILED` line (nonzero exit), fails the gate, and
#      BENCH_kernels.json must record the >= 1.5x kernel-lane speedup
#      ("speedup_ok": true) from the DESIGN.md §14 SIMD pass; then
#      `perfbench/run.py --selftest` checks the benchmark of record's own
#      instrument (both gated workloads report every BENCHMARK.json metric
#      with 0 failed ops, a corrupted warm cache counts a failed op, and a
#      doubled meter cost shows up in sweep_cold) on its Release build
#      under .bench_build/;
#  11. tsan-supervise: the worker supervisor + process/I-O fault plane
#      (DESIGN.md §15) under TSan — a fault-free campaign baseline, then a
#      hung worker (progress-watchdog SIGTERM->SIGKILL), a zero-progress
#      crash loop (quarantine + in-process heal), an I/O-faulted worker
#      that restarts past the fault, and a garbage journal tail (torn
#      record quarantined); every scenario byte-diffed against the
#      baseline with a warm rerun at computed=0, plus the
#      bench/ablation_supervisor byte-identity harness.
#
# Usage: [TGI_DTYPE=float] tools/ci.sh [jobs]          (from the repo root)
#
# TGI_DTYPE (default double) selects the kernel-lane precision toggle
# (DESIGN.md §14) and is plumbed into all three build trees. Goldens are
# pinned on the default double build; both configurations must pass.
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
DTYPE="${TGI_DTYPE:-double}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== [1/11] tier-1: build + ctest (TGI_DTYPE=$DTYPE) =="
cmake -B build -G Ninja -DTGI_WARNINGS_AS_ERRORS=ON -DTGI_DTYPE="$DTYPE"
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure

echo "== [2/11] lint: tgi-lint convention analyzer + waiver audit =="
./build/tools/tgi_lint root="$ROOT" audit_waivers=1 out=build/lint.json

echo "== [3/11] golden: figure/table transcripts byte-identical =="
ctest --test-dir build -j "$JOBS" --output-on-failure -R '^golden_'

echo "== [4/11] sanitize: ASan+UBSan build + ctest =="
cmake -B build-asan -G Ninja -DTGI_SANITIZE="address;undefined" \
  -DTGI_WARNINGS_AS_ERRORS=ON -DTGI_DTYPE="$DTYPE"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure

echo "== [5/11] tsan: ThreadSanitizer build + ctest =="
cmake -B build-tsan -G Ninja -DTGI_SANITIZE=thread \
  -DTGI_WARNINGS_AS_ERRORS=ON -DTGI_DTYPE="$DTYPE"
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan -j "$JOBS" --output-on-failure

echo "== [6/11] tsan-faults: fault plane under ThreadSanitizer =="
./build-tsan/bench/ablation_faults threads=8

echo "== [7/11] tsan-trace: traced faulted sweep under TSan, thread-count diff =="
TRACE_SCRATCH="build-tsan/trace_gate"
rm -rf "$TRACE_SCRATCH"
for t in 1 2 8; do
  ./build-tsan/tools/tgi_sweep threads="$t" \
    --faults dropout=0.2,failure=0.1,timeout=0.05,truncation=0.05 \
    sweep=16,48,80 seed=7 outdir="$TRACE_SCRATCH/results_t$t" \
    trace="$TRACE_SCRATCH/trace_t$t" profile="$TRACE_SCRATCH/profile_t$t" \
    > /dev/null
done
for t in 2 8; do
  cmp "$TRACE_SCRATCH/trace_t1/trace.json" \
      "$TRACE_SCRATCH/trace_t$t/trace.json"
  cmp "$TRACE_SCRATCH/trace_t1/metrics.csv" \
      "$TRACE_SCRATCH/trace_t$t/metrics.csv"
  cmp "$TRACE_SCRATCH/results_t1/faults_summary.csv" \
      "$TRACE_SCRATCH/results_t$t/faults_summary.csv"
done

echo "== [8/11] tsan-resume: SIGKILLed checkpointed sweep resumes byte-identically =="
CKPT_SCRATCH="build-tsan/checkpoint_gate"
rm -rf "$CKPT_SCRATCH"
mkdir -p "$CKPT_SCRATCH"
CKPT_ARGS="sweep=16,48,80,128 seed=7"
CKPT_FAULTS="dropout=0.2,failure=0.1,timeout=0.05,truncation=0.05"
# Uninterrupted truth (threads=2, traced, faulted). The outdir name
# appears in stdout's "wrote ..." lines, so it is normalized to OUT;
# everything else must match byte for byte.
./build-tsan/tools/tgi_sweep $CKPT_ARGS threads=2 --faults "$CKPT_FAULTS" \
  outdir="$CKPT_SCRATCH/base" trace="$CKPT_SCRATCH/base_trace" \
  | sed "s|$CKPT_SCRATCH/base|OUT|g" > "$CKPT_SCRATCH/base.stdout"
# Variant A: real SIGKILL partway through a checkpointed run (threads=1 so
# the journal grows record by record), then resume at threads=8.
./build-tsan/tools/tgi_sweep $CKPT_ARGS threads=1 --faults "$CKPT_FAULTS" \
  outdir="$CKPT_SCRATCH/killed" trace="$CKPT_SCRATCH/killed_trace" \
  --checkpoint "$CKPT_SCRATCH/ckpt_kill" > /dev/null &
KILL_PID=$!
# Wait until at least one point record is journaled, then kill -9.
JOURNAL="$CKPT_SCRATCH/ckpt_kill/journal.tgij"
i=0
while [ "$i" -lt 600 ]; do
  if [ -f "$JOURNAL" ] && grep -q '^TGIJ1 point' "$JOURNAL" 2>/dev/null; then
    break
  fi
  i=$((i + 1))
  sleep 0.1
done
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
./build-tsan/tools/tgi_sweep $CKPT_ARGS threads=8 --faults "$CKPT_FAULTS" \
  outdir="$CKPT_SCRATCH/resumed" trace="$CKPT_SCRATCH/resumed_trace" \
  --checkpoint "$CKPT_SCRATCH/ckpt_kill" --resume \
  | sed "s|$CKPT_SCRATCH/resumed|OUT|g" > "$CKPT_SCRATCH/resumed.stdout"
cmp "$CKPT_SCRATCH/base.stdout" "$CKPT_SCRATCH/resumed.stdout"
cmp "$CKPT_SCRATCH/base/faults_summary.csv" \
    "$CKPT_SCRATCH/resumed/faults_summary.csv"
cmp "$CKPT_SCRATCH/base_trace/trace.json" \
    "$CKPT_SCRATCH/resumed_trace/trace.json"
cmp "$CKPT_SCRATCH/base_trace/metrics.csv" \
    "$CKPT_SCRATCH/resumed_trace/metrics.csv"
# Torn and corrupted journals resumed at threads=1/4/8 through the CLI
# (tools/checkpoint_check.cmake, same spec as above): each resume is
# byte-identical to its baseline and leaves the full run's journal, which
# the SIGKILLed-and-resumed run above must also have published.
cmake -DTGI_SWEEP="$PWD/build-tsan/tools/tgi_sweep" \
  -DOUT="$PWD/$CKPT_SCRATCH/cli" -DFAULTS="$CKPT_FAULTS" \
  -P tools/checkpoint_check.cmake
cmp "$CKPT_SCRATCH/ckpt_kill/journal.tgij" \
    "$CKPT_SCRATCH/cli/ckpt_full/journal.tgij"

echo "== [9/11] tsan-serve: campaign cache — warm rerun is a byte-identical no-op =="
SERVE_SCRATCH="build-tsan/serve_gate"
rm -rf "$SERVE_SCRATCH"
mkdir -p "$SERVE_SCRATCH"
SERVE_FAULTS="dropout=0.2,failure=0.1,timeout=0.05,truncation=0.05"
cat > "$SERVE_SCRATCH/campaign.conf" <<EOF
[alpha]
cluster = fire
sweep = 16,48,80
seed = 7
meter = wattsup
faults = $SERVE_FAULTS

[beta]
cluster = fire
sweep = 16,48
seed = 7
meter = wattsup
granularity = point
faults = $SERVE_FAULTS
EOF
# Cold campaign (worker processes, traced): every sweep point and alpha's
# reference computed once; beta's identical SystemG reference is already a
# cross-entry cache hit within the same run.
./build-tsan/tools/tgi_serve campaign="$SERVE_SCRATCH/campaign.conf" \
  cache="$SERVE_SCRATCH/cache" outdir="$SERVE_SCRATCH/cold" \
  workers=2 threads=2 trace=1 \
  > "$SERVE_SCRATCH/cold.stdout" 2> "$SERVE_SCRATCH/cold.stderr"
grep -qF "hits=1 computed=6" "$SERVE_SCRATCH/cold.stderr"
grep -qF "worker_failures=0" "$SERVE_SCRATCH/cold.stderr"
# Warm reruns: zero recomputation; stdout and every artifact byte-identical
# at different worker and thread counts (provenance.json records the
# cache-hit stats of THIS run and is the one exempt file).
for wt in 0:1 4:8; do
  W="${wt%:*}"
  T="${wt#*:}"
  WARM="$SERVE_SCRATCH/warm_w${W}_t${T}"
  ./build-tsan/tools/tgi_serve campaign="$SERVE_SCRATCH/campaign.conf" \
    cache="$SERVE_SCRATCH/cache" outdir="$WARM" \
    workers="$W" threads="$T" trace=1 \
    > "$WARM.stdout" 2> "$WARM.stderr"
  grep -qF " computed=0" "$WARM.stderr"
  cmp "$SERVE_SCRATCH/cold.stdout" "$WARM.stdout"
  diff -r -x provenance.json "$SERVE_SCRATCH/cold" "$WARM"
done
# Worker kill self-heal: fresh cache; shard 0 of each entry is SIGKILLed
# after one journaled point. The engine banks the partial journal,
# recomputes the remainder in-process, and stays byte-identical.
TGI_SERVE_WORKER_DIE_AFTER=0:1 ./build-tsan/tools/tgi_serve \
  campaign="$SERVE_SCRATCH/campaign.conf" \
  cache="$SERVE_SCRATCH/cache_killed" outdir="$SERVE_SCRATCH/killed" \
  workers=2 threads=2 trace=1 \
  > "$SERVE_SCRATCH/killed.stdout" 2> "$SERVE_SCRATCH/killed.stderr"
grep -qF "died (signal 9" "$SERVE_SCRATCH/killed.stderr"
grep -qF "merging its partial journal" "$SERVE_SCRATCH/killed.stderr"
cmp "$SERVE_SCRATCH/cold.stdout" "$SERVE_SCRATCH/killed.stdout"
diff -r -x provenance.json "$SERVE_SCRATCH/cold" "$SERVE_SCRATCH/killed"
# Two concurrent campaigns on one fresh cache: each run stages in its own
# scratch directory and temp files, so both exit 0 with the cold bytes.
for r in 1 2; do
  ./build-tsan/tools/tgi_serve campaign="$SERVE_SCRATCH/campaign.conf" \
    cache="$SERVE_SCRATCH/cache_race" outdir="$SERVE_SCRATCH/race$r" \
    workers=0 threads=2 trace=1 \
    > "$SERVE_SCRATCH/race$r.stdout" 2> "$SERVE_SCRATCH/race$r.stderr" &
  eval "RACE_PID$r=\$!"
done
wait "$RACE_PID1"
wait "$RACE_PID2"
for r in 1 2; do
  cmp "$SERVE_SCRATCH/cold.stdout" "$SERVE_SCRATCH/race$r.stdout"
  diff -r -x provenance.json "$SERVE_SCRATCH/cold" "$SERVE_SCRATCH/race$r"
done

echo "== [10/11] bench-trajectory: every microbench emits its BENCH_*.json; perfbench selftest =="
TRAJ="build/bench_trajectory"
rm -rf "$TRAJ"
mkdir -p "$TRAJ"
for bin in build/bench/micro_*; do
  name="${bin##*/micro_}"
  "$bin" out="$TRAJ/BENCH_$name.json" > /dev/null
  if ! [ -s "$TRAJ/BENCH_$name.json" ]; then
    echo "ci.sh: micro_$name did not emit BENCH_$name.json" >&2
    exit 1
  fi
done
# The §14 SIMD pass must keep its recorded lane speedup.
grep -qF '"speedup_ok": true' "$TRAJ/BENCH_kernels.json"
# The benchmark of record must still see what it claims to measure.
python3 perfbench/run.py --selftest

echo "== [11/11] tsan-supervise: worker supervisor + process/I-O fault plane =="
SUP_SCRATCH="build-tsan/supervise_gate"
rm -rf "$SUP_SCRATCH"
mkdir -p "$SUP_SCRATCH"
cat > "$SUP_SCRATCH/campaign.conf" <<EOF
[alpha]
cluster = fire
sweep = 16,48,80
seed = 7
meter = wattsup
EOF
# Fault-free truth: 3 points across 2 worker shards, so shard 0 holds a
# genuine suffix ({0,2}) for the restart scenarios to recompute.
# stall_polls=2000 keeps the hung-worker watchdog deadline a few seconds
# under TSan; it never appears in stdout, so the baseline stays valid for
# every scenario diff.
./build-tsan/tools/tgi_serve campaign="$SUP_SCRATCH/campaign.conf" \
  cache="$SUP_SCRATCH/cache_base" outdir="$SUP_SCRATCH/base" \
  workers=2 threads=2 stall_polls=2000 \
  > "$SUP_SCRATCH/base.stdout" 2> "$SUP_SCRATCH/base.stderr"
grep -qF "worker_failures=0" "$SUP_SCRATCH/base.stderr"
# Each scenario: fresh cache, one armed fault hook, the expected taxonomy
# line on stderr — and stdout + every artifact byte-identical to the
# fault-free truth, with the warm rerun over the healed cache a no-op.
#   hang:    worker stops journaling -> progress watchdog, SIGTERM->SIGKILL
#   ioloop:  every attempt's journal write faults -> zero-progress crash
#            loop -> quarantine + in-process heal
#   ioonce:  only attempt 1 faults -> one restart self-heals
#   garbage: torn journal tail + clean exit -> journal-driven strike
for scenario in \
  "hang:TGI_SERVE_WORKER_HANG_AFTER=0:1:hung (no journal growth" \
  "ioloop:TGI_SERVE_WORKER_IO_FAULTS=0:1.0:99:quarantined after" \
  "ioonce:TGI_SERVE_WORKER_IO_FAULTS=0:1.0:1:restarting (attempt 2" \
  "garbage:TGI_SERVE_WORKER_GARBAGE_TAIL=0:1:clean exit but"; do
  NAME="${scenario%%:*}"
  REST="${scenario#*:}"
  HOOK="${REST%%=*}"
  REST="${REST#*=}"
  VALUE=$(printf '%s' "$REST" | sed 's/:[^:]*$//')
  WANT="${REST##*:}"
  env "$HOOK=$VALUE" ./build-tsan/tools/tgi_serve \
    campaign="$SUP_SCRATCH/campaign.conf" \
    cache="$SUP_SCRATCH/cache_$NAME" outdir="$SUP_SCRATCH/$NAME" \
    workers=2 threads=2 stall_polls=2000 \
    > "$SUP_SCRATCH/$NAME.stdout" 2> "$SUP_SCRATCH/$NAME.stderr"
  grep -qF "$WANT" "$SUP_SCRATCH/$NAME.stderr"
  cmp "$SUP_SCRATCH/base.stdout" "$SUP_SCRATCH/$NAME.stdout"
  diff -r -x provenance.json "$SUP_SCRATCH/base" "$SUP_SCRATCH/$NAME"
  ./build-tsan/tools/tgi_serve campaign="$SUP_SCRATCH/campaign.conf" \
    cache="$SUP_SCRATCH/cache_$NAME" outdir="$SUP_SCRATCH/warm_$NAME" \
    workers=0 threads=1 stall_polls=2000 \
    > "$SUP_SCRATCH/warm_$NAME.stdout" 2> "$SUP_SCRATCH/warm_$NAME.stderr"
  grep -qF " computed=0" "$SUP_SCRATCH/warm_$NAME.stderr"
  cmp "$SUP_SCRATCH/base.stdout" "$SUP_SCRATCH/warm_$NAME.stdout"
done
# The supervision ablation harness: supervised-vs-unsupervised byte
# identity plus the accounted (never slept) restart overhead table.
./build-tsan/bench/ablation_supervisor

echo "ci.sh: all gates passed"
