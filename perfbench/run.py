#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is built from the checkout's sources (Release) under
.bench_build/ on first use; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is the run's result JSON. Every run
also leaves a versioned report (host facts included) and, for traced runs, the
span file under .bench_build/perfbench/reports/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_BASE = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_base):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "tgi_serve.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no TGI sources in " + ROOT + " (missing " + needed + ")")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_base, "perfbench", "cmake")
    if not os.path.isfile(os.path.join(ROOT, build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_checked(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", "tgi_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(ROOT, build_dir, "tgi_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bound(spec, name):
    for metric in spec["end_to_end"]:
        if metric["name"] == name:
            return metric["bound"]
    fail("BENCHMARK.json has no end-to-end metric " + name)
    return None


def check_contract(base_cmd, work, spec):
    """Short untraced and traced runs of every BENCHMARK.json workload must
    report exactly its end-to-end and per-layer metrics, with their units,
    and fail no op."""
    ok = True
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(
                base_cmd + ["--workload", workload["name"], "--seed", "1",
                            "--seconds", "0.5", "--trace", trace],
                work, capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            passed = got == want and result.get("failed") == 0
            ok = ok and passed
            print("[selftest] %s --trace %s reports the BENCHMARK.json %s "
                  "metrics with their units: %s"
                  % (workload["name"], trace, key, "OK" if passed else "FAILED"))
    return ok


def check_meter_doubling(result, spec):
    """The binary's self-test measured sweep_cold with a meter that measures
    twice; that must worsen the metric by more than its bound."""
    doubling = result["meter_doubling"]
    name = doubling["metric"]
    before, after = doubling["before"], doubling["after"]
    worse = after / before - 1.0 if before > 0 else 0.0
    passed = worse > bound(spec, name)
    print("[selftest] meter doubling raises sweep_cold %s by %.1f%% "
          "(bound %.0f%%): %s" % (name, worse * 100.0, bound(spec, name) * 100.0,
                                  "OK" if passed else "FAILED"))
    return passed


def run_binary(cmd, work, capture=False):
    """Runs the benchmark binary in its own process group, so a timeout also
    stops any worker it spawned; removes its work directory afterwards.
    Returns the exit code and, with `capture`, its stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    return proc.returncode, out or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    binary = build(BUILD_BASE)
    work = os.path.join(BUILD_BASE, "perfbench", "work", str(os.getpid()))
    cmd = [binary, "--root", ROOT, "--work", work,
           "--reports", os.path.join(BUILD_BASE, "perfbench", "reports")]
    if args.selftest:
        spec = load_spec()
        ok = check_contract(cmd, work, spec)
        code, out = run_binary(cmd + ["--selftest"], work, capture=True)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        ok = (ok and code == 0 and result.get("passed") is True
              and check_meter_doubling(result, spec))
        print("[selftest] " + ("all passed" if ok else "FAILED"))
        sys.exit(0 if ok else 1)
    code, _ = run_binary(cmd + ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", args.trace],
                         work)
    sys.exit(code)


if __name__ == "__main__":
    main()
