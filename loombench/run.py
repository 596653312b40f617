#!/usr/bin/env python3
"""Runs one loombench workload; call it from the root of a checkout.

    python3 loombench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 loombench/run.py --selftest

Builds loombench and loom_serve from the checkout's sources (Release) into
$CARGO_TARGET_DIR, default .bench_build, then runs the workload in a
scratch directory under it that is removed afterwards. Traced runs also
leave their spans in <build>/traces/. The last line of stdout is the result
JSON; the line before it holds the run's metadata. --selftest builds and
runs the benchmark's own unit tests instead.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
REQUIRED = ("src", "tools/loom_serve.cc", "loombench/CMakeLists.txt")


def log(msg):
    print(f"loombench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "loombench", "-B", build_dir, "-G",
                        "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        log("run from the root of a loom checkout; missing: " +
            ", ".join(missing))
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if args.selftest:
        build(build_dir, ["loombench_stats_test"])
        return subprocess.run(["ctest", "--test-dir", build_dir,
                               "--output-on-failure"],
                              stdout=sys.stderr).returncode
    if not args.workload:
        parser.error("--workload is required")

    build(build_dir, ["loombench", "loom_serve"])
    work = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "loombench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "loom_serve"),
           "--git-rev", git_rev(), "--trace-dir", traces]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last output line is not a result: " + lines[-1][:200])
        return 1
    declared = declared_metrics(args.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        log("metrics differ from BENCHMARK.json: " +
            str(sorted(set(result["metrics"]) ^ declared)))
        return 1
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f} s")
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
