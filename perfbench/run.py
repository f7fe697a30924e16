#!/usr/bin/env python3
"""Runs one workload of the sage_perf benchmark and prints its result.

    python3 perfbench/run.py --workload analytics|cold-open|serve \
        --seed N --seconds T --trace 0|1

Run from the root of the repository. The first run builds the library and
the benchmark from source into .bench_build/ (or $CARGO_TARGET_DIR); every
run then generates the workload's inputs from the seed (untimed), runs
them, and prints one JSON line as the last line of standard output:

    {"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}

With --trace 1 the per-layer metrics are printed instead of the end-to-end
ones, and the spans are written to .bench_build/traces/. The exit code is
0 only when every operation succeeded and every output check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("analytics", "cold-open", "serve")
# A run must end within 180 s; the first one may also build.
RUN_LIMIT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_root):
    """Configures (once) and builds sage_perf; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sage_perf")


def manifest_metrics(bench_dir, trace):
    """The metric names BENCHMARK.json requires for this mode, or None."""
    spec_path = os.path.join(bench_dir, "..", "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("bfs-parent", "cc-label"),
                        help="checker self-test: corrupt one output")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        log("the library sources (src/) are not beside perfbench/")
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(bench_dir, build_root)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1

    start = time.monotonic()
    data = os.path.join(build_root, "data", args.workload)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data]
    try:
        subprocess.run([binary, "gen"] + common, check=True,
                       stdout=sys.stderr, timeout=RUN_LIMIT_S)
        cmd = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.CalledProcessError as err:
        log(f"input generation failed: {err}")
        return 1
    except subprocess.TimeoutExpired:
        log(f"the run did not end within {RUN_LIMIT_S} s")
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"sage_perf printed no result (exit code {proc.returncode})")
        return 1
    # Every workload must carry exactly the manifest's metrics for its mode.
    want = manifest_metrics(bench_dir, args.trace)
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if want is not None and got != want:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, unexpected "
            f"{sorted(set(got) - set(want))}, unit changed "
            f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
