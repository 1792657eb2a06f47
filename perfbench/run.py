#!/usr/bin/env python3
"""perfbench: the ecopatch benchmark (README.md beside this file).

Run from the repository root:

    python3 perfbench/run.py --workload eco_batch --seed 1 --seconds 20 --trace 0

Builds the library and the runner from source into .bench_build/ (a no-op
once built), runs one workload, checks every output, and prints a summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 0 only when every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory unchanged
import stats  # noqa: E402

WORKLOADS = ("eco_batch", "service_warm", "service_cold", "cec_verify")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the runner; returns its path."""
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(BUILD_DIR, "perfbench_runner")


def git_stamp():
    """(commit, dirty) of the checkout, or ("unknown", None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                check=True).stdout
        return commit, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # The program reads its defaults (CEC backend, SAT heuristics, sim bank,
    # fault injection, ...) from ECO_* variables; a run under any of them
    # would measure another configuration.
    pinned = sorted(k for k in os.environ if k.startswith("ECO_"))
    if pinned:
        fail("refusing to run with %s set; unset it" % ", ".join(pinned))

    runner = build()
    work = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(work, "inputs"), "--out", raw_path]
    # Its own process group, so a timeout also stops isolated workers.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("runner exceeded %d s" % RUNNER_TIMEOUT_S, 4)
    if rc not in (0, 1) or not os.path.exists(raw_path):
        fail("runner exited with status %d" % rc, 4)
    with open(raw_path) as f:
        raw = json.load(f)

    attempted = len(raw["jobs"])
    ok = sum(1 for j in raw["jobs"] if j["ok"])
    if attempted == 0:
        fail("no job completed", 4)
    correct = rc == 0 and not raw["failures"] and ok == attempted

    if args.trace:
        metrics = stats.per_layer(raw)
        extra = {}
    else:
        metrics, extra = stats.end_to_end(raw)
    commit, dirty = git_stamp()
    report = {
        "schema": "perfbench-report-v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": raw["params"],
        "git_commit": commit,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": "Release",
        "setup_s_samples": raw["setup_s"],
        "failures": raw["failures"][:20],
        **extra,
    }
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
