#!/usr/bin/env python3
"""Simulator benchmark: builds the perfbench package and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. Workloads: walk-heavy, tlb-resident,
churn-fault, study-grid (see BENCHMARK.json for why each exists). The
program is built from source with cargo into $CARGO_TARGET_DIR
(default .bench_build) and runs in its own process. The last stdout line
is the result JSON ({"correct", "attempted", "failed", "metrics"}); the
line before it is the run's record: nproc, rustc version, git revision,
load average at start and end, passes, per-cell digests and failures.
With --trace 1 the spans of the first traced pass are written to
$CARGO_TARGET_DIR/perfbench-spans/. Usage errors exit 2; a failed build
or run exits 1 without a result line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["walk-heavy", "tlb-resident", "churn-fault", "study-grid"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary runs for --seconds plus its minimum passes; this caps a hang.
RUN_TIMEOUT_S = 175


def seed(text):
    if not text.isdigit() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"malformed seed {text!r}")
    return text


def seconds(text):
    if not text.isdigit() or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(f"want a whole number of seconds in 1..3600, got {text!r}")
    return text


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed)
    p.add_argument("--seconds", required=True, type=seconds)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args(argv)


def output_of(cmd, cwd):
    # A checkout that is not a git repository must not report the revision
    # of some repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(cwd).resolve().parent))
    try:
        out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    args = parse_args(argv)
    here = Path(__file__).resolve().parent
    root = here.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(here / "Cargo.toml")],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (cargo exit {build.returncode})")

    load_start = loadavg()
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = target / "perfbench-spans" / f"{args.workload}-seed{args.seed}.tsv"
        cmd += ["--spans-out", str(spans)]
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited {run.returncode}")

    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("no record and result lines")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS or "record" not in record:
        fail(f"malformed output: {lines[-1][:200]}")
    record["record"].update(
        nproc=len(os.sched_getaffinity(0)),
        rustc=output_of(["rustc", "-V"], root),
        git_rev=output_of(["git", "rev-parse", "HEAD"], root),
        loadavg_start=load_start,
        loadavg_end=loadavg(),
    )
    print(json.dumps(record))
    print(lines[-1])


if __name__ == "__main__":
    main(sys.argv[1:])
