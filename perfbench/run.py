#!/usr/bin/env python3
"""Benchmark of record for the PREDATOR workspace.

Builds the `perfbench` package (release) from the checkout it sits in, then
runs one workload, or every workload with `--workload all`:

    python3 perfbench/run.py --workload live-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); trace files, results and spans go to
`<target dir>/perfbench-work`. The last line of standard output is the
result as one JSON object (for `all`: one object per workload). Build
output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["live-suite", "ci-record-analyze", "analyze-clusters", "whatif-replay"]
# A run sets up three times, then measures --seconds rounded up to whole
# rotations (the traced run adds probes). At 20 s it ends well within a
# minute, so a run that takes this long is stuck.
RUN_TIMEOUT_S = 170
# The first run in a fresh checkout compiles the workspace (about a minute).
BUILD_TIMEOUT_S = 700


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(target)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_workload(binary, args, workload, work):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: {workload} failed ({done.returncode})")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = target_dir()
    binary = build(target)
    work = os.path.join(target, "perfbench-work")

    if args.workload != "all":
        lines = run_workload(binary, args, args.workload, work)
        print("\n".join(lines), flush=True)
        return

    results = {}
    for workload in WORKLOADS:
        lines = run_workload(binary, args, workload, work)
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    kind = "per-layer metrics" if args.trace else "end-to-end metrics; error_rate = failed / attempted"
    print(f"\nsummary ({kind})")
    for workload, r in results.items():
        error_rate = r["failed"] / r["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()]
        if not args.trace:
            cells.append(f"error_rate={error_rate:.6g} fraction")
        print(f"  {workload:<18} " + "  ".join(cells))
    print(json.dumps(results, separators=(",", ":")))


if __name__ == "__main__":
    main()
