#!/usr/bin/env python3
"""GLVA benchmark: build the perfbench binary from source, run one workload.

Run from the root of a GLVA checkout:

    python3 perfbench/run.py --workload paper_ensemble --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is the run's JSON result
({"correct", "attempted", "failed", "metrics"}); build output and the
binary's notes go to standard error. The build lives in $CARGO_TARGET_DIR
(default .bench_build); the first run configures and compiles it.

Exit status: 0 when every op was correct, 1 when some op failed its output
check (the JSON line is still printed), 2 when the checkout cannot be
built or the binary could not run (no JSON line).
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("paper_ensemble", "deep_verify", "spill_check", "serve_mix")
HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir, env):
    """Configure (first time only) and build the binary; return its path."""
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, env=env)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return bdir / "perfbench"


def run_binary(exe, env, workload, seed, seconds, trace, toy=False):
    """Run the binary once; return (exit code, last stdout line, parsed result)."""
    scratch = os.path.relpath(build_dir() / f"run-{os.getpid()}")
    command = [str(exe), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
    if toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload}: perfbench exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: perfbench's last line is not JSON: {lines[-1]!r}")
    return done.returncode, lines[-1], result


def self_test(exe, env):
    """Every workload at toy size, untraced and traced: every metric the
    benchmark declares is emitted with its unit, and every output check
    passes. The traced run is repeated once to pin sim.steps exactly."""
    spec = json.loads((pathlib.Path.cwd() / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    steps = {}
    for workload in WORKLOADS:
        for trace in (0, 1, 1):
            code, _, result = run_binary(exe, env, workload, 3, 1, trace, toy=True)
            label = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output checks failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: no ops attempted")
            metrics = result["metrics"]
            for name, unit in declared[trace].items():
                if name not in metrics:
                    problems.append(f"{label}: metric {name} missing")
                elif metrics[name]["unit"] != unit:
                    problems.append(f"{label}: {name} has unit {metrics[name]['unit']}, expected {unit}")
                elif not math.isfinite(metrics[name]["value"]):
                    problems.append(f"{label}: {name} is not a finite number")
            for name in set(metrics) - set(declared[trace]):
                problems.append(f"{label}: undeclared metric {name}")
            if trace == 1 and "sim.steps" in metrics:
                steps.setdefault(workload, set()).add(metrics["sim.steps"]["value"])
            if trace == 0 and metrics.get("setup_s", {}).get("value", 0) <= 0:
                problems.append(f"{label}: setup_s is not positive")
    for workload, values in steps.items():
        if len(values) != 1:
            problems.append(f"{workload}: sim.steps differs between traced runs at one seed")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at toy size and check the metrics")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    root = pathlib.Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "app").is_dir():
        fail("run from the root of a GLVA checkout (CMakeLists.txt and src/ not found)")
    bdir = build_dir()
    # Compiler and benchmark temporaries stay inside the checkout.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    exe = build(bdir, env)
    if args.self_test:
        return self_test(exe, env)
    code, line, _ = run_binary(exe, env, args.workload, args.seed, args.seconds,
                               args.trace)
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
