#!/usr/bin/env python3
"""Build and run the gmdiv served-path benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload router --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --report [--seed 1] [--seconds 10]
  python3 perfbench/run.py --self-test

A run builds the benchmark and the library from source (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, clears
every GMDIV_* variable from the program's environment, runs one
workload and relays its output. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; its metric names and
units are checked against BENCHMARK.json. --report runs every workload
untraced and traced and prints one table of every metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("router", "batch", "churn")
# Each run must finish within 180 s; stop the program before that and
# report the timeout.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def program_env():
    """The environment minus GMDIV_* (they steer JIT, backends, options)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMDIV_")}
    cleared = sorted(k for k in os.environ if k.startswith("GMDIV_"))
    return env, cleared


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_result(line, spec, trace):
    """The result line must be {correct, attempted, failed, metrics}, with
    exactly the metrics BENCHMARK.json lists for this kind of run."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from {correct, attempted, failed, metrics}"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return None, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None, "attempted must be a whole number >= 1"
    return result, None


def run_once(binary, spec, workload, seed, seconds, trace, budget_s, quiet):
    """Runs one workload; returns (exit code, parsed result or None)."""
    env, cleared = program_env()
    out = build_dir()
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--results", os.path.join(out, "results", stem + ".json")]
    if trace:
        cmd += ["--spans", os.path.join(out, "spans", stem + ".trace.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, budget_s))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return 124, None
    lines = done.stdout.rstrip("\n").split("\n")
    if not quiet:
        print(f"config: cleared_env={','.join(cleared) or 'none'}")
        for line in lines[:-1]:
            print(line)
    if done.returncode not in (0, 1):
        print(f"perfbench: {workload} run exited {done.returncode}",
              file=sys.stderr)
        return done.returncode, None
    result, error = check_result(lines[-1], spec, trace)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 5, None
    if not quiet:
        print(lines[-1])
    return done.returncode, result


def report(binary, spec, seed, seconds):
    """Every workload, untraced and traced: one table of every metric."""
    columns, code = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_once(binary, spec, workload, seed, seconds, trace,
                                  RUN_TIMEOUT_S, quiet=True)
            code = code or rc
            if result is None:
                fail(f"{workload} --trace {trace} produced no result", rc or 1)
            columns.setdefault(workload, {}).update(result["metrics"])
            if not trace:  # the untraced run's checks are its requests
                columns[workload]["failed_ratio"] = {
                    "value": result["failed"] / result["attempted"]}
            if not result["correct"]:
                print(f"perfbench: {workload} --trace {trace}: "
                      f"{result['failed']} of {result['attempted']} checks failed",
                      file=sys.stderr)
    rows = (spec["end_to_end"] + [{"name": "failed_ratio", "unit": "ratio"}]
            + spec["per_layer"])
    print(f"{'metric':34} {'unit':6} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for m in rows:
        cells = " ".join(f"{columns[w][m['name']]['value']:>14.6g}"
                         for w in WORKLOADS)
        print(f"{m['name']:34} {m['unit']:6} {cells}")
    over = [w for w in WORKLOADS
            if columns[w]["trace.overhead_ratio"]["value"] < 0.98]
    if over:
        print("trace.overhead_ratio over the 2% budget on: " + ", ".join(over))
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    start = time.monotonic()
    spec = load_spec()
    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"],
                                env=program_env()[0]).returncode)
    if args.report:
        sys.exit(report(binary, spec, args.seed, args.seconds))
    if not args.workload:
        fail("--workload is required")
    budget = RUN_TIMEOUT_S - (time.monotonic() - start)
    # The first run in a checkout spends its time building; give the
    # measurement its own budget then.
    budget = max(budget, 2 * args.seconds + 60)
    rc, _ = run_once(binary, spec, args.workload, args.seed, args.seconds,
                     args.trace, budget, quiet=False)
    sys.exit(rc)


if __name__ == "__main__":
    main()
