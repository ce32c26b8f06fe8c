#!/usr/bin/env python3
"""Builds and runs the erbench end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload eps-lowt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

A run configures and builds perfbench/ (the library from src/ plus the
runner) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. Build output goes to stderr; stdout ends with the
result JSON line. Exits non-zero without a result when the build or the run
fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
THREADS = "4"
# An untraced run splits its seconds over this many processes and pools
# their samples: timings differ more between processes (memory placement)
# than between repetitions inside one.
PROCESSES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    # Library knobs come from the benchmark, not from the caller's shell.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ERB_", "ERBENCH_"))}
    env["ERB_THREADS"] = THREADS
    try:
        proc = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def run_checked(binary, args, timeout=RUN_TIMEOUT_S):
    code, stdout = run_binary(binary, args, timeout)
    result = parse_result(stdout)
    if code != 0 or result is None:
        sys.stdout.write(stdout)
        fail(f"perfbench exited with code {code} and no result")
    return stdout, result


def pooled_samples(stdout):
    for line in stdout.splitlines():
        if line.startswith("# samples "):
            return json.loads(line[len("# samples "):])
    fail("the run printed no samples")


def run(opts):
    binary = build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--trace", str(opts.trace)]
    if opts.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--seconds", str(opts.seconds), "--trace-out",
                 os.path.join(traces, f"{opts.workload}-seed{opts.seed}.json")]
        stdout, _ = run_checked(binary, args)
        sys.stdout.write(stdout)
        return

    deadline = time.monotonic() + RUN_TIMEOUT_S
    seconds = f"{opts.seconds / PROCESSES:.6g}"
    pooled, results = {}, []
    for _ in range(PROCESSES):
        stdout, result = run_checked(binary, args + ["--seconds", seconds],
                                     deadline - time.monotonic())
        sys.stdout.write("".join(
            line + "\n" for line in stdout.splitlines()[:-1]))
        for name, values in pooled_samples(stdout).items():
            pooled.setdefault(name, []).extend(values)
        results.append(result)
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = pooled[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"# pooled {name} = {value:.6g} {metric['unit']} "
              f"(n={len(values)} over {PROCESSES} processes)")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and all(r["correct"] for r in results),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def selftest():
    """Every workload at a tiny scale: both metric tables are complete with
    the units BENCHMARK.json names, the current code fails nothing, and a
    wrong pinned digest is reported as failed operations."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tables = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    binary = build()
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--tiny"]
        for trace, table in tables.items():
            code, stdout = run_binary(binary, base + ["--trace", str(trace)])
            result = parse_result(stdout)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} failed")
            metrics = result["metrics"]
            if set(metrics) != set(table):
                problems.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(metrics) ^ set(table))}")
            for name, unit in table.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{where}: {name} is {got}")
                elif trace == 0 and got["value"] <= 0:
                    problems.append(f"{where}: {name} is not positive")
        code, stdout = run_binary(
            binary, base + ["--trace", "0", "--expect-digest", "1"])
        result = parse_result(stdout)
        if (code != 0 or result is None or result["correct"]
                or result["failed"] != result["attempted"]):
            problems.append(f"{workload}: a wrong pinned digest was not "
                            f"reported as failed operations: {result}")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        sys.exit(selftest())
    if not opts.workload:
        parser.error("--workload is required")
    run(opts)


if __name__ == "__main__":
    main()
