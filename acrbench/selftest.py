#!/usr/bin/env python3
"""Self-test of the acrbench harness (about a minute after the first build).

    python3 acrbench/selftest.py

1. Strict arguments: an unknown flag, a missing value or a malformed number
   makes the driver (and the worker) exit 2 with usage.
2. Smoke run: every workload, untraced and traced, at reduced size. Each run
   must pass its checks and emit every metric BENCHMARK.json names, with
   that metric's unit.
3. A corrupted recorded digest must turn into failed operations: the driver
   reports correct=false, failed > 0 and exits 1.
Exits 0 when all of it holds.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the driver's own tables)

FAILURES = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def driver(*arguments):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *arguments],
                          capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def named_metrics():
    """Metric name -> unit for each mode, as BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_arguments():
    for arguments, what in [
        (["--workload", "cell_lg_linear", "--job", "8"], "unknown flag"),
        (["--workload", "cell_lg_linear", "--seed"], "missing value"),
        (["--workload", "cell_lg_linear", "--seed", "12x"], "malformed number"),
        (["--workload", "cell_lg_linear", "--seconds", "ten"], "malformed seconds"),
        (["--workload", "cell_lg_linear", "--trace", "2"], "trace out of range"),
        (["--workload", "no_such_workload"], "unknown workload"),
        ([], "missing workload"),
    ]:
        code, result, stderr = driver(*arguments)
        expect(code == 2 and result is None and "usage" in stderr, f"driver: {what} exits 2")
    worker = ROOT / ".bench_build" / "acrbench-release" / "acrbench_worker"
    if worker.exists():
        for arguments, what in [
            (["unit", "--workload", "cell_lg_linear", "--seed", "1", "--dir", ".", "--job", "8"],
             "unknown flag"),
            (["unit", "--workload", "cell_lg_linear", "--seed", "-1", "--dir", ".", "--trace",
              "0"], "malformed number"),
            (["unit", "--workload", "cell_lg_linear", "--dir", ".", "--trace"], "missing value"),
        ]:
            done = subprocess.run([str(worker), *arguments], capture_output=True, text=True,
                                  check=False)
            expect(done.returncode == 2 and "usage" in done.stderr, f"worker: {what} exits 2")


def check_smoke():
    end_to_end, per_layer = named_metrics()
    for workload in run.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            code, result, stderr = driver("--workload", workload, "--smoke", "--seconds", "0.5",
                                          "--trace", str(trace))
            label = f"smoke {workload} --trace {trace}"
            if result is None:
                expect(False, f"{label}: no result ({stderr.strip()[-300:]})")
                continue
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: all checks pass")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            metrics = result["metrics"]
            missing = [n for n, unit in names.items()
                       if n not in metrics or metrics[n].get("unit") != unit
                       or not isinstance(metrics[n].get("value"), (int, float))]
            expect(not missing, f"{label}: every named metric with its unit {missing}")


def check_corrupted_digest():
    recorded = json.loads((BENCH_DIR / "expected_digests.json").read_text())
    key = "cell_lg_linear@smoke"
    corrupted = dict(recorded)
    corrupted[key] = format(int(recorded[key], 16) ^ 1, "016x")
    path = ROOT / ".bench_build" / "selftest_expected.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(corrupted))
    try:
        code, result, _ = driver("--workload", "cell_lg_linear", "--smoke", "--seconds", "0.5",
                                 "--expected", str(path))
    finally:
        path.unlink()
    expect(result is not None and not result["correct"] and result["failed"] > 0 and code == 1,
           "corrupted recorded digest counts as failed operations")


def main():
    check_arguments()
    check_smoke()
    check_corrupted_digest()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
