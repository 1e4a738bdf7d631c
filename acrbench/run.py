#!/usr/bin/env python3
"""acrbench — the tvacr benchmark driver.

    python3 acrbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                            [--smoke] [--expected FILE]

Run from the root of a tvacr source tree. The driver builds the worker
(acrbench/CMakeLists.txt, Release) into .bench_build/, sets the workload
up repeatedly for about two seconds (setup_s is the median), then runs one
unit of the workload per fresh worker process until --seconds have passed,
checking every unit's output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with no timers inside the
unit. --trace 1 alternates untraced and traced units and reports the
per-layer split from the traced ones, plus the tracing overhead. --smoke
shrinks every workload (for selftest.py); --expected replaces the digests
recorded in expected_digests.json. Bad arguments exit 2 with usage.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cell_lg_linear", "campaign_table2", "ingest_batch", "ingest_gateway")
DEFAULT_SEED = 2024
MIN_UNITS = 3
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
BUILD_TYPE = "Release"
# A first run in a fresh checkout builds (about a minute on 4 cores) within
# its own budget; set-up and measurement then get DEADLINE_S.
BUILD_DEADLINE_S = 700.0
DEADLINE_S = 165.0

# Top-level spans of each unit: their sum is the traced self time, which is
# compared against the untraced wall time (the rest is process start/exit and
# glue). fp.* spans are children of core.run; campaign core.testbed is a
# separate probe, not part of the unit.
UNIT_SPANS = {
    "cell_lg_linear": ["core.testbed", "core.run", "net.pcap_write", "net.pcap_decode",
                       "analysis.ingest", "analysis.finish", "analysis.identify",
                       "replay.report", "core.validation"],
    "campaign_table2": ["core.campaign", "analysis.compare", "core.validation"],
    "ingest_batch": ["net.pcap_decode", "analysis.ingest", "analysis.finish",
                     "replay.report", "replay.transcode", "replay.replay"],
    "ingest_gateway": ["gateway.open", "gateway.poll", "gateway.drain", "gateway.snapshot",
                       "gateway.finish", "replay.report"],
}
FP_SPANS = ["fp.frame", "fp.dhash", "fp.detail", "fp.audio"]

# Per-layer metric -> (unit, kind, source). Seconds are summed span time per
# unit; counts are per unit; heap is the largest in-use heap when the named
# call returned. Metrics a workload never touches read 0.
PER_LAYER = {
    "core.testbed_s": ("s", "span", "core.testbed"),
    "core.run_s": ("s", "span", "core.run"),
    "fp.frame_s": ("s", "span", "fp.frame"),
    "fp.dhash_s": ("s", "span", "fp.dhash"),
    "fp.detail_s": ("s", "span", "fp.detail"),
    "fp.audio_s": ("s", "span", "fp.audio"),
    "fp.captures": ("count", "count", "fp.captures"),
    "sim.other_s": ("s", "derived", None),
    "analysis.identify_s": ("s", "span", "analysis.identify"),
    "core.campaign_s": ("s", "span", "core.campaign"),
    "analysis.compare_s": ("s", "span", "analysis.compare"),
    "core.runner.busy_s": ("s", "span", "core.runner.busy"),
    "core.runner.wait_s": ("s", "span", "core.runner.wait"),
    "core.runner.idle_frac": ("ratio", "count", "core.runner.idle_frac"),
    "core.cell_s.p50": ("s", "span", "core.cell.p50"),
    "core.cell_s.max": ("s", "span", "core.cell.max"),
    "core.validation_s": ("s", "span", "core.validation"),
    "net.pcap_write_s": ("s", "span", "net.pcap_write"),
    "net.pcap_decode_s": ("s", "span", "net.pcap_decode"),
    "analysis.ingest_s": ("s", "span", "analysis.ingest"),
    "analysis.finish_s": ("s", "span", "analysis.finish"),
    "replay.transcode_s": ("s", "span", "replay.transcode"),
    "replay.replay_s": ("s", "span", "replay.replay"),
    "replay.report_s": ("s", "span", "replay.report"),
    "net.records": ("count", "count", "net.records"),
    "net.bytes": ("bytes", "count", "net.bytes"),
    "replay.blocks": ("count", "count", "replay.blocks"),
    "gateway.open_s": ("s", "span", "gateway.open"),
    "gateway.poll_s": ("s", "span", "gateway.poll"),
    "gateway.drain_s": ("s", "span", "gateway.drain"),
    "gateway.snapshot_s": ("s", "span", "gateway.snapshot"),
    "gateway.finish_s": ("s", "span", "gateway.finish"),
    "gateway.offered": ("count", "count", "gateway.offered"),
    "gateway.dropped": ("count", "count", "gateway.dropped"),
    "gateway.ring_peak": ("count", "count", "gateway.ring_peak"),
    "snapshot_ms.p50": ("ms", "derived", None),
    "snapshot_ms.p95": ("ms", "derived", None),
    "snapshot_ms.samples": ("count", "derived", None),
    "ap.frames": ("count", "count", "ap.frames"),
    "acr.batches": ("count", "count", "acr.batches"),
    "acr.captures": ("count", "count", "acr.captures"),
    "dns.queries": ("count", "count", "dns.queries"),
    "core.testbed.heap_mb": ("MB", "heap", "core.testbed"),
    "core.run.heap_mb": ("MB", "heap", "core.run"),
    "core.campaign.heap_mb": ("MB", "heap", "core.campaign"),
    "analysis.ingest.heap_mb": ("MB", "heap", "analysis.ingest"),
    "analysis.finish.heap_mb": ("MB", "heap", "analysis.finish"),
    "analysis.identify.heap_mb": ("MB", "heap", "analysis.identify"),
    "replay.transcode.heap_mb": ("MB", "heap", "replay.transcode"),
    "replay.replay.heap_mb": ("MB", "heap", "replay.replay"),
    "gateway.drain.heap_mb": ("MB", "heap", "gateway.drain"),
    "gateway.snapshot.heap_mb": ("MB", "heap", "gateway.snapshot"),
    "trace.self_s": ("s", "derived", None),
    "trace.coverage": ("ratio", "derived", None),
    "trace.overhead_s": ("s", "derived", None),
}


class BenchError(Exception):
    """A failure that stops the run without a result (exit 1)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="acrbench/run.py", allow_abbrev=False,
                                     description="tvacr benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size workloads (harness check, not for numbers)")
    parser.add_argument("--expected", type=Path, default=BENCH_DIR / "expected_digests.json",
                        help="digests of the default-seed outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 1 << 63:
        parser.error("--seed must be in [0, 2^63)")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def build(deadline):
    """Configures (once) and builds the worker; returns its path."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no tvacr sources at {ROOT / 'src'}")
    build_dir = ROOT / ".bench_build" / f"acrbench-{BUILD_TYPE.lower()}"
    commands = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), *generator,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    commands.append(["cmake", "--build", str(build_dir), "--target", "acrbench_worker",
                     "-j", str(nproc())])
    for command in commands:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=max(deadline - time.monotonic(), 1), check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build failed: " + " ".join(command))
    return build_dir / "acrbench_worker"


def source_digest():
    """Identifies the measured sources when the tree is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_worker(worker, arguments, work_dir, deadline):
    """Runs one worker process; returns (wall s, cpu s, result).

    Peak RSS is the worker's own VmHWM, in its result: wait4's ru_maxrss
    would also count the driver's pages the child had before exec."""
    out_path = work_dir / "worker.out"
    err_path = work_dir / "worker.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen([str(worker), *arguments], stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1), process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        raise BenchError(f"worker {' '.join(arguments)} exited {process.returncode}")
    lines = out_path.read_text().strip().splitlines()
    result = json.loads(lines[-1])
    return wall, usage.ru_utime + usage.ru_stime, result


def stamp(worker, work_dir, deadline):
    _, _, env = run_worker(worker, ["stamp", "--dir", str(work_dir)], work_dir, deadline)
    if not env["optimized"] or env["sanitizer"]:
        raise BenchError(f"refusing to measure an unoptimized or sanitizer build: {env}")
    env.update(nproc=nproc(), commit=commit_id(), source_digest=source_digest())
    return env


class Checks:
    """Operations attempted and failed, summed over every worker process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_worker(self, result):
        self.attempted += result["ops"]
        self.failed += result["ops_failed"]
        self.failures += result["failures"]

    def check(self, passed, what):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(what)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def per_layer(workload, traced, untraced_walls, traced_walls, snapshot_ms):
    """Per-layer metrics from the traced units' spans, counts and heap."""
    def per_unit(kind, source):
        table = {"span": "spans", "count": "counts", "heap": "heap_mb"}[kind]
        return median([unit[table].get(source, 0.0) for unit in traced])

    metrics = {}
    for name, (unit, kind, source) in PER_LAYER.items():
        if kind != "derived":
            metrics[name] = (per_unit(kind, source), unit)
    metrics["sim.other_s"] = (median([
        unit["spans"].get("core.run", 0.0) - sum(unit["spans"].get(s, 0.0) for s in FP_SPANS)
        for unit in traced]), "s")
    self_s = median([sum(unit["spans"].get(s, 0.0) for s in UNIT_SPANS[workload])
                     for unit in traced])
    metrics["trace.self_s"] = (self_s, "s")
    metrics["trace.coverage"] = (self_s / median(untraced_walls), "ratio")
    metrics["trace.overhead_s"] = (median(traced_walls) - median(untraced_walls), "s")
    metrics["snapshot_ms.p50"] = (percentile(snapshot_ms, 0.50), "ms")
    metrics["snapshot_ms.p95"] = (percentile(snapshot_ms, 0.95), "ms")
    metrics["snapshot_ms.samples"] = (float(len(snapshot_ms)), "count")
    return metrics


def measure(args, worker, work_dir, deadline, checks):
    expected = json.loads(args.expected.read_text()) if args.expected.exists() else {}
    key = args.workload + ("@smoke" if args.smoke else "")
    expected_digest = expected.get(key) if args.seed == DEFAULT_SEED else None
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    # Set-up: fresh input directories, each made by one timed worker process,
    # for at least SETUP_BUDGET_S; the last one feeds the units. Millisecond
    # set-ups (the cells have no inputs) shift between host states that
    # last a fraction of a second, so they repeat for the whole budget.
    setup_walls = []
    input_dir = work_dir / "input"
    setup_start = time.monotonic()
    while len(setup_walls) < MIN_SETUPS or time.monotonic() - setup_start < SETUP_BUDGET_S:
        shutil.rmtree(input_dir, ignore_errors=True)
        input_dir.mkdir()
        wall, _, result = run_worker(worker, ["setup", *common, "--dir", str(input_dir)],
                                     work_dir, deadline)
        checks.add_worker(result)
        setup_walls.append(wall)

    # Units until --seconds are used up: a round (one unit per mode) starts
    # only if a round as long as the slowest so far still fits.
    units = {0: [], 1: []}
    start = time.monotonic()
    modes = (0, 1) if args.trace else (0,)
    slowest_round = 0.0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            wall, cpu, result = run_worker(
                worker, ["unit", *common, "--dir", str(input_dir), "--trace", str(mode)],
                work_dir, deadline)
            checks.add_worker(result)
            units[mode].append((wall, cpu, result))
        now = time.monotonic()
        slowest_round = max(slowest_round, now - round_start)
        if (len(units[0]) >= (2 if args.trace else MIN_UNITS)
                and now + slowest_round - start > args.seconds):
            break

    digests = [result["digest"] for mode in modes for *_, result in units[mode]]
    for digest in digests[1:]:
        checks.check(digest == digests[0], "unit output differs between repetitions")
    if expected_digest is not None:
        for digest in digests:
            checks.check(digest == expected_digest,
                         f"digest {digest} != recorded {expected_digest} for {key}")

    untraced = units[0]
    snapshot_ms = [ms for *_, result in untraced for ms in result["snapshot_ms"]]
    if args.trace:
        traced = [result for *_, result in units[1]]
        return per_layer(args.workload, traced, [u[0] for u in untraced],
                         [u[0] for u in units[1]], snapshot_ms), len(untraced) + len(traced)
    # Other tenants of a shared host only ever add time to a repetition, so
    # the fastest repetition is the steadiest estimate of what the unit
    # costs (README.md, "Metrics"); peak RSS and set-up use the median.
    return {
        "wall_s": (min(u[0] for u in untraced), "s"),
        "cpu_s": (min(u[1] for u in untraced), "s"),
        "setup_s": (median(setup_walls), "s"),
        "peak_rss_mb": (median([u[2]["peak_rss_mb"] for u in untraced]), "MB"),
    }, len(untraced)


def main(argv):
    args = parse_args(argv)
    work_dir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        worker = build(time.monotonic() + BUILD_DEADLINE_S)
        deadline = time.monotonic() + DEADLINE_S
        work_dir.mkdir(parents=True, exist_ok=True)
        env = stamp(worker, work_dir, deadline)
        checks = Checks()
        metrics, units = measure(args, worker, work_dir, deadline, checks)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as error:
        print(f"acrbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, smoke=args.smoke, units=units)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# ops {checks.attempted} ops_failed {checks.failed}")
    for failure in checks.failures[:20]:
        print("# FAILED " + failure)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
