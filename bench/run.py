"""qsnake benchmark: one seeded workload, closed loop, exact output checks.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

One client sends one operation at a time from this process.  With
``--trace 0`` operations run untraced, in whole rounds, until ``--seconds``
have passed, and the end-to-end metrics are reported.  With ``--trace 1`` a
fixed list of operations (the workload's first ``trace_rounds`` rounds) runs
untraced and traced, round by round, and the per-layer metrics are reported.  The
last line of stdout is the JSON result; the line before it is a report with
the environment, the tail percentile and the output digest.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
WARM_UP = (5, 2)
CALIBRATE_EVERY_S = 0.1  # of time in qsnake calls

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("throughput_ops_per_s", "latency_p50_ms", "latency_tail_ms",
              "cpu_ms_per_op", "setup_s", "peak_rss_mib", "ok_ops_ratio")


def load_qsnake() -> dict:
    """Import qsnake from this checkout's src/, never from anywhere else."""
    if not (SRC / "qsnake" / "__init__.py").is_file():
        sys.exit(f"bench: no qsnake sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsnake.cli
    import qsnake.verify  # noqa: F401
    if Path(qsnake.__file__).resolve().parent != SRC / "qsnake":
        sys.exit(f"bench: imported qsnake from {qsnake.__file__}, not from {SRC}")
    return {name: sys.modules[f"qsnake.{name}"] for name in ("verify", "cli")}


def environment(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "qsnake").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": sources.hexdigest(), "seed": seed}


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """
    Median over fresh interpreters of importing qsnake and generating the
    first round, at the reference speed and as measured.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        seconds, loop = map(float, done.stdout.split())
        scaled.append(seconds * calibration.REFERENCE_S / loop)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """
    Runs operations one at a time, times each call, checks each output and
    keeps a digest.  Between calls it times the calibration loop after every
    CALIBRATE_EVERY_S of calls, so the samples follow the machine's speed.
    """

    def __init__(self, workload, modules):
        self.workload = workload
        self.op = workloads.operation(workload, modules)
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.calibrations: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self._since_calibration = CALIBRATE_EVERY_S

    def run(self, batch, digest: bool = False) -> None:
        clock, cpu_clock = time.perf_counter, time.process_time
        all_routes = "--all-routes" in self.workload.argv
        for r, s in batch:
            if self._since_calibration >= CALIBRATE_EVERY_S:
                self.calibrations.append(calibration.loop_seconds())
                self._since_calibration = 0.0
            self.attempted += 1
            try:
                w0, c0 = clock(), cpu_clock()
                output = self.op(r, s)
                w1, c1 = clock(), cpu_clock()
                self.wall.append(w1 - w0)
                self.cpu.append(c1 - c0)
                self._since_calibration += w1 - w0
                if self.workload.name == "sweep":
                    oracle.check_pair_result(r, s, output)
                else:
                    oracle.check_compute(r, s, *output, all_routes=all_routes)
                if digest:
                    self.digest.update(workloads.output_record(self.workload, output))
            except Exception as exc:  # a failed operation is counted and the run goes on
                self.failures.append(f"{r}/{s}: {type(exc).__name__}: {exc}"[:300])


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-round(percentile * 10) * n // 1000))
    return sorted_values[rank - 1], n - rank


def end_to_end(workload, seed: int, seconds: float, modules, report: dict) -> tuple:
    setup, setup_raw = setup_seconds(workload.name, seed)
    Runner(workload, modules).run([WARM_UP])
    runner = Runner(workload, modules)
    rounds_run = 0
    start = time.perf_counter()
    for batch in workloads.rounds(workload, seed):
        runner.run(batch, digest=rounds_run == 0)
        rounds_run += 1
        if time.perf_counter() - start >= seconds:
            break
    loop_seconds = time.perf_counter() - start
    wall = sorted(runner.wall)
    tail, beyond = nearest_rank(wall, workload.tail_percentile)
    failed = len(runner.failures)
    as_measured = {
        "throughput_ops_per_s": len(wall) / sum(wall),
        "latency_p50_ms": 1000 * statistics.median(wall),
        "latency_tail_ms": 1000 * tail,
        "cpu_ms_per_op": 1000 * sum(runner.cpu) / len(runner.cpu),
        "setup_s": setup_raw,
    }
    wall_scale, cpu_scale = calibration.scales(runner.calibrations)
    metrics = {
        "throughput_ops_per_s": as_measured["throughput_ops_per_s"] / wall_scale,
        "latency_p50_ms": as_measured["latency_p50_ms"] * wall_scale,
        "latency_tail_ms": as_measured["latency_tail_ms"] * wall_scale,
        "cpu_ms_per_op": as_measured["cpu_ms_per_op"] * cpu_scale,
        "setup_s": setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": (runner.attempted - failed) / runner.attempted,
    }
    report.update(rounds=rounds_run, ops=runner.attempted, timed_ops=len(wall),
                  tail_percentile=workload.tail_percentile, tail_samples_beyond=beyond,
                  loop_seconds=loop_seconds, calibrations=len(runner.calibrations),
                  wall_scale=wall_scale, cpu_scale=cpu_scale, as_measured=as_measured,
                  digest=runner.digest.hexdigest(), failures=runner.failures[:5])
    return runner.attempted, failed, metrics


def per_layer(workload, seed: int, modules, report: dict) -> tuple:
    batches = workloads.rounds(workload, seed)
    rounds = [next(batches) for _ in range(workload.trace_rounds)]
    Runner(workload, modules).run([WARM_UP])
    plain, traced_runner = Runner(workload, modules), Runner(workload, modules)
    tracer = tracing.Tracer()
    # each round runs untraced and traced, in alternating order, so drift in
    # machine speed and second-run effects fall on both sides
    for i, batch in enumerate(rounds):
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                with tracing.instrumented(tracer):
                    traced_runner.run(batch)
            else:
                plain.run(batch, digest=i == 0)
    untraced, traced = sum(plain.wall), sum(traced_runner.wall)
    untraced_scale = calibration.scales(plain.calibrations)[0]
    traced_scale = calibration.scales(traced_runner.calibrations)[0]
    metrics = {}
    for layer, (calls, self_s) in tracer.layers.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s * traced_scale
    metrics.update(tracer.counters)
    metrics["trace.overhead_ratio"] = (traced * traced_scale) / (untraced * untraced_scale)
    failures = plain.failures + traced_runner.failures
    report.update(rounds=len(rounds), ops=plain.attempted, untraced_seconds=untraced,
                  traced_seconds=traced, untraced_wall_scale=untraced_scale,
                  traced_wall_scale=traced_scale, digest=plain.digest.hexdigest(),
                  failures=failures[:5],
                  kernels_by_parent={f"{parent} > {kernel}": {"calls": c, "seconds": t}
                                     for (parent, kernel), (c, t)
                                     in sorted(tracer.kernels_by_parent.items())})
    return plain.attempted + traced_runner.attempted, len(failures), metrics


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    unit_of = units()
    modules = load_qsnake()
    workload = workloads.WORKLOADS[args.workload]
    report = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              **environment(args.seed)}
    if args.trace:
        attempted, failed, metrics = per_layer(workload, args.seed, modules, report)
    else:
        attempted, failed, metrics = end_to_end(workload, args.seed, args.seconds,
                                                modules, report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
