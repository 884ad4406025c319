"""ptrun benchmark: one closed-loop caller (one process, one thread) drives the
public API and prints every metric by name and unit.

    python3 perfbench/run.py --workload desk-suite --seed 1 --seconds 20 --trace 0

Each workload is a list of items; the caller sends an item's ops (run_ptr,
replay_trace, run_react_baseline) one after the other, the next when the
last returns, and makes whole passes over the items until --seconds have
passed, after one untimed warm-up pass. Every output is checked; an op that
raises or returns a wrong output counts as failed.

The host is shared, and its speed swings by up to half for seconds at a
time. So every timing is a best-of-repeats, as timeit takes it: an op's
latency for one item is the fastest of that item's repeats in the run, and
the *_p50_us / *_p90_us metrics are the median and 90th percentile of those
over the items. ops_per_s is the ops of one pass over the sum of each item's
fastest send (its ops with their argument building and checks, back to
back). These move with the code and much less with the neighbours.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each item is sent twice in a row, untraced and then with the span
recorder installed, and the last line carries the per-layer metrics (from
the traced sends) and the tracing overhead. The line before it records the
run environment and the workload parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import API

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "run_p50_us": "us",
    "run_p90_us": "us",
    "react_p50_us": "us",
    "replay_p50_us": "us",
    "replay_p90_us": "us",
    "trace_bytes_per_run": "bytes",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_us", ".us")):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def _purge_ptrun() -> None:
    for name in [m for m in sys.modules if m == "ptrun" or m.startswith("ptrun.")]:
        del sys.modules[name]


def _p(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by 10) of the samples, in the
    statistics.quantiles sense; the median for q=50."""
    if len(values) < 2:
        return values[0] if values else 0.0
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[q // 10 - 1]


class Loop:
    """Closed-loop measurement over a workload's items."""

    def __init__(self, items):
        self.items = items
        # kind -> item index -> latencies of that item's op, in microseconds
        self.latency_us = {kind: [[] for _ in items] for kind in API}
        # item index -> wall times of that item's whole send, in seconds
        self.send_s: list[list[float]] = [[] for _ in items]
        self.passes = 0
        self.trace_bytes: list[int] = []
        self.header_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> None:
        """Make whole passes over the items until `seconds` have passed; at
        least one."""
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while True:
            for index in range(len(self.items)):
                self.send(index)
            self.passes += 1
            if time.perf_counter_ns() >= deadline:
                break

    def send(self, index: int, record_headers: bool = False) -> None:
        """Send one item's ops, timing each call and checking its output."""
        clock = time.perf_counter_ns
        started = clock()
        for op in self.items[index]:
            module, attr = API[op.kind]
            args = op.make_args()
            self.attempted += 1
            try:
                fn = getattr(sys.modules[module], attr)
                t0 = clock()
                result = fn(*args)
                t1 = clock()
                ok = op.check(result)
            except Exception as exc:  # a raising op is a failed op
                print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            if not ok:
                self.failed += 1
            self.latency_us[op.kind][index].append((t1 - t0) / 1000.0)
            if op.kind == "replay":
                self.trace_bytes.append(os.path.getsize(args[0]))
                if record_headers:
                    with open(args[0], "rb") as fh:
                        self.header_bytes.append(len(fh.readline()))
        self.send_s[index].append((clock() - started) / 1e9)

    def best_us(self, kind: str) -> list[float]:
        """Each item's fastest latency for the op kind."""
        return [min(samples) for samples in self.latency_us[kind] if samples]

    def samples(self) -> dict:
        return {kind: sum(map(len, per_item)) for kind, per_item in self.latency_us.items()}


def _environment(args, workload, setup_times) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptrun").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None  # an exported checkout has no .git; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "setup_repeats": len(setup_times),
        "setup_s_samples": setup_times,
        "params": workload.params,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the KB and the workflows for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "ptrun" / "__init__.py").is_file():
        print(f"no ptrun sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            _purge_ptrun()
            started = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, args.size, workdir)
            setup_times.append(time.perf_counter() - started)

        warmup = Loop(workload.items)  # checked, not timed
        warmup.run(0)
        environment = _environment(args, workload, setup_times)
        if args.trace:
            metrics, loops = _traced(workload, args, environment)
        else:
            loops = [Loop(workload.items)]
            loops[0].run(args.seconds)
            metrics = _end_to_end(loops[0], setup_times)
        environment["samples"] = loops[-1].samples()
        environment["passes"] = loops[-1].passes
        failed = sum(loop.failed for loop in [warmup, *loops])
        print(json.dumps({"environment": environment}, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(loop.attempted for loop in [warmup, *loops]),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    ops_per_pass = sum(map(len, loop.items))
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_pass / sum(min(times) for times in loop.send_s),
        "run_p50_us": _p(loop.best_us("run"), 50),
        "run_p90_us": _p(loop.best_us("run"), 90),
        "react_p50_us": _p(loop.best_us("react"), 50),
        "replay_p50_us": _p(loop.best_us("replay"), 50),
        "replay_p90_us": _p(loop.best_us("replay"), 90),
        "trace_bytes_per_run": statistics.fmean(loop.trace_bytes) if loop.trace_bytes else 0.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def _traced(workload, args, environment) -> tuple[dict, list[Loop]]:
    """Send each item twice in a row, untraced and then with spans recorded,
    so that both halves see the same inputs and the same machine state.
    Per-layer metrics come from the traced half only."""
    untraced, traced = Loop(workload.items), Loop(workload.items)
    recorder = spans.SpanRecorder()
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    for index in itertools.cycle(range(len(workload.items))):
        untraced.send(index)
        recorder.install()
        try:
            traced.send(index, record_headers=True)
        finally:
            recorder.uninstall()
        if index == len(workload.items) - 1:
            traced.passes += 1
            if time.perf_counter_ns() >= deadline:
                break

    values = spans.layer_metrics(recorder.spans)
    traced_p50 = _p(traced.best_us("run"), 50)
    untraced_p50 = _p(untraced.best_us("run"), 50)
    values["trace.header_bytes"] = (statistics.fmean(traced.header_bytes)
                                    if traced.header_bytes else 0.0)
    values["tracing.run_p50_us"] = traced_p50
    values["tracing.untraced_run_p50_us"] = untraced_p50
    values["tracing.overhead_us"] = traced_p50 - untraced_p50
    values["tracing.spans_per_run"] = len(recorder.spans) / max(traced.samples()["run"], 1)

    out_dir = WORK / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl", environment)

    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in sorted(values.items())}
    return metrics, [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
