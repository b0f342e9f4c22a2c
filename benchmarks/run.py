"""bellbidir benchmark: one workload, one seed, one timed run, one JSON result.

    python3 benchmarks/run.py --workload channel_grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one compute thread, closed loop: each op starts when the
previous one and its check have finished.  No layer has a queue, so there is
no wait time to report.  Times are given at the reference speed of
``speed.py``.  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics.  The per-command ones (``verify_s`` and so on) are
medians over paper sessions: the timed ops of ``paper_session``, or the
sessions the other workloads run after their timed window, once their peak
memory has been read.  With ``--trace 1``
it holds the per-layer metrics of traced ops (see ``spans.py``), which run
in alternate blocks with untraced ops whose rate gives the tracing overhead.
The line before the result records the seed, the environment, the setup
times and the output digests.  The exit code is 0 only if every op passed
its check.
"""
from __future__ import annotations

import os

# One compute thread: pinned before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "verify_s": "s",
    "sweep_fig4_s": "s",
    "sweep_fig3_s": "s",
    "simulate_s": "s",
}
COMMAND_GROUPS = ("verify", "sweep_fig4", "sweep_fig3", "simulate")
# Workloads other than paper_session take their per-command metrics from paper
# sessions run after the timed window: this many full sessions, each followed
# by SHORT_SESSIONS sessions of the short commands only.
REFERENCE_SESSIONS = 5
SHORT_SESSIONS = 5


def fresh_package(modules) -> SimpleNamespace:
    """Import bellbidir from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "bellbidir" or m.startswith("bellbidir.")]:
        del sys.modules[name]
    package = importlib.import_module("bellbidir")
    if Path(package.__file__).resolve().parent != SRC / "bellbidir":
        raise ImportError(f"bellbidir imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"bellbidir.{name}") for name in modules})


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


class Run:
    """Ops of one kind (timed, traced or set-up) and what their checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops: list[tuple[float, float, int, dict]] = []  # start, end, items, command-group seconds

    def op(self, workload, k: int, call=None, result=None, interval=None) -> None:
        """Run (unless ``result`` is given), time and check op ``k``."""
        self.attempted += 1
        try:
            if result is None:
                start = time.perf_counter()
                result = call(workload.run, k) if call else workload.run(k)
                interval = (start, time.perf_counter())
            if workload.check(k, result) == 0:
                raise RuntimeError("the check compared no values")
        except Exception as exc:  # an op's failure is counted and reported, the run goes on
            self.failed += 1
            print(f"op {k} of {workload.name} failed: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        commands = workload.command_intervals(result) if hasattr(workload, "command_intervals") else []
        self.ops.append((*interval, workload.items(k), commands))

    def scaled(self, speed) -> tuple[list[float], int, dict[str, list[float]]]:
        """Seconds of each op and of each command group per op at reference speed, and the items done."""
        seconds, groups = [], {group: [] for group in COMMAND_GROUPS}
        for start, end, _, commands in self.ops:
            seconds.append(speed.seconds(start, end))
            per_op: dict[str, float] = {}
            for group, command_start, command_end in commands:
                per_op[group] = per_op.get(group, 0.0) + speed.seconds(command_start, command_end)
            for group, value in per_op.items():
                groups[group].append(value)
        return seconds, sum(op[2] for op in self.ops), groups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellbidir" / "__init__.py").is_file():
        print(f"error: no bellbidir sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from speed import Speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    speed = Speed()
    speed.start()
    try:
        return _measure(args, cls, speed)
    finally:
        speed.stop()


def _measure(args, cls, speed) -> int:
    from spans import MODULES, Tracer
    from speed import REFERENCE_S
    from workloads import PaperSession

    digests: dict[str, str] = {}

    # Set-up: fresh import, input generation and one warm-up op, several times.
    setup = Run()
    setup_seconds = []
    for _ in range(cls.setup_repeats):
        start = time.perf_counter()
        bb = fresh_package(MODULES)
        workload = cls(bb, args.seed)
        warm = workload.run(0)
        interval = (start, time.perf_counter())
        setup_seconds.append(speed.seconds(*interval))
        workload.digests = digests
        workload.prepare_checks()
        setup.op(workload, 0, result=warm, interval=interval)

    tracer = Tracer() if args.trace else None

    def traced_call(fn, k):
        with speed.paused():  # no kernel runs inside spans
            return tracer.call(fn, k)

    timed, traced, sessions = Run(), Run(), Run()
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        in_trace = tracer is not None and (k // workload.cycle) % 2 == 1
        (traced if in_trace else timed).op(workload, k, traced_call if in_trace else None)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k >= 2 * workload.cycle):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference_sessions = tracer is None and not isinstance(workload, PaperSession)
    if reference_sessions:
        full = PaperSession(bb, args.seed)
        short = PaperSession(bb, args.seed, groups=("sweep_fig3", "simulate"))
        for reference in (full, short):
            reference.digests = digests
            reference.prepare_checks()
        for session in range(REFERENCE_SESSIONS):
            sessions.op(full, session)
            for i in range(SHORT_SESSIONS):
                sessions.op(short, REFERENCE_SESSIONS + session * SHORT_SESSIONS + i)

    attempted = sum(part.attempted for part in (setup, timed, traced, sessions))
    failed = sum(part.failed for part in (setup, timed, traced, sessions))
    seconds, items, _ = timed.scaled(speed)
    _, _, groups = (sessions if reference_sessions else timed).scaled(speed)
    traced_seconds, traced_items, _ = traced.scaled(speed)
    measured = bool(seconds) and (tracer is None or bool(traced_seconds))
    correct = failed == 0 and measured

    output = {}
    if measured and tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "items_per_s": items / sum(seconds),
            "op_s_p50": statistics.median(seconds),
            "op_s_p90": quantile(seconds, 0.9),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mib": peak_rss_mib,
        }
        for group in COMMAND_GROUPS:
            metrics[f"{group}_s"] = statistics.median(groups[group]) if groups[group] else float("nan")
        output = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    elif measured:
        layers = tracer.layer_metrics(sum(end - start for start, end, _, _ in traced.ops), traced_items)
        traced_rate = traced_items / sum(traced_seconds)
        untraced_rate = items / sum(seconds)
        layers["trace.items_per_s"] = (traced_rate, "1/s")
        layers["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
        layers["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
        output = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": {"timed": len(timed.ops), "traced": len(traced.ops), "reference_sessions": len(sessions.ops)},
        "traced_items": traced_items,
        "setup_s_each": setup_seconds,
        "raw_op_s_p50": statistics.median(end - start for start, end, _, _ in timed.ops) if timed.ops else None,
        "speed_kernel_s": {"median": statistics.median(speed.durations), "runs": len(speed.durations), "reference": REFERENCE_S},
        "environment": environment(),
        "digests": digests,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": output}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
