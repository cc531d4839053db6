"""One benchmark process: set up a workload, warm up, run timed windows.

Started by run.py in a fresh interpreter, so its set-up time includes
interpreter start and importing zxcalc.  Prints one JSON object as the last
line of its standard output.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
        --scale full|tiny --spawned-at T [--setup-only]

The set-up time is the CPU time the process (and the children it reaped) has
used when the timed window is about to start.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before the spawn; CLOCK_MONOTONIC is
system-wide on Linux, so the difference is the set-up's wall time, which is
recorded beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import zxcalc  # noqa: E402

if not Path(zxcalc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"zxcalc imported from {zxcalc.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10  # op_tail_ms has at least this many samples beyond it


def run_window(wl, seconds: float, min_cycles: int) -> dict:
    """Whole cycles of the op mix until ``seconds`` of wall time have passed
    and at least ``min_cycles`` cycles have run."""
    samples: list[tuple[str, float]] = []  # (op label, CPU seconds)
    reasons: dict[str, int] = {}
    errors: list[str] = []
    mix: list[str] = []
    cycles = 0
    start = clock()
    while True:
        ops = wl.cycle(cycles)
        mix = [label for label, _ in ops]
        for label, op in ops:
            t0 = workloads.clock()
            try:
                latency, reason = op()
            except Exception as exc:  # an op that raises counts as failed
                latency, reason = workloads.clock() - t0, "error"
                if len(errors) < 5:
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
            samples.append((label, latency))
            if reason:
                reasons[reason] = reasons.get(reason, 0) + 1
        cycles += 1
        if clock() - start >= seconds and cycles >= min_cycles:
            break
    return {
        "samples": samples,
        "mix": mix,
        "cycles": cycles,
        "min_cycles": min_cycles,
        "wall_s": clock() - start,
        "reasons": reasons,
        "errors": errors,
    }


def fastest(samples) -> dict[str, float]:
    """Each op label's fastest repeat."""
    best: dict[str, float] = {}
    for label, latency in samples:
        best[label] = min(latency, best.get(label, latency))
    return best


def summarize(window: dict) -> dict:
    """The window's figures, gated and plain (``raw_*``) side by side."""
    samples = window["samples"]
    n = len(samples)
    failed = sum(window["reasons"].values())
    best = fastest(samples)
    mix = sorted(best[label] for label in window["mix"])
    # op_tail_ms is a fixed percentile of the op mix: the highest with 10
    # samples beyond it in a window of min_cycles cycles, the fewest a
    # window runs, so every window has at least 10 samples beyond it
    ranked = sorted(mix * window["min_cycles"])
    beyond = min(TAIL_BEYOND, len(ranked) - 1)  # fewer only at --scale tiny
    tail_q = (len(ranked) - beyond) / len(ranked)
    raw = sorted(latency for _, latency in samples)
    return {
        "attempted": n,
        "failed": failed,
        "fail_reasons": {r: window["reasons"].get(r, 0)
                         for r in ("wrong_result", "over_cap", "error")},
        "ops_per_s": (n - failed) / sum(best[label] for label, _ in samples),
        "op_p50_ms": statistics.median(mix) * 1e3,
        "op_tail_ms": ranked[-1 - beyond] * 1e3,
        "op_tail_percentile": round(100 * tail_q, 2),
        "op_tail_beyond": beyond,  # at least this many samples lie beyond it
        "op_fastest_ms": {label: t * 1e3 for label, t in sorted(best.items())},
        "raw_ops_per_s": (n - failed) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": raw[math.ceil(tail_q * n) - 1] * 1e3,
        "ops_per_cycle": len(window["mix"]),
        "cycles": window["cycles"],
        "wall_s": window["wall_s"],
        "cpu_s": sum(raw),
        "errors": window["errors"],
    }


def replay_rate(replays) -> float:
    """In-process cli.main calls per second, each argv at its fastest repeat."""
    best = fastest(replays)
    return len(replays) / sum(best[label] for label, _ in replays)


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran around the window, not a metric."""
    times = []
    for _ in range(5):
        t0 = clock()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(clock() - t0)
    return statistics.median(times) * 1e3


def fresh_import_s(root: Path) -> float:
    """Median wall time of a fresh process doing a bare ``import zxcalc.cli``."""
    env = workloads.child_env(root)
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import zxcalc.cli"], cwd=root, env=env,
                       check=True, timeout=60)
        times.append(clock() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.scale, ROOT)
    wl.warm_up()
    own = resource.getrusage(resource.RUSAGE_SELF)
    result = {"setup_s": own.ru_utime + own.ru_stime + workloads.children_cpu_s(),
              "setup_wall_s": time.monotonic() - args.spawned_at,
              "notes": wl.notes, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["probe_ms"] = [probe_ms()]
    if not args.trace:
        result["run"] = summarize(run_window(wl, args.seconds, wl.min_cycles))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        # half the time untraced, half traced: the difference in ops_per_s
        # is the tracing overhead; half the cycles each, so that the traced
        # run ends in time
        half = (args.seconds / 2, max(1, wl.min_cycles // 2))
        wl.replays = []
        untraced = summarize(run_window(wl, *half))
        untraced_replays, wl.replays = wl.replays, []
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            window = run_window(wl, *half)
        finally:
            tracer.uninstall()
            wl.tracer = None
        traced = summarize(window)
        layers = tracer.metrics(window["cycles"])
        if args.workload == "cli":
            # the child processes are not traced, so the overhead is that of
            # the in-process cli.main replays of the same argvs
            layers["cli.import.s"] = fresh_import_s(ROOT)
            layers["trace.overhead_ops_per_s"] = (replay_rate(wl.replays)
                                                  - replay_rate(untraced_replays))
        else:
            layers["cli.import.s"] = 0.0
            layers["trace.overhead_ops_per_s"] = traced["ops_per_s"] - untraced["ops_per_s"]
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["layer", "function", "start", "end", "parent"],
                                          "spans": tracer.spans,
                                          "dropped": tracer.spans_dropped}))
        result.update(untraced=untraced, run=traced, layers=layers,
                      spans_file=str(spans_file.relative_to(ROOT)))
    result["probe_ms"].append(probe_ms())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
