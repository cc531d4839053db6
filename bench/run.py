"""zxcalc benchmark: one command, four workloads, end-to-end or per-layer.

    python3 bench/run.py --workload {ladder,paper,soundness,cli} --seed N
                         --seconds S --trace {0,1} [--scale {full,tiny}]

Run from anywhere; the repository root is the parent of this directory and
zxcalc is imported from its ``src/``.  Each workload runs as one closed-loop
client in a single worker process with no threads.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  Above
it, every metric is printed by name with its unit, and a self-describing
result file is written to ``bench/out/``.  ``--scale tiny`` shrinks every
workload for the smoke test (``python -m pytest bench/smoke.py``).

Exit codes: 0 when a result was printed (its ``correct`` field says whether
every output matched its reference), 1 when the worker failed, 2 when the
zxcalc sources are missing or the arguments are bad.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("ladder", "paper", "soundness", "cli")
SETUP_AROUND = 3  # set-up-only workers before and after the timed one
DEADLINE_S = 170  # the whole command must end within 180 s

END_TO_END = {  # name -> unit
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "vertices_max": "count",
               "legs_max": "count", "found": "count", "hit_ratio": "ratio",
               "steps": "count", "out_vertices": "count", "out_edges": "count",
               "checks": "count", "checks_per_sample": "ratio",
               "rounds_per_s": "1/s", "overhead_ops_per_s": "ops/s"}


# one thread per process: OpenBLAS would otherwise start a thread per core
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


class WorkerError(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise WorkerError(f"worker exceeded the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_info() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines}


def git_commit():
    """HEAD's commit, or None where the checkout is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zxcalc" / "__init__.py").is_file():
        print(f"error: no zxcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        # set-ups before and after the timed window, a window apart, so
        # that they meet the host at more than one of its speeds
        extra = SETUP_AROUND if not args.trace else 0
        setups = [spawn(args, deadline, True) for _ in range(extra)]
        res = spawn(args, deadline, False)
        setups.append(res)
        setups += [spawn(args, deadline, True) for _ in range(extra)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run = res["run"]
    windows = [run] + ([res["untraced"]] if args.trace else [])
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    correct = all(w["fail_reasons"]["wrong_result"] == 0 and w["fail_reasons"]["error"] == 0
                  for w in windows)

    print(f"zxcalc benchmark: workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}")
    print(f"  {run['attempted']} ops in {run['cycles']} whole cycle(s), "
          f"{run['cpu_s']:.3f} s of CPU time in the ops, {run['wall_s']:.3f} s of wall time")
    fails = run["fail_reasons"]
    fail_ratio = run["failed"] / run["attempted"]
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
                   for name, value in res["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
        print(f"  traced ops_per_s {run['ops_per_s']:.6g} vs untraced "
              f"{res['untraced']['ops_per_s']:.6g} ops/s; spans in {res['spans_file']}")
    else:
        values = {
            "ops_per_s": run["ops_per_s"],
            "op_p50_ms": run["op_p50_ms"],
            "op_tail_ms": run["op_tail_ms"],
            "success_ratio": 1 - fail_ratio,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": min(r["setup_s"] for r in setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        fastest = f"each op at its fastest of {run['cycles']} cycles"
        detail = {
            "ops_per_s": f"{run['attempted'] - run['failed']} successes, {fastest}; "
                         f"raw {run['raw_ops_per_s']:.4g}",
            "op_p50_ms": f"median of all {run['attempted']} attempted ops, {fastest}; "
                         f"raw {run['raw_op_p50_ms']:.4g}",
            "op_tail_ms": f"p{run['op_tail_percentile']} of the op mix, at least {run['op_tail_beyond']} of "
                          f"{run['attempted']} samples beyond; raw {run['raw_op_tail_ms']:.4g}",
            "success_ratio": "1 - fail_ratio",
            "peak_rss_mb": "largest zxcalc child" if args.workload == "cli" else "worker process",
            "setup_s": f"fastest of {len(setups)} fresh set-ups",
        }
        for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            print(f"  {name:14s} {values[name]:12.6g} {END_TO_END[name]:6s} ({detail[name]})")
        print(f"  {'fail_ratio':14s} {fail_ratio:12.6g} {'ratio':6s} "
              f"({run['failed']} of {run['attempted']}: " +
              ", ".join(f"{r} {c}" for r, c in fails.items()) + ")")
        for name in ("success_ratio", "peak_rss_mb", "setup_s"):
            print(f"  {name:14s} {values[name]:12.6g} {END_TO_END[name]:6s} ({detail[name]})")
    for err in run["errors"]:
        print(f"  error: {err}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        **source_info(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["numpy"], "machine": platform.machine(),
        "metrics": metrics, "fail_ratio": fail_ratio, "fail_reasons": fails,
        "samples": {"ops": run["attempted"], "cycles": run["cycles"],
                    "ops_per_cycle": run["ops_per_cycle"], "setups": len(setups),
                    "op_tail_percentile": run["op_tail_percentile"],
                    "op_tail_beyond": run["op_tail_beyond"]},
        "raw": {k: run[f"raw_{k}"] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "op_fastest_ms": run["op_fastest_ms"], "setup_samples_s": [r["setup_s"] for r in setups],
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "machine_probe_ms": res["probe_ms"], "inputs": res["notes"], "errors": run["errors"],
    }
    if args.trace:
        record["untraced_ops_per_s"] = res["untraced"]["ops_per_s"]
        record["traced_ops_per_s"] = run["ops_per_s"]
        record["spans_file"] = res["spans_file"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
