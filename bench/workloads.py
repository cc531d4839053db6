"""The four benchmark workloads: seeded inputs, one op cycle, reference checks.

A workload is built from ``(seed, scale)`` during set-up.  ``cycle(k)``
returns the k-th round of its op mix as a list of ``(label, op)`` pairs; a
run executes whole cycles, so every run carries the same mix.  An op returns
``(latency_s, reason)`` where ``latency_s`` is the CPU time of the library
calls only (the benchmark's own checks run after the clock stops) and
``reason`` is ``None`` on success, ``"over_cap"`` or ``"wrong_result"``; an
op that raises is counted as ``"error"`` by the runner.

Every check compares against a reference the benchmark computes itself; a
report's own ``passed`` flag is never consulted.  Library calls go through
module attributes (``zxcalc.protocols.cnot`` ...) at call time so that the
tracer's wrappers see them.  Why each workload exists, and which per-layer
numbers it should move, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import zxcalc
import zxcalc.protocols
import zxcalc.rewrite

# Ops are timed in CPU time of the process running the library calls: on a
# shared VM the wall clock also counts the time the hypervisor gives the
# vCPU to others (NOTES.md, "Steady figures").
clock = time.process_time


def children_cpu_s() -> float:
    """User plus system CPU time of the reaped child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime

EVAL_CAP = 14  # evaluate()'s default max_qubits; no vertex may be wider
MATRIX_TOL = 1e-9

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def same_up_to_scalar(a, b, tol: float = MATRIX_TOL) -> bool:
    """``a = c * b`` for some nonzero c, judged on norm-1 copies of both.

    Unlike ``equal_up_to_scalar`` there is no absolute floor: a zero (or
    non-finite) matrix never matches, whatever its size.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return False
    a, b = a / na, b / nb
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    c = a[k] / b[k]
    return abs(abs(c) - 1) <= tol and float(np.max(np.abs(a - c * b))) <= tol


def _ket(*amplitudes) -> np.ndarray:
    return np.array(amplitudes, dtype=complex).reshape(-1, 1)


class Workload:
    name = ""
    # a window runs at least this many whole cycles: every op then has that
    # many repeats to take its fastest from, and op_tail_ms is the
    # percentile of the op mix with 10 samples beyond it in that many cycles
    min_cycles: int

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.tracer = None  # set for the traced window
        # cli only: when a list, each op also replays its argv through an
        # in-process cli.main and appends (label, seconds) here
        self.replays: list | None = None
        self.notes: dict = {}

    def quiet(self):
        """Keep the benchmark's own library calls out of the trace."""
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the workload's first small op untimed; raise if it is wrong."""
        for label, op in self.cycle(-1)[:1]:
            _, reason = op()
            if reason not in (None, "over_cap"):
                raise RuntimeError(f"warm-up op {label}: {reason}")


# ----------------------------------------------------------------------
# ladder


def _widest(d) -> int:
    """Legs of the widest vertex: edge ends plus interface pins."""
    pins = d.inputs + d.outputs
    return max((d.degree(v) + pins.count(v) for v in d.vertices()), default=0)


def _relabeled(text: str, rng: random.Random) -> str:
    """The same diagram as .zxg text with node names permuted and the node
    and edge lines shuffled."""
    lines = text.splitlines()
    names = [ln.split()[1] for ln in lines if ln.startswith("node ")]
    new = {old: f"v{k}" for k, old in enumerate(rng.sample(names, len(names)))}

    def rename(line: str) -> str:
        head, *rest = line.split()
        if head == "node":
            rest[0] = new[rest[0]]
        else:
            rest = [new[r] for r in rest]
        return " ".join([head, *rest])

    nodes = [rename(ln) for ln in lines if ln.startswith("node ")]
    edges = [rename(ln) for ln in lines if ln.startswith("edge ")]
    io = [rename(ln) for ln in lines if ln.startswith(("inputs", "outputs"))]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return "\n".join(nodes + edges + io) + "\n"


class Ladder(Workload):
    """n CNOTs composed on two wires, n log-uniform over 4..80.

    The sizes are the log-midpoints of 5 equal strata of log n (5, 10, 18,
    33, 59), three ladders of each per cycle, the same in every run.  The
    seed relabels and reorders each ladder's .zxg text (node names and line
    order, hence vertex ids and the order in which rules find their matches)
    and shuffles the ops of each cycle.  See NOTES.md for why the sizes are
    not drawn from the seed.
    """

    name = "ladder"
    min_cycles = 5  # 75 ops: op_tail_ms is p86.7

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        strata, copies, lo, hi = (5, 3, 4, 80) if scale == "full" else (3, 1, 4, 16)
        rng = self.rng(0)
        sizes = [round(lo * (hi / lo) ** ((i + 0.5) / strata)) for i in range(strata)]
        base = {n: zxcalc.serialize_zxg(self._ladder(n)) for n in sizes}
        self.inputs = [(n, _relabeled(base[n], rng)) for n in sizes for _ in range(copies)]
        self.notes = {
            "sizes": [n for n, _ in self.inputs],
            "share_n_ge_13": sum(n >= 13 for n, _ in self.inputs) / len(self.inputs),
        }

    @staticmethod
    def _ladder(n: int):
        d = zxcalc.protocols.cnot()
        for _ in range(n - 1):
            d = d.compose(zxcalc.protocols.cnot())
        return d

    def op(self, n: int, text: str):
        reference = CNOT if n % 2 else np.eye(4, dtype=complex)

        def run():
            t0 = clock()
            d = zxcalc.parse_zxg(text)
            out, _ = zxcalc.rewrite.simplify(d, strategy="safe")
            m_in = zxcalc.evaluate(d)
            with self.quiet():
                wide = _widest(out)
            if wide > EVAL_CAP:
                # evaluate() would build a 2**wide spider tensor before its
                # own cap check: 2 GiB for n = 25, 64 TiB for n = 40
                latency = clock() - t0
                return latency, ("over_cap" if same_up_to_scalar(m_in, reference)
                                 else "wrong_result")
            m_out = zxcalc.evaluate(out)
            latency = clock() - t0
            ok = same_up_to_scalar(m_in, reference) and same_up_to_scalar(m_out, reference)
            return latency, None if ok else "wrong_result"

        return run

    def cycle(self, k: int) -> list:
        if k < 0:
            return [(f"n={n}", self.op(n, text)) for n, text in self.inputs[:1]]
        ops = [(f"n={n}", self.op(n, text)) for n, text in self.inputs]
        self.rng(k + 1).shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# paper

# the closed forms the scripted derivations must reach (state vectors or
# maps, big-endian wire order), up to a nonzero scalar
DERIVATION_FINALS = {
    "hopf": np.array([[1, 1], [0, 0]], dtype=complex),  # |0> (<0| + <1|)
    "rule_a": _ket(0, 0, 0, 1),
    "ghz_plug0": _ket(1, 0, 0, 0),
    "ghz_plug1": _ket(0, 0, 0, 1),
    "w_plug0": _ket(0, 1, 1, 0),
    "w_plug1": _ket(1, 0, 0, 0),
    "qkd_core": np.array([[1]], dtype=complex),
}

ONE_Z_PATTERNS = {("z", "x", "x"), ("x", "z", "x"), ("x", "x", "z")}


def _bits(k: int, n: int) -> tuple:
    return tuple((k >> (n - 1 - i)) & 1 for i in range(n))


class Paper(Workload):
    """The paper's checks: SDC 16 cases, n-GHZ SDC, QKD lemmas and
    Monte-Carlo, and the seven derivation replays."""

    name = "paper"
    min_cycles = 16  # 240 ops: op_tail_ms is p95.8

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.ghz_sizes = range(3, 7) if scale == "full" else range(3, 5)
        self.rounds = 10_000 if scale == "full" else 500

    # each check returns True when the library's output matches the reference

    @staticmethod
    def check_sdc(report) -> bool:
        want = {f"{t}/{k}": str(_bits(k, 3)) for t in ("standard", "alternative") for k in range(8)}
        got = {c.case_id: c.actual for c in report.cases}
        return got == want

    @staticmethod
    def check_sdc_n(report, n: int) -> bool:
        outcomes = [c.actual for c in report.cases]
        return (
            len(outcomes) == 2**n
            and len(set(outcomes)) == 2**n
            and all(len(o) == n and set(o) <= {"0", "1"} for o in outcomes)
        )

    @staticmethod
    def check_lemmas(report) -> bool:
        # W = |001> + |010> + |100>: a z- anywhere leaves |00>; given the
        # decider's z+, equal x outcomes have probability 1/3 each and unequal
        # ones 0
        kinds = {"z-minus": 0, "equal": 0, "unequal": 0, "replay": 0}
        for c in report.cases:
            if c.case_id.startswith("z-minus"):
                ok = c.actual == "True"
                kinds["z-minus"] += 1
            elif "unequal" in c.case_id:
                ok = float(c.actual) <= 1e-9
                kinds["unequal"] += 1
            elif "equal" in c.case_id:
                ok = abs(float(c.actual) - 1 / 3) <= 1e-6
                kinds["equal"] += 1
            elif "replay" in c.case_id:
                ok = c.passed
                kinds["replay"] += 1
            else:
                ok = False
            if not ok:
                return False
        return kinds == {"z-minus": 3, "equal": 6, "unequal": 6, "replay": 1}

    @staticmethod
    def check_qkd(report, rounds: int) -> bool:
        # recount from the round log: 3/8 of rounds have one z basis, 2/3 of
        # those see the decider's z+, and then the x outcomes never differ;
        # 5 sigma bands, so a correct simulator practically never fails
        log = report.rounds
        if len(log) != rounds:
            return False
        accepted = [r for r in log if r.bases in ONE_Z_PATTERNS]
        plus = [r for r in accepted if r.outcomes[r.bases.index("z")] == "+"]
        unequal = 0
        for r in plus:
            x = [r.outcomes[i] for i in range(3) if r.bases[i] == "x"]
            unequal += x[0] != x[1]
        if not accepted:
            return False
        p1 = len(accepted) / rounds
        p2 = len(plus) / len(accepted)
        return (
            abs(p1 - 3 / 8) <= 5 * math.sqrt(3 / 8 * 5 / 8 / rounds)
            and abs(p2 - 2 / 3) <= 5 * math.sqrt(2 / 3 * 1 / 3 / len(accepted))
            and unequal == 0
        )

    def check_replay(self, trace, name: str) -> bool:
        with self.quiet():
            final = zxcalc.evaluate(zxcalc.parse_zxg(trace.steps[-1].snapshot))
        return same_up_to_scalar(final, DERIVATION_FINALS[name])

    def _timed(self, call, check):
        def run():
            t0 = clock()
            result = call()
            latency = clock() - t0
            return latency, None if check(result) else "wrong_result"

        return run

    def cycle(self, k: int) -> list:
        P, R = zxcalc.protocols, zxcalc.rewrite
        if k < 0:
            return [("sdc_n3", self._timed(lambda: P.sdc_n_ghz_verify(3),
                                           lambda r: self.check_sdc_n(r, 3)))]
        rng = self.rng(k)
        ops = [("sdc_all", self._timed(lambda: P.sdc_verify_all(), self.check_sdc))]
        for n in self.ghz_sizes:
            ops.append((f"sdc_n{n}", self._timed(
                lambda n=n: P.sdc_n_ghz_verify(n), lambda r, n=n: self.check_sdc_n(r, n))))
        ops.append(("qkd_lemmas", self._timed(lambda: P.qkd_check_lemmas(), self.check_lemmas)))
        # two Monte-Carlo runs make 15 ops: with an odd count the median
        # falls on one op, not between two
        for _ in range(2):
            ops.append(("qkd_mc", self._timed(
                lambda s=rng.randrange(2**31): P.qkd_simulate(self.rounds, seed=s),
                lambda r: self.check_qkd(r, self.rounds))))
        for name in sorted(DERIVATION_FINALS):
            ops.append((f"replay_{name}", self._timed(
                lambda name=name: R.replay_derivation(name),
                lambda t, name=name: self.check_replay(t, name))))
        rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# soundness

SOUNDNESS_PAIRS = [(r, "forward") for r in
                   ("S1", "S2a", "S2b", "B1", "B2", "K1", "K2", "C", "D1", "D2", "E", "HOPF", "A")]
SOUNDNESS_PAIRS += [("S1", "backward"), ("B2", "backward"), ("C", "backward")]
SOUNDNESS_CHECK_SEED = 0  # check_soundness's and the CLI's default seed


class Soundness(Workload):
    """check_soundness for all 16 (rule, direction) pairs, one op per pair.

    Each pair runs as ``zxcalc soundness`` runs it by default: 200
    samples, seed 0.  The random diagrams are therefore the same in every
    cycle and run; the workload seed shuffles the order of the ops in each
    cycle.  NOTES.md says why the check's own seed is fixed.
    """

    name = "soundness"
    min_cycles = 10  # a cycle is 4-6 s, so the window runs past 20 s

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.samples = 200 if scale == "full" else 20
        self.notes = {"samples": self.samples, "check_seed": SOUNDNESS_CHECK_SEED}

    def op(self, rule: str, direction: str, samples: int):
        def run():
            t0 = clock()
            report = zxcalc.rewrite.check_soundness(
                zxcalc.rewrite.get_rule(rule, direction), samples=samples,
                seed=SOUNDNESS_CHECK_SEED)
            latency = clock() - t0
            ok = not report.failures and report.checks > 0
            return latency, None if ok else "wrong_result"

        return run

    def cycle(self, k: int) -> list:
        if k < 0:
            return [("S2a/forward", self.op("S2a", "forward", 5))]
        ops = [(f"{r}/{d}", self.op(r, d, self.samples)) for r, d in SOUNDNESS_PAIRS]
        self.rng(k).shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# cli

DIAGRAM_FILES = ("bell", "cnot", "ghz", "ghz_class4_alternative",
                 "ghz_class4_standard", "hopf_lhs", "w")
EQUAL_PAIRS = [("ghz_class4_standard", "ghz_class4_alternative"),
               ("ghz_class4_alternative", "ghz_class4_standard")]
EQUAL_PAIRS += [(f, f) for f in DIAGRAM_FILES]

# the installed `zxcalc` console script, without depending on an install
CLI_ENTRY = "import sys; from zxcalc.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Cli(Workload):
    """Cold-start zxcalc processes, one at a time; stdout must match the
    bytes the same argv prints through an in-process cli.main()."""

    name = "cli"
    min_cycles = 12  # 108 processes: op_tail_ms is p90.7

    def __init__(self, seed: int, scale: str, root: Path):
        super().__init__(seed, scale)
        self.root = root
        self.env = child_env(root)
        rng = self.rng(0)
        f = lambda: f"diagrams/{rng.choice(DIAGRAM_FILES)}.zxg"  # noqa: E731
        a, b = rng.choice(EQUAL_PAIRS)
        rounds = 200 if scale == "full" else 50
        # 9 processes: an odd count puts the median on one command, and the
        # doubled slowest command (qkd-w3) holds the 24 top samples of the
        # 12-cycle mix, so op_tail_ms (the 11th largest) falls on it
        self.argvs = [
            ["eval", f()],
            ["eval", f()],
            ["equal", f"diagrams/{a}.zxg", f"diagrams/{b}.zxg"],
            ["simplify", f()],
            ["render", f()],
            ["verify", "sdc-ghz"],
            # a fixed Monte-Carlo seed: the command's own 3-sigma bands fail
            # (exit 1) for about 1 seed in 200 by design, not by a defect
            ["verify", "qkd-w3", "--rounds", str(rounds), "--seed", "7"],
            ["verify", "qkd-w3", "--rounds", str(rounds), "--seed", "7"],
            ["derivations"],
        ]
        self.reference = {}
        for argv in self.argvs:
            code, out = self.in_process(argv)
            if code != 0 or not self.content_ok(argv, out):
                raise RuntimeError(f"in-process reference for {argv} failed (exit {code})")
            self.reference[tuple(argv)] = out
        self.notes = {"argvs": [" ".join(a) for a in self.argvs]}

    def in_process(self, argv) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = zxcalc.cli.main(list(argv))
        return code, buf.getvalue().encode("utf-8")

    @staticmethod
    def content_ok(argv, out: bytes) -> bool:
        text = out.decode("utf-8")
        if argv[0] == "verify" and argv[1] == "sdc-ghz":
            return "result: PASS (16/16 cases)" in text
        if argv[0] == "verify":
            return "accepted rounds with unequal shared bits | 0 | 0 | pass" in text
        if argv[0] == "derivations":
            lines = text.splitlines()
            return len(lines) == len(DERIVATION_FINALS) and all(": ok (" in ln for ln in lines)
        if argv[0] == "equal":
            return text.startswith("equal up to scalar")
        return bool(text)

    def op(self, argv):
        ref = self.reference[tuple(argv)]
        label = " ".join(argv)

        def run():
            span = self.tracer.span("cli.process") if self.tracer else contextlib.nullcontext()
            t0 = children_cpu_s()
            with span:
                proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=self.root,
                                      env=self.env, capture_output=True, timeout=120)
            latency = children_cpu_s() - t0  # the child's CPU time
            ok = proc.returncode == 0 and proc.stdout == ref
            if self.replays is not None:
                # the traced run replays the argv in-process, so the layers
                # below cli.main are seen and the tracing overhead measured
                r0 = clock()
                code, out = self.in_process(argv)
                self.replays.append((label, clock() - r0))
                ok = ok and code == 0 and out == ref
            return latency, None if ok else "wrong_result"

        return run

    def cycle(self, k: int) -> list:
        if k < 0:
            return [(self.argvs[0][0], self.op(self.argvs[0]))]
        return [(" ".join(a), self.op(a)) for a in self.argvs]


def make(name: str, seed: int, scale: str, root: Path) -> Workload:
    if name == "cli":
        import zxcalc.cli  # noqa: F401

        return Cli(seed, scale, root)
    return {"ladder": Ladder, "paper": Paper, "soundness": Soundness}[name](seed, scale)


WORKLOADS = ("ladder", "paper", "soundness", "cli")
