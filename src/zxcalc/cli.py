"""Command-line front end.

Subcommands: eval, equal, rewrite, simplify, soundness, derivations,
verify sdc-ghz [--n N], verify qkd-w3 [--rounds R], render.  Each takes
only the flags it reads; any other is a usage error.

Exit codes: 0 on success or verification pass, 1 on verification failure,
2 on usage, parse or resource errors.  All randomness flows from --seed;
repeated invocations with the same arguments produce byte-identical output.

Imports: each command imports what it runs inside its ``_cmd_*`` function,
not at the top of this module, so ``render`` and ``simplify`` start without
numpy and ``eval`` without the rewrite package.  Building the parser and
handling errors read only numpy-free modules (``graph``).  This paragraph
is left out of ``--help``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .graph import (
    DEFAULT_MAX_QUBITS, DEFAULT_TOLERANCE, DiagramError, ResourceLimitError, parse_zxg, serialize_zxg,
    to_dot,
)

if TYPE_CHECKING:
    import numpy as np

# the parser's vocabulary, stated here so that building it loads no rule
# module; tests/test_imports.py pins these to zxcalc.rewrite's
_FORWARD, _BACKWARD = "forward", "backward"
_RULE_NAMES = ("S1", "S2a", "S2b", "B1", "B2", "K1", "K2", "C", "D1", "D2", "E", "HOPF", "A")
_DERIVATION_NAMES = ("ghz_plug0", "ghz_plug1", "hopf", "qkd_core", "rule_a", "w_plug0", "w_plug1")

PASS, FAIL, USAGE = 0, 1, 2


def _format_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


def format_matrix(m: np.ndarray) -> str:
    import numpy as np

    rows = []
    for row in np.atleast_2d(m):
        rows.append("  ".join(_format_complex(z) for z in row))
    return "\n".join(rows)


def _read_diagram(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_zxg(fh.read())


def _write_trace(trace, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.render())


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors name a flag it does not know, rather than
    the positional argument argparse gave that flag's value to (``zxcalc
    derivations --tol 0.5`` would otherwise be "invalid choice: '0.5'")."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        known = self._option_string_actions  # an abbreviation is a prefix of its flag
        for flag in (arg.partition("=")[0] for arg in getattr(self, "_argv", ())):
            if flag.startswith("--") and not any(k.startswith(flag) for k in known):
                if not message.startswith("unrecognized arguments"):  # that names it already
                    message = f"unrecognized arguments: {flag}"
                break
        super().error(message)


class _FlagBeforeProtocol(argparse.Action):
    """A ``verify`` flag given before the protocol name: a usage error that
    names the flag, not the value argparse would take for the protocol."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(
            self, f"flags go after the protocol: zxcalc verify {{sdc-ghz,qkd-w3}} {option_string} ..."
        )


_FLAGS = {
    "--tol": dict(type=float, default=DEFAULT_TOLERANCE, help="equality tolerance"),
    "--max-qubits": dict(type=int, default=DEFAULT_MAX_QUBITS, help="wire cap for evaluation"),
    "--seed": dict(type=int, default=0, help="seed for all randomness"),
    "--steps": dict(type=int, default=1000, help="rewrite step limit"),
    "--trace": dict(metavar="PATH", help="write the rewrite trace here"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zxcalc", description=__doc__ and __doc__.partition("\n\nImports:")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, flags, **kwargs):
        p = parent.add_parser(name, **kwargs)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = command(sub, "eval", ["--max-qubits"], help="evaluate a .zxg file to a matrix")
    p.add_argument("file")

    p = command(sub, "equal", ["--tol", "--max-qubits"], help="compare two diagrams up to scalar")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = command(sub, "rewrite", ["--trace"], help="apply a named rule at its first match")
    p.add_argument("rule", choices=_RULE_NAMES)
    p.add_argument("file")
    p.add_argument("--direction", choices=(_FORWARD, _BACKWARD), default=_FORWARD)

    p = command(sub, "simplify", ["--steps", "--trace"], help="normalise a diagram")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("safe", "full"), default="safe")

    p = command(sub, "soundness", ["--tol", "--seed"], help="randomized rule soundness check")
    p.add_argument("rule", choices=_RULE_NAMES)
    p.add_argument("--direction", choices=(_FORWARD, _BACKWARD), default=_FORWARD)
    p.add_argument("--samples", type=int, default=200)

    p = command(sub, "derivations", ["--trace"], help="replay scripted derivations")
    p.add_argument("name", nargs="?", choices=_DERIVATION_NAMES)

    p = sub.add_parser("verify", help="run a protocol verifier")  # flags follow the protocol
    v = p.add_subparsers(dest="protocol", required=True)
    sdc = command(v, "sdc-ghz", ["--tol"])
    sdc.add_argument("--n", type=int, help="verify the n-qubit generalisation instead")
    qkd = command(v, "qkd-w3", ["--tol", "--seed"])
    qkd.add_argument("--rounds", type=int, default=10000)
    flags = dict.fromkeys(f for q in (sdc, qkd) for a in q._actions for f in a.option_strings)
    for flag in flags:
        if flag not in ("-h", "--help"):
            p.add_argument(
                flag, action=_FlagBeforeProtocol, default=argparse.SUPPRESS, help=argparse.SUPPRESS
            )

    p = command(sub, "render", [], help="emit Graphviz DOT")
    p.add_argument("file")
    return parser


def _cmd_eval(args) -> int:
    from .semantics import evaluate

    d = _read_diagram(args.file)
    print(format_matrix(evaluate(d, max_qubits=args.max_qubits)))
    return PASS


def _cmd_equal(args) -> int:
    from .semantics import equal_up_to_scalar, evaluate

    a = evaluate(_read_diagram(args.file_a), max_qubits=args.max_qubits)
    b = evaluate(_read_diagram(args.file_b), max_qubits=args.max_qubits)
    if a.shape != b.shape:
        print(f"not equal: shapes {a.shape} vs {b.shape}")
        return FAIL
    verdict = equal_up_to_scalar(a, b, args.tol)
    if verdict.equal:
        scalar = "both zero" if verdict.scalar is None else _format_complex(verdict.scalar)
        print(f"equal up to scalar λ={scalar} (max residual {verdict.max_residual:.3e})")
        return PASS
    print(f"not equal (max residual {verdict.max_residual:.3e})")
    return FAIL


def _cmd_rewrite(args) -> int:
    from .rewrite import Trace, get_rule

    d = _read_diagram(args.file)
    rule = get_rule(args.rule, args.direction)
    m = next(rule.iter_matches(d), None)
    if m is None:
        print(f"no match for {args.rule} ({args.direction})")
        return FAIL
    out = rule.apply(d, m)
    _write_trace(Trace(d, [(args.rule, rule, m)]), args.trace)
    print(f"# applied {m.summary()}")
    print(serialize_zxg(out), end="")
    return PASS


def _cmd_simplify(args) -> int:
    from .rewrite import simplify

    d = _read_diagram(args.file)
    out, trace = simplify(d, strategy=args.strategy, step_limit=args.steps)
    _write_trace(trace, args.trace)
    print(f"# {len(trace)} steps ({args.strategy})" + (" [truncated]" if trace.truncated else ""))
    print(serialize_zxg(out), end="")
    return PASS


def _cmd_soundness(args) -> int:
    from .rewrite import check_soundness, get_rule

    rule = get_rule(args.rule, args.direction)
    report = check_soundness(rule, samples=args.samples, seed=args.seed, tol=args.tol)
    print(report.render())
    return PASS if report.passed else FAIL


def _cmd_derivations(args) -> int:
    from .rewrite import ReplayError, replay_derivation

    names = (args.name,) if args.name else _DERIVATION_NAMES
    rendered = []
    code = PASS
    for name in names:
        try:
            trace = replay_derivation(name)
        except ReplayError as exc:
            print(f"{name}: FAIL {exc}")
            code = FAIL
            continue
        print(f"{name}: ok ({len(trace)} steps: {', '.join(trace.rules_used())})")
        if args.name or args.trace:
            text = trace.render()
            if args.name:  # a single requested derivation prints its full trace
                print(text, end="")
            rendered.append(f"derivation {name}\n" + text)
    if args.trace and rendered:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rendered))
    return code


def _cmd_verify(args) -> int:
    from .protocols import qkd_check_lemmas, qkd_simulate, sdc_n_ghz_verify, sdc_verify_all

    if args.protocol == "sdc-ghz":
        if args.n is not None:
            report = sdc_n_ghz_verify(args.n, tol=args.tol)
        else:
            report = sdc_verify_all(tol=args.tol)
        print(report.render())
        return PASS if report.passed else FAIL
    lemmas = qkd_check_lemmas(tol=args.tol)
    print(lemmas.render())
    mc = qkd_simulate(args.rounds, seed=args.seed)
    print(mc.render())
    return PASS if (lemmas.passed and mc.passed) else FAIL


def _cmd_render(args) -> int:
    print(to_dot(_read_diagram(args.file)), end="")
    return PASS


_COMMANDS = {
    "eval": _cmd_eval,
    "equal": _cmd_equal,
    "rewrite": _cmd_rewrite,
    "simplify": _cmd_simplify,
    "soundness": _cmd_soundness,
    "derivations": _cmd_derivations,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "tol", 1) <= 0:
            raise ValueError("--tol must be positive")
        if getattr(args, "rounds", 1) < 1:  # before the lemma report reaches stdout
            raise ValueError("rounds must be >= 1")
        if getattr(args, "max_qubits", 1) < 1 or getattr(args, "steps", 1) < 1:
            raise ValueError("--max-qubits and --steps must be positive")
        return _COMMANDS[args.command](args)
    except (DiagramError, ResourceLimitError, ValueError, OSError, MemoryError) as exc:
        bare = isinstance(exc, MemoryError) and not str(exc)  # numpy's names the allocation
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
