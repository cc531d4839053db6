"""What each entry point imports, and the public names that survive it.

The CLI imports inside each command what that command runs, and ``zxcalc``
resolves its evaluation names on first use, so a fresh ``render`` or
``simplify`` never imports numpy.  Each pin below runs in a fresh process:
in this one, the other tests have loaded everything already.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

import zxcalc
import zxcalc.rewrite
from zxcalc import graph, phase, semantics
from zxcalc.cli import _build_parser
from zxcalc.rewrite import derivations, rules, soundness

from cli_process import run_python_process

ROOT = Path(__file__).resolve().parent.parent
SIMPLIFY = importlib.import_module("zxcalc.rewrite.simplify")  # the package's `simplify` is the function

# runs ``argv`` through cli.main with stdout swallowed, then prints the exit
# code and which of the listed modules are loaded
_MAIN_THEN_MODULES = """
import contextlib, io, sys
from zxcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in ("numpy", "zxcalc.semantics", "zxcalc.rewrite",
                                "zxcalc.protocols") if m in sys.modules))
"""


def loaded_after_main(*argv: str) -> tuple[int, set]:
    proc = run_python_process("-c", _MAIN_THEN_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    code, *modules = proc.stdout.decode().split()
    return int(code), set(modules)


def test_import_zxcalc_loads_no_numpy():
    proc = run_python_process("-c", "import sys, zxcalc; print('numpy' in sys.modules)")
    assert proc.stdout.decode().split() == ["False"], proc.stderr.decode()


@pytest.mark.parametrize("argv", [
    ("render", "diagrams/w.zxg"),
    ("simplify", "diagrams/hopf_lhs.zxg", "--strategy", "full"),
    ("rewrite", "S1", "diagrams/ghz_class4_standard.zxg"),
])
def test_commands_that_never_evaluate_load_no_numpy(argv):
    code, modules = loaded_after_main(*(str(ROOT / a) if a.endswith(".zxg") else a for a in argv))
    assert code == 0
    assert "numpy" not in modules
    assert "zxcalc.semantics" not in modules


@pytest.mark.parametrize("argv", [
    ("eval", "diagrams/bell.zxg"),
    ("equal", "diagrams/ghz_class4_standard.zxg", "diagrams/ghz_class4_alternative.zxg"),
])
def test_evaluating_commands_load_no_rewrite_or_protocols(argv):
    code, modules = loaded_after_main(*(str(ROOT / a) if a.endswith(".zxg") else a for a in argv))
    assert code == 0
    assert modules == {"numpy", "zxcalc.semantics"}


def test_import_rewrite_loads_all_its_modules_and_no_numpy():
    # bench/tracer.py finds zxcalc.rewrite.soundness and .derivations in
    # sys.modules after a bare `import zxcalc.rewrite`: keep the package eager
    proc = run_python_process("-c", "import sys, zxcalc.rewrite; print(*sorted(sys.modules))")
    modules = set(proc.stdout.decode().split())
    assert {f"zxcalc.rewrite.{m}" for m in ("rules", "simplify", "soundness", "derivations")} <= modules
    assert "numpy" not in modules
    assert "zxcalc.semantics" not in modules


def _home(name: str, candidates) -> list:
    return [m for m in candidates if name in vars(m)]


@pytest.mark.parametrize("name", zxcalc.__all__)
def test_zxcalc_names_are_their_home_modules_objects(name):
    homes = _home(name, (phase, graph, semantics))
    assert homes
    assert all(getattr(zxcalc, name) is vars(m)[name] for m in homes)


@pytest.mark.parametrize("name", zxcalc.rewrite.__all__)
def test_rewrite_names_are_their_home_modules_objects(name):
    homes = _home(name, (rules, SIMPLIFY, soundness, derivations))
    assert homes
    assert all(getattr(zxcalc.rewrite, name) is vars(m)[name] for m in homes)


def test_moved_names_are_reexported_unchanged():
    assert zxcalc.evaluate is semantics.evaluate
    assert zxcalc.ResourceLimitError is semantics.ResourceLimitError is graph.ResourceLimitError
    assert semantics.DEFAULT_TOLERANCE is graph.DEFAULT_TOLERANCE
    assert semantics.DEFAULT_MAX_QUBITS is graph.DEFAULT_MAX_QUBITS
    assert graph.ResourceLimitError.__bases__ == (Exception,)  # not a DiagramError


def test_star_import_and_dir_list_the_lazy_names():
    namespace = {}
    exec("from zxcalc import *", namespace)
    assert set(zxcalc.__all__) <= set(namespace)
    assert namespace["equal_up_to_scalar"] is semantics.equal_up_to_scalar
    assert set(zxcalc.__all__) <= set(dir(zxcalc))
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        zxcalc.nonsense


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
    return action.choices


def _option(parser, dest):
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action


def test_parser_vocabulary_is_the_librarys():
    commands = _subparsers(_build_parser())
    for name in ("rewrite", "soundness"):
        assert tuple(_option(commands[name], "rule").choices) == zxcalc.rewrite.RULE_NAMES
        direction = _option(commands[name], "direction")
        assert tuple(direction.choices) == (zxcalc.rewrite.FORWARD, zxcalc.rewrite.BACKWARD)
        assert direction.default == zxcalc.rewrite.FORWARD
    assert tuple(_option(commands["derivations"], "name").choices) == zxcalc.rewrite.DERIVATION_NAMES
    protocols = _subparsers(commands["verify"])
    with_tol = [commands["equal"], commands["soundness"], protocols["sdc-ghz"], protocols["qkd-w3"]]
    for p in with_tol:
        assert _option(p, "tol").default == semantics.DEFAULT_TOLERANCE
    for p in (commands["eval"], commands["equal"]):
        assert _option(p, "max_qubits").default == semantics.DEFAULT_MAX_QUBITS


# sha256 of stdout + stderr as printed before the CLI moved its imports into
# the commands, at an 80-column width; argparse's layout differs between
# Python versions, so the bytes are pinned on the one they were taken on
HELP_DIGESTS = {
    ("--help",): "62fb13f7566fe73ca60db6e750df605405f3875caf8f65d13c7926a002a6cde3",
    ("rewrite", "--help"): "f29561aa6dcfa6466f1e444860bd2081a751c16758f6772d6352f7c5a9e9b83a",
    ("derivations", "--help"): "dcc8d705fe885deaa3cd886925df0405e00c433503854baefbe986c087185ca3",
    ("rewrite", "NOPE", "diagrams/bell.zxg"): "c85b5bb2ebc23999d8f5307368d4c72bbfbb0e8410c941342199a49ad42564ef",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help bytes pinned on Python 3.11")
@pytest.mark.parametrize("argv", list(HELP_DIGESTS))
def test_help_and_usage_errors_print_the_pinned_bytes(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    proc = run_python_process("-m", "zxcalc.cli", *argv)
    assert proc.returncode == (2 if "NOPE" in argv else 0)
    assert hashlib.sha256(proc.stdout + proc.stderr).hexdigest() == HELP_DIGESTS[argv]
