import hashlib
import shlex
from pathlib import Path

import pytest

from zxcalc.cli import _build_parser, main
from zxcalc.graph import parse_zxg, serialize_zxg
from zxcalc.phase import Scalar
from zxcalc.protocols import cnot, ghz_class_state, ghz_state, w_state
from zxcalc.rewrite import BACKWARD, DERIVATION_NAMES, FORWARD, RULE_NAMES, replay_derivation
from zxcalc.semantics import evaluate

from cli_process import run_cli_process
from oracles import exactly_equal

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"

# sha256 over the render() of every derivation, then the `rewrite --trace` file
# ("" when there is no match) of every diagrams/*.zxg x (rule, direction)
TRACES_DIGEST = "977a3ba542ded857dadc10b32bf11b05dda55e7f68089f9f660f167ed691e387"


@pytest.fixture
def cnot_file(tmp_path):
    path = tmp_path / "cnot.zxg"
    path.write_text(serialize_zxg(cnot()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_matrix(cnot_file, capsys):
    code, out, _ = run_cli(capsys, "eval", cnot_file)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert all(len(r.split("  ")) == 4 for r in rows)
    assert "0.707107" in out


def test_eval_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.zxg"
    bad.write_text("node a Q\n")
    code, _, err = run_cli(capsys, "eval", str(bad))
    assert code == 2
    assert "line 1" in err


def test_eval_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "/nonexistent.zxg")
    assert code == 2
    assert "error" in err


def test_eval_resource_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "ghz.zxg"
    path.write_text(serialize_zxg(ghz_state(6)))
    code, _, err = run_cli(capsys, "eval", str(path), "--max-qubits", "3")
    assert code == 2
    assert "cap" in err


def test_equal_tables(tmp_path, capsys):
    a = tmp_path / "a.zxg"
    b = tmp_path / "b.zxg"
    a.write_text(serialize_zxg(ghz_class_state(4, "standard")))
    b.write_text(serialize_zxg(ghz_class_state(4, "alternative")))
    code, out, _ = run_cli(capsys, "equal", str(a), str(b))
    assert code == 0
    assert out.startswith("equal up to scalar λ=")


def test_equal_failure_exit_1(tmp_path, capsys):
    a = tmp_path / "a.zxg"
    b = tmp_path / "b.zxg"
    a.write_text(serialize_zxg(ghz_class_state(0)))
    b.write_text(serialize_zxg(ghz_class_state(5)))
    code, out, _ = run_cli(capsys, "equal", str(a), str(b))
    assert code == 1
    assert out.startswith("not equal")


def test_rewrite_missing_direction_exit_2(capsys):
    bell = DIAGRAMS / "bell.zxg"
    code, out, err = run_cli(capsys, "rewrite", "D1", "--direction", "backward", str(bell))
    assert code == 2
    assert out == ""
    assert err == "error: rule D1 has no backward direction\n"


def test_rewrite_applies_first_match(tmp_path, capsys):
    d = ghz_state().plugged("output", 0, "z+")
    src = tmp_path / "plugged.zxg"
    src.write_text(serialize_zxg(d))
    code, out, _ = run_cli(capsys, "rewrite", "B1", str(src))
    assert code == 0
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#"))
    parse_zxg(body)


def test_rewrite_no_match_exit_1(cnot_file, capsys):
    code, out, _ = run_cli(capsys, "rewrite", "HOPF", cnot_file)
    assert code == 1
    assert "no match" in out


def test_simplify_writes_trace(tmp_path, capsys):
    d = ghz_state().plugged("output", 0, "z+")
    src = tmp_path / "p.zxg"
    src.write_text(serialize_zxg(d))
    trace_path = tmp_path / "trace.txt"
    code, out, _ = run_cli(
        capsys, "simplify", str(src), "--strategy", "safe", "--trace", str(trace_path)
    )
    assert code == 0
    text = trace_path.read_text()
    assert text.startswith("step 0: start")
    assert "step 1: " in text


def test_derivation_and_rewrite_traces_pinned(tmp_path, capsys):
    texts = [replay_derivation(name).render() for name in DERIVATION_NAMES]
    pairs = [(name, FORWARD) for name in RULE_NAMES] + [
        (name, BACKWARD) for name in ("S1", "B2", "C")
    ]
    trace_path = tmp_path / "trace.txt"
    for path in sorted(DIAGRAMS.glob("*.zxg")):
        for name, direction in pairs:
            trace_path.write_text("")
            argv = ["rewrite", name, str(path), "--direction", direction]
            run_cli(capsys, *argv, "--trace", str(trace_path))
            texts.append(trace_path.read_text())
    assert len(texts) == 119
    digest = hashlib.sha256("\x00".join(texts).encode()).hexdigest()
    assert digest == TRACES_DIGEST


def test_soundness_cli(capsys):
    code, out, _ = run_cli(capsys, "soundness", "S1", "--samples", "30", "--seed", "2")
    assert code == 0
    assert "0 failures" in out


def test_soundness_cli_reports_vacuous_and_skipped(capsys):
    code, out, _ = run_cli(capsys, "soundness", "HOPF")
    assert code == 0
    assert out == (
        "soundness HOPF (forward): 235 applications over 200 samples, seed 0: "
        "0 failures, 63 vacuous, 0 skipped\n"
    )


def test_derivations_cli(capsys, tmp_path):
    trace_path = tmp_path / "d.txt"
    code, out, _ = run_cli(capsys, "derivations", "hopf", "--trace", str(trace_path))
    assert code == 0
    assert "hopf: ok (6 steps" in out
    assert "derivation hopf" in trace_path.read_text()


def test_verify_sdc_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "sdc-ghz")
    assert code == 0
    assert "result: PASS (16/16 cases)" in out


def test_verify_sdc_n4(capsys):
    code, out, _ = run_cli(capsys, "verify", "sdc-ghz", "--n", "4")
    assert code == 0
    assert "distinct_outcomes: 16" in out


def test_verify_qkd(capsys):
    code, out, _ = run_cli(capsys, "verify", "qkd-w3", "--rounds", "500", "--seed", "7")
    assert code == 0
    assert "qkd-w3-lemmas" in out and "qkd-w3-mc" in out


@pytest.mark.parametrize("rounds", ["0", "-5"])
def test_verify_qkd_refuses_rounds_below_1_before_any_output(capsys, rounds):
    message = "error: rounds must be >= 1\n"
    assert run_cli(capsys, "verify", "qkd-w3", "--rounds", rounds) == (2, "", message)


def test_verify_flags_follow_the_protocol(capsys):
    # after the protocol name the flags take effect
    code, out, _ = run_cli(capsys, "verify", "qkd-w3", "--rounds", "200", "--seed", "3")
    assert code == 0
    assert "seed: 3" in out
    args = _build_parser().parse_args(["verify", "sdc-ghz", "--tol", "0.5"])
    assert args.tol == 0.5
    # before it they are a usage error, not silently replaced by defaults
    for argv in (["--tol", "0.5", "sdc-ghz"], ["--seed", "3", "qkd-w3"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["--tol", "0.5", "sdc-ghz"], ["--seed", "3", "qkd-w3"], ["--rounds", "9", "qkd-w3"]]
)
def test_verify_flag_before_the_protocol_is_named(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (
        f"zxcalc verify: error: argument {argv[0]}: flags go after the protocol: "
        f"zxcalc verify {{sdc-ghz,qkd-w3}} {argv[0]} ..."
    )


def test_render_dot(cnot_file, capsys):
    code, out, _ = run_cli(capsys, "render", cnot_file)
    assert code == 0
    assert out.startswith("graph zx {")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_value_exit_2(cnot_file, capsys):
    code, _, err = run_cli(capsys, "equal", cnot_file, cnot_file, "--tol", "-1")
    assert code == 2
    assert err == "error: --tol must be positive\n"
    for command, flag in (("eval", "--max-qubits"), ("simplify", "--steps")):
        code, out, err = run_cli(capsys, command, cnot_file, flag, "0")
        assert (code, out) == (2, "")
        assert err == "error: --max-qubits and --steps must be positive\n"


SHARED_FLAGS = {"--tol": "0.5", "--max-qubits": "4", "--seed": "3", "--steps": "9", "--trace": "t"}
COMMAND_FLAGS = {  # each command with its positionals -> the shared flags it reads
    "eval x.zxg": ("--max-qubits",),
    "equal a.zxg b.zxg": ("--tol", "--max-qubits"),
    "rewrite S1 x.zxg": ("--trace",),
    "simplify x.zxg": ("--steps", "--trace"),
    "soundness S1": ("--tol", "--seed"),
    "derivations": ("--trace",),
    "verify sdc-ghz": ("--tol",),
    "verify qkd-w3": ("--tol", "--seed"),
    "render x.zxg": (),
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    for flag, value in SHARED_FLAGS.items():
        argv = [*command.split(), flag, value]
        if flag in COMMAND_FLAGS[command]:
            args = _build_parser().parse_args(argv)
            assert str(getattr(args, flag[2:].replace("-", "_"))) == value
            continue
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["derivations", "--tol", "0.5"], ["verify", "--steps", "3", "sdc-ghz"]]
)
def test_unread_flag_before_a_positional_is_named(argv, capsys):
    # argparse alone gives the flag's value to the optional positional and
    # blames that ("argument name: invalid choice: '0.5'")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {argv[1]}")


HOSTILE_SCALARS = {
    "pi node": ("scalar 1 0 1\n", "error: line 1: a scalar node of phase 1 (pi) has the factor 0\n"),
    "malformed": (
        "node z Z 0\nscalar 1 1/0\n",
        "error: line 2: scalar needs an integer power and phase tokens\n",
    ),
    "overflow": ("scalar 5000 0\n", "error: the scalar is out of floating-point range\n"),
    "2100 diamonds": (
        "".join(f"node d{k} D\n" for k in range(2100)),
        "error: the scalar is out of floating-point range\n",
    ),
}


@pytest.mark.parametrize("command", ["eval", "simplify", "render"])
@pytest.mark.parametrize("case", HOSTILE_SCALARS)
def test_hostile_scalar_exit_2(tmp_path, capsys, case, command):
    text, message = HOSTILE_SCALARS[case]
    path = tmp_path / "hostile.zxg"
    path.write_text(text)
    assert run_cli(capsys, command, str(path)) == (2, "", message)


def test_hostile_scalar_has_no_traceback_or_warning(tmp_path):
    text, message = HOSTILE_SCALARS["2100 diamonds"]
    path = tmp_path / "hostile.zxg"
    path.write_text(text)
    proc = run_cli_process("eval", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message.encode())


def test_value_out_of_float_range_exit_2(tmp_path, capsys):
    # 1,100 free spiders, each the scalar 2: the value is 2**1100
    path = tmp_path / "hostile.zxg"
    path.write_text("".join(f"node z{k} Z 0\n" for k in range(1100)))
    message = "error: the value is out of floating-point range\n"
    assert run_cli(capsys, "eval", str(path)) == (2, "", message)
    proc = run_cli_process("eval", str(path))  # no warning reaches stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message.encode())


def test_subnormal_value_exit_2(tmp_path, capsys):
    # 2^-1050 times the W state: every amplitude is subnormal
    d = w_state()
    d.scalar = Scalar(-2100)
    path = tmp_path / "subnormal.zxg"
    path.write_text(serialize_zxg(d))
    message = "error: the value is out of floating-point range\n"
    assert run_cli(capsys, "eval", str(path)) == (2, "", message)


def test_memory_error_exit_2(cnot_file, capsys, monkeypatch):
    from zxcalc import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "eval", exhausted)
    assert run_cli(capsys, "eval", cnot_file) == (2, "", "error: out of memory\n")

    def too_big(args):
        raise MemoryError("Unable to allocate 256. GiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "eval", too_big)
    assert run_cli(capsys, "eval", cnot_file) == (
        2, "", "error: Unable to allocate 256. GiB for an array\n"
    )


def test_empty_error_messages_are_not_called_out_of_memory(cnot_file, capsys, monkeypatch):
    from zxcalc import cli

    def fails(args):
        raise ValueError

    monkeypatch.setitem(cli._COMMANDS, "eval", fails)
    assert run_cli(capsys, "eval", cnot_file) == (2, "", "error: \n")


def test_huge_phase_token_exit_2_without_traceback(tmp_path):
    # a reduced phase (2*10**400 - 1)/10**400: exact, but no float holds its parts
    path = tmp_path / "hostile.zxg"
    path.write_text(f"node a Z {2 * 10**400 - 1}/{10**400}\nnode i B\nedge a i\noutputs i\n")
    proc = run_cli_process("eval", str(path))
    message = b"error: a phase is out of floating-point range\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)


@pytest.mark.parametrize("strategy", ["safe", "full"])
def test_simplify_prints_a_diagram_of_the_same_value(capsys, strategy):
    """The printed .zxg carries the scalar the rewrites multiplied in."""
    for path in sorted(DIAGRAMS.glob("*.zxg")):
        code, out, _ = run_cli(capsys, "simplify", str(path), "--strategy", strategy)
        assert code == 0
        printed = parse_zxg(out)  # the step-count header is a comment
        assert exactly_equal(evaluate(printed), evaluate(parse_zxg(path.read_text()))), path
    code, out, _ = run_cli(capsys, "simplify", str(DIAGRAMS / "hopf_lhs.zxg"))
    assert "\nscalar -2 0\n" in out


def test_cli_byte_determinism():
    first = run_cli_process("verify", "sdc-ghz")
    second = run_cli_process("verify", "sdc-ghz")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    third = run_cli_process("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    fourth = run_cli_process("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    assert third.returncode == fourth.returncode == 0
    assert third.stdout == fourth.stdout


def _readme_commands() -> list[list[str]]:
    """The ``zxcalc`` lines of README.md's ``sh`` blocks, without the
    program name, comments and ``> file`` redirections."""
    commands, in_sh = [], False
    for line in (DIAGRAMS.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("zxcalc "):
            words = shlex.split(line, comments=True)[1:]
            if ">" in words:
                del words[words.index(">") :]
            commands.append(words)
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "diagrams").symlink_to(DIAGRAMS)
    monkeypatch.chdir(tmp_path)  # --trace files land here
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
