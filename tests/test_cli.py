import subprocess
import sys
from pathlib import Path

import pytest

from zxcalc.cli import main
from zxcalc.graph import parse_zxg, serialize_zxg
from zxcalc.protocols import cnot, ghz_class_state, ghz_state


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
    bell = Path(__file__).resolve().parent.parent / "diagrams" / "bell.zxg"
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


def test_soundness_cli(capsys):
    code, out, _ = run_cli(capsys, "soundness", "S1", "--samples", "30", "--seed", "2")
    assert code == 0
    assert "0 failures" in out


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


def test_render_dot(cnot_file, capsys):
    code, out, _ = run_cli(capsys, "render", cnot_file)
    assert code == 0
    assert out.startswith("graph zx {")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_value_exit_2(cnot_file, capsys):
    code, _, err = run_cli(capsys, "eval", cnot_file, "--tol", "-1")
    assert code == 2


def _run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "zxcalc.cli", *argv],
        capture_output=True,
        timeout=300,
    )


def test_cli_byte_determinism():
    first = _run_subprocess("verify", "sdc-ghz")
    second = _run_subprocess("verify", "sdc-ghz")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    third = _run_subprocess("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    fourth = _run_subprocess("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    assert third.returncode == fourth.returncode == 0
    assert third.stdout == fourth.stdout
