import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftlab.cli import main
from shiftlab.models import dump_matrix, matrix_from_json

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
HARDY = str(SCENARIO_DIR / "hardy-2x2.json")
QUOTIENT = str(SCENARIO_DIR / "quotient-zeros.json")


def test_run_text_output(capsys):
    code = main(["run", HARDY])
    out = capsys.readouterr().out
    assert code == 0
    assert "mult(S) = 2 (certified)" in out
    assert "result: PASS" in out


def test_run_json_output(capsys):
    code = main(["run", HARDY, "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim_S"] == 12
    assert rep["passed"] is True
    assert rep["x_ranks"] == [4, 8]


def test_run_writes_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["run", HARDY, "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["multiplicities"]["S"]["upper"] == 2


def test_suite_runs_all_scenarios(capsys):
    code = main(["suite", str(SCENARIO_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert "4/4 scenarios passed" in out
    for name in ("hardy-2x2", "mixed-3", "quotient-zeros", "noncyclic-inequality"):
        assert name in out


def test_suite_on_empty_directory(tmp_path, capsys):
    assert main(["suite", str(tmp_path)]) == 2
    assert "no scenario files" in capsys.readouterr().err


def test_missing_scenario_is_exit_2(capsys):
    assert main(["run", "does-not-exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()


def test_failed_check_is_exit_1(tmp_path, capsys):
    """An over-tight residual threshold turns real rounding into a failure."""
    obj = json.loads((SCENARIO_DIR / "quotient-zeros.json").read_text())
    obj["check_tol"] = 1e-18
    path = tmp_path / "too-strict.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_zero_S_scenario_runs_every_check(tmp_path, capsys):
    """Q_i = C^2 in both slots makes S = 0: every shift-lemma draw from S is the
    zero vector, whose closure is 0 under either tuple, so the run passes."""
    identity = {"kind": "hardy", "m": 2, "coinvariant": {"basis": [[1, 0], [0, 1]]}}
    path = tmp_path / "zero-S.json"
    path.write_text(json.dumps({"factors": [identity, identity]}))
    assert main(["run", str(path), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim_S"] == 0 and rep["passed"] is True
    assert rep["verdicts"]["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    assert rep["verdicts"]["gws"]["has_gws"] is True


def test_linalg_error_is_exit_1(monkeypatch, capsys):
    """A numerical routine that does not converge ends in an error line, not a traceback."""
    def fail(scn):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("shiftlab.cli.run_scenario", fail)
    assert main(["run", HARDY]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SVD did not converge" in err


def test_model_dump_shorthand(capsys):
    assert main(["model", "dump", "wb2:4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 4
    T = matrix_from_json(payload["matrix"])
    k = np.arange(3)
    assert np.allclose(np.diag(T, -1), np.sqrt((k + 1) / (k + 2)))
    assert payload["weights"] == pytest.approx(list(np.sqrt((k + 1) / (k + 2))))


def test_model_dump_from_factor_file(tmp_path, capsys):
    spec = tmp_path / "factor.json"
    spec.write_text(json.dumps({"kind": {"quotient_roots": [0.3, -0.5]}}))
    assert main(["model", "dump", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2
    assert payload["roots"] == [
        {"value": [0.3, 0.0], "multiplicity": 1},
        {"value": [-0.5, 0.0], "multiplicity": 1},
    ]


def test_model_dump_bad_shorthand(capsys):
    assert main(["model", "dump", "fourier:4"]) == 2
    assert main(["model", "dump", "hardy:four"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["hardy:0", "wb0:3", "dirichlet:-2", "zero-size.json"])
def test_model_dump_invalid_model_is_exit_2(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero-size.json").write_text(json.dumps({"kind": "hardy", "m": 0}))
    assert main(["model", "dump", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "model dump"])
@pytest.mark.parametrize("kind", [
    {"weighted_bergman": "x"}, {"custom_weights": ["a"]}, {"weighted_bergman": True},
], ids=["alpha-string", "weight-string", "alpha-bool"])
def test_non_numeric_kind_value_is_exit_2(command, kind, tmp_path, capsys):
    factor = {"kind": kind, "m": 3, "coinvariant": {"prefix": 1}}
    path = tmp_path / "spec.json"
    if command == "run":
        path.write_text(json.dumps({"factors": [factor, factor]}))
    else:
        path.write_text(json.dumps(factor))
    assert main(command.split() + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["matrix_file", "basis_file"])
@pytest.mark.parametrize("content", [None, "not json", "\xff"], ids=["missing", "not-json", "not-utf8"])
def test_unreadable_matrix_or_basis_file_is_exit_2(key, content, tmp_path, capsys):
    """A scenario whose matrix or basis file is absent or not JSON is a config error."""
    dump_matrix(np.diag([1.0], -1), tmp_path / "op.json")
    if content is not None:
        (tmp_path / "bad.json").write_bytes(content.encode("latin-1"))
    factor = {"kind": {"matrix_file": "op.json"}, "coinvariant": {"prefix": 1}}
    if key == "matrix_file":
        factor["kind"] = {"matrix_file": "bad.json"}
    else:
        factor["coinvariant"] = {"basis_file": "bad.json"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"factors": [factor, factor]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad.json" in err


@pytest.mark.parametrize("factor", [
    {"kind": {"matrix": [[0, 0], [1, 0]]}, "m": 5},
    {"kind": {"custom_weights": [0.9, 0.4]}, "m": 3.0},
    {"kind": "hardy", "m": 3, "lable": "typo"},
], ids=["matrix-wrong-m", "custom-float-m", "unknown-key"])
def test_model_spec_m_and_keys_are_checked(factor, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(factor))
    assert main(["model", "dump", str(path)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("text", ["not json", "[[1, 2], [3]]"])
def test_closure_undecodable_vectors_is_exit_2(text, tmp_path, capsys):
    vectors = tmp_path / "vectors.json"
    vectors.write_text(text)
    assert main(["closure", "hardy:2", str(vectors)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read vectors file") and err.count("\n") == 1


def test_closure_command(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    dump_matrix(np.eye(4)[:, :1], gen)
    assert main(["closure", "hardy:4", str(gen)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 4

    tail = tmp_path / "tail.json"
    dump_matrix(np.eye(4)[:, 3:], tail)
    assert main(["closure", "hardy:4", str(tail)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 1
    basis = matrix_from_json(payload["basis"])
    assert np.allclose(np.abs(basis[:, 0]), np.eye(4)[:, 3])


def test_closure_dimension_mismatch(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    dump_matrix(np.eye(3)[:, :1], gen)
    assert main(["closure", "hardy:4", str(gen)]) == 2
    capsys.readouterr()


def test_seed_and_trials_overrides(capsys):
    code = main(["run", HARDY, "--seed", "7", "--trials", "8", "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["settings"]["seed"] == 7
    assert rep["settings"]["trials"] == 8
    assert rep["multiplicities"]["S"]["upper"] == 2  # answer is seed-independent


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_uncertified_multiplicity_is_exit_1(capsys):
    """Where W_S does not generate, no generator trials leave mult(S) an uncertified
    bracket: exit 1, and the text says FAIL."""
    assert main(["run", QUOTIENT, "--trials", "0"]) == 1
    out = capsys.readouterr().out
    assert "(not certified)" in out
    assert "result: FAIL" in out and "result: PASS" not in out


def test_wandering_subspaces_certify_without_generator_trials(capsys):
    """hardy-2x2's W_S and W_F generate, so no random trial is needed."""
    assert main(["run", HARDY, "--trials", "0", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    for key in ("S", "F"):
        res = rep["multiplicities"][key]
        assert (res["lower"], res["upper"], res["certified"], res["trials_used"]) == (2, 2, True, 0)
    assert rep["verdicts"]["gws"]["has_gws"] is True


def test_suite_with_uncertified_multiplicity_is_exit_1(tmp_path, capsys):
    (tmp_path / "quotient-zeros.json").write_text(Path(QUOTIENT).read_text())
    assert main(["suite", str(tmp_path), "--trials", "0"]) == 1
    out = capsys.readouterr().out
    assert "mult(S) = [" in out
    assert "[FAIL] quotient-zeros" in out and "[PASS]" not in out
    assert "0/1 scenarios passed" in out


@pytest.mark.parametrize("key", ["tol", "check_tol", "angle_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_tolerance_in_json_is_exit_2(key, value, tmp_path, capsys):
    obj = json.loads(Path(HARDY).read_text())
    obj[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("override", [
    ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol=-1e-9"],
    ["--trials", "-3"], ["--seed", "-1"],
], ids=lambda o: " ".join(o))
@pytest.mark.parametrize("command", ["run", "suite"])
def test_bad_setting_override_is_exit_2(command, override, capsys):
    target = HARDY if command == "run" else str(SCENARIO_DIR)
    assert main([command, target] + override) == 2
    assert _one_error_line(capsys)


def test_closure_bad_tol_is_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    dump_matrix(np.eye(4)[:, :1], gen)
    for tol in ("nan", "0"):
        assert main(["closure", "hardy:4", str(gen), "--tol", tol]) == 2
        assert _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["model", "dump", "hardy:3", "--tol", "1e-8"], ["model", "dump", "hardy:3", "--trials", "3"],
    ["model", "dump", "hardy:3", "--seed", "3"], ["model", "dump", "hardy:3", "--format", "json"],
    ["closure", "hardy:4", "GEN", "--trials", "3"], ["closure", "hardy:4", "GEN", "--seed", "3"],
    ["closure", "hardy:4", "GEN", "--format", "text"],
], ids=" ".join)
def test_options_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    """model dump reads only --out, and closure only --tol and --out: any other
    setting is refused with exit 2 rather than accepted and ignored."""
    gen = tmp_path / "gen.json"
    dump_matrix(np.eye(4)[:, :1], gen)
    with pytest.raises(SystemExit) as exc:
        main([str(gen) if a == "GEN" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["matrix", "basis", "closure"])
def test_bool_in_nested_rows_is_exit_2(where, tmp_path, capsys):
    hardy = {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}}
    if where == "matrix":
        factor = {"kind": {"matrix": [[0, 0], [True, 0]]}, "coinvariant": {"prefix": 1}}
    else:
        factor = {"kind": "hardy", "m": 2, "coinvariant": {"basis": [[True], [0]]}}
    path = tmp_path / "scenario.json"
    if where == "closure":
        path.write_text(json.dumps([[True], [0]]))
        argv = ["closure", "hardy:2", str(path)]
    else:
        path.write_text(json.dumps({"factors": [factor, hardy]}))
        argv = ["run", str(path)]
    assert main(argv) == 2
    assert _one_error_line(capsys)


def test_cli_import_does_not_load_scipy():
    """scipy is a test-only dependency: the program never imports it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, shiftlab.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
