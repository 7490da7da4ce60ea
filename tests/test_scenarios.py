import json
from pathlib import Path

import numpy as np
import pytest

from shiftlab import (
    ALL_CHECKS,
    ConfigError,
    InputError,
    load_scenario,
    make_quotient,
    run_scenario,
    scenario_from_json,
)
import oracle
from shiftlab.cli import main
from shiftlab.models import dump_matrix, matrix_to_json, parse_roots
from shiftlab.scenarios import report_to_text, resolve_factor
from shiftlab.tensorized import build_system, f_chain

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def hardy_obj():
    return {
        "label": "hardy-2x2",
        "factors": [
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
        ],
    }


def test_parse_roots_forms():
    got = parse_roots([0.3, [0.1, -0.2], [[0.5, 0.0], 2]])
    assert got == [(0.3 + 0j, 1), (0.1 - 0.2j, 1), (0.5 + 0j, 2)]
    for bad in ([], "roots", [True], [[1, 2, 3]], [[[0.1], 2]], [[[0.1, 0.2], 0.5]]):
        with pytest.raises(InputError):
            parse_roots(bad)
        with pytest.raises(ConfigError):
            resolve_factor({"kind": {"quotient_roots": bad}, "coinvariant": {"prefix": 1}}, 1e-10)


@pytest.mark.parametrize("roots, expected", [
    ([0.3], ((0.3, 1),)),
    ([[0.1, -0.2]], ((0.1 - 0.2j, 1),)),
    ([[[0.5, 0.0], 2]], ((0.5, 2),)),
    ([(0.2j, 2)], ((0.2j, 2),)),
    ([[0.3, 0]], ((0.3, 1),)),  # a pair of reals is a complex value
    ([[0.5, 2]], None),  # 0.5 + 2i lies outside the disc
], ids=["number", "pair", "pair-mult", "complex-mult", "pair-zero-imag", "pair-not-mult"])
def test_library_and_json_read_roots_alike(roots, expected):
    """make_quotient and a quotient_roots factor spec read every root form the same way."""
    roots = roots + [-0.5]
    spec = {"kind": {"quotient_roots": roots}, "coinvariant": {"ideal_roots": [-0.5]}}
    if expected is None:
        with pytest.raises(InputError):
            make_quotient(roots)
        with pytest.raises(ConfigError):
            resolve_factor(spec, 1e-10)
        return
    assert make_quotient(roots).roots == expected + ((-0.5, 1),)
    assert resolve_factor(spec, 1e-10).model.roots == expected + ((-0.5, 1),)


def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        scenario_from_json([])
    with pytest.raises(ConfigError):
        scenario_from_json({"factors": [{"kind": "hardy"}]})  # just one factor
    obj = hardy_obj()
    obj["mystery"] = 1
    with pytest.raises(ConfigError):
        scenario_from_json(obj)
    obj = hardy_obj()
    obj["checks"] = ["chain", "nonsense"]
    with pytest.raises(ConfigError):
        scenario_from_json(obj)
    obj = hardy_obj()
    obj["tol"] = -1
    with pytest.raises(ConfigError):
        scenario_from_json(obj)
    obj = hardy_obj()
    obj["trials"] = 1.5
    with pytest.raises(ConfigError):
        scenario_from_json(obj)


def test_factor_spec_errors():
    base = hardy_obj()
    base["factors"][0] = {"kind": "wavelet", "m": 4, "coinvariant": {"prefix": 2}}
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_json(base))
    base = hardy_obj()
    base["factors"][0] = {"kind": "hardy", "coinvariant": {"prefix": 2}}  # missing m
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_json(base))
    base = hardy_obj()
    base["factors"][0] = {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 9}}
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_json(base))
    base = hardy_obj()
    base["factors"][0] = {"kind": "hardy", "m": 4, "coinvariant": {"ideal_roots": [0.3]}}
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_json(base))


def test_run_hardy_2x2_frozen_values():
    rep = run_scenario(scenario_from_json(hardy_obj()))
    assert rep.dims == [4, 4]
    assert rep.dim_S == 12 and rep.dim_F == 8
    assert rep.x_ranks == [4, 8]
    assert rep.mode == "equality"
    assert rep.failed_hypotheses == []
    ms = rep.multiplicities["S"]
    assert (ms["lower"], ms["upper"], ms["certified"]) == (2, 2, True)
    assert ms["witness_point"] == [[0.0, 0.0], [0.0, 0.0]]
    assert rep.multiplicities["F"]["upper"] == 2
    assert rep.multiplicities["F"]["certified"]
    assert rep.factor_wandering_dims == [1, 1]
    assert rep.wandering_dim_S == 2
    assert rep.passed
    assert list(rep.verdicts) == list(ALL_CHECKS)
    assert all(v["status"] == "pass" for v in rep.verdicts.values())


def test_run_quotient_zeros_downgrades_honestly():
    """A factor whose restriction has no wandering vectors breaks the equality
    hypotheses; the run must fall back to the inequality claim."""
    obj = {
        "factors": [
            {
                "kind": {"quotient_roots": [[[0.3, 0.0], 1], [[-0.5, 0.0], 1]]},
                "coinvariant": {"ideal_roots": [[[0.3, 0.0], 1]]},
            },
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
        ],
    }
    rep = run_scenario(scenario_from_json(obj))
    assert rep.dim_S == 6
    assert rep.mode == "inequality_only"
    assert rep.failed_hypotheses == ["factor_0:gws_restriction", "factor_0:zero_based"]
    assert rep.factor_wandering_dims == [0, 1]
    ms, mf = rep.multiplicities["S"], rep.multiplicities["F"]
    assert ms["certified"] and mf["certified"]
    assert ms["upper"] == 1 and mf["upper"] == 1
    assert rep.verdicts["additive_formula"]["status"] == "pass"
    assert rep.verdicts["additive_formula"]["mode"] == "inequality_only"
    assert rep.passed


def test_non_zero_based_quotient_downgrades(tmp_path):
    """p = z(z+0.5) with ideal (z+0.5): T_1|S_1 = 0, so the restriction has a
    wandering vector, but Q_1 holds no kernel vector of T_1^* (its adjoint
    eigenvalue is -0.5), so the factor is not zero-based.  The run must not
    claim the formula's 1 + 1 = 2; it certifies the true mult(S) = 1."""
    obj = {
        "label": "quotient-not-zero-based",
        "factors": [
            {
                "kind": {"quotient_roots": [[[0.0, 0.0], 1], [[-0.5, 0.0], 1]]},
                "coinvariant": {"ideal_roots": [[[-0.5, 0.0], 1]]},
            },
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
        ],
    }
    scn = scenario_from_json(obj)
    rep = run_scenario(scn)
    assert rep.mode == "inequality_only"
    assert rep.failed_hypotheses == ["factor_0:zero_based"]
    assert rep.hypotheses["factor_0"]["zero_based"] is False
    assert rep.hypotheses["factor_1"]["zero_based"] is True
    ms = rep.multiplicities["S"]
    assert ms["certified"] and ms["lower"] == ms["upper"] == 1

    resolved = [resolve_factor(spec, scn.tol) for spec in scn.factor_specs]
    sys_ = build_system([rf.factor for rf in resolved], tol=scn.tol)
    S = f_chain(sys_).S
    assert oracle.mult_bruteforce(list(sys_.ops), S.basis) == (1, 1)
    assert rep.verdicts["additive_formula"]["status"] == "pass"
    assert rep.passed

    path = tmp_path / "not-zero-based.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 0


def test_weighted_bergman_pair_regression():
    """weighted_bergman(1.5) x bergman, m = 12, prefixes 6: the shift-lemma
    closure once raised LinAlgError (SVD did not converge); it must certify
    mult(S) = mult(F) = 2 and pass."""
    rep = run_scenario(scenario_from_json({
        "factors": [
            {"kind": {"weighted_bergman": 1.5}, "m": 12, "coinvariant": {"prefix": 6}},
            {"kind": "bergman", "m": 12, "coinvariant": {"prefix": 6}},
        ],
        "seed": 42,
    }))
    ms, mf = rep.multiplicities["S"], rep.multiplicities["F"]
    assert ms["certified"] and ms["upper"] == 2
    assert mf["certified"] and mf["upper"] == 2
    assert rep.mode == "equality"
    assert rep.verdicts["shift_lemma"]["agreed"] == 6
    assert rep.passed


def test_run_noncyclic_inequality():
    rep = run_scenario(load_scenario(SCENARIO_DIR / "noncyclic-inequality.json"))
    assert rep.mode == "inequality_only"
    assert rep.failed_hypotheses == ["factor_0:cyclic"]
    assert rep.hypotheses["factor_0"]["cyclic_bounds"] == [2, 2]
    assert rep.multiplicities["S"]["upper"] == 2
    assert rep.multiplicities["S"]["certified"]
    assert rep.passed


def test_shipped_scenarios_all_pass():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        rep = run_scenario(load_scenario(path))
        assert rep.passed, f"{path.name}: {rep.verdicts}"


def test_checks_subset_run_exactly_once_in_order():
    obj = hardy_obj()
    obj["checks"] = ["gws", "chain", "additive_formula", "gws"]  # duplicate collapses
    rep = run_scenario(scenario_from_json(obj))
    assert list(rep.verdicts) == ["gws", "chain", "additive_formula"]


def test_report_json_is_deterministic():
    r1 = run_scenario(scenario_from_json(hardy_obj())).to_json()
    r2 = run_scenario(scenario_from_json(hardy_obj())).to_json()
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_json_serializes(tmp_path):
    rep = run_scenario(scenario_from_json(hardy_obj()))
    text = json.dumps(rep.to_json(), sort_keys=True)
    back = json.loads(text)
    assert back["dim_S"] == 12
    assert back["multiplicities"]["S"]["upper"] == 2
    assert "elapsed_seconds" in back
    summary = report_to_text(rep)
    assert "mult(S) = 2 (certified)" in summary


def test_matrix_and_basis_files(tmp_path):
    T = np.zeros((3, 3), dtype=complex)
    T[1, 0] = 1.0
    T[2, 1] = 1.0
    dump_matrix(T, tmp_path / "op.json")
    dump_matrix(np.eye(3)[:, :1], tmp_path / "q.json")
    obj = {
        "factors": [
            {"kind": {"matrix_file": "op.json"}, "coinvariant": {"basis_file": "q.json"}},
            {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}},
        ],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(obj))
    rep = run_scenario(load_scenario(path))
    assert rep.label == "scn"
    assert rep.dim_S == 5  # 6 - 1*1
    assert rep.passed


def test_inline_matrix_and_basis():
    obj = {
        "factors": [
            {
                "kind": {"matrix": matrix_to_json(np.diag([1.0], -1))},
                "coinvariant": {"basis": [[1], [0]]},
            },
            {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}},
        ],
    }
    rep = run_scenario(scenario_from_json(obj))
    assert rep.dims == [2, 2]
    assert rep.passed


def test_custom_weights_factor():
    obj = {
        "factors": [
            {"kind": {"custom_weights": [0.9, 0.4]}, "coinvariant": {"prefix": 1}},
            {"kind": {"weighted_bergman": 3}, "m": 3, "coinvariant": {"prefix": 2}},
        ],
    }
    rep = run_scenario(scenario_from_json(obj))
    assert rep.dims == [3, 3]
    assert rep.mode == "equality"
    assert rep.passed
    with pytest.raises(ConfigError):
        obj["factors"][0]["m"] = 7  # inconsistent with weight count
        run_scenario(scenario_from_json(obj))


def test_non_coinvariant_basis_is_config_error():
    obj = {
        "factors": [
            {"kind": "hardy", "m": 3, "coinvariant": {"basis": [[0], [1], [0]]}},
            {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}},
        ],
    }
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_json(obj))


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_scenario(bad)
