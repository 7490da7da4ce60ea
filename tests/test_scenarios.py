import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftlab import (
    ALL_CHECKS,
    ConfigError,
    InputError,
    Subspace,
    load_scenario,
    make_quotient,
    run_scenario,
    scenario_from_json,
)
import oracle
from shiftlab.cli import main
from shiftlab.models import dump_matrix, matrix_to_json, parse_roots
from shiftlab.multiplicity import OperatorTuple, local_corank
from shiftlab.scenarios import report_to_text, resolve_factor
from shiftlab.tensorized import build_system, f_chain, verify_compression_structure

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
    # equal companion operators mean the same root multiset
    assert np.array_equal(resolve_factor(spec, 1e-10).T, make_quotient(roots).operator)


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
    assert rep.verdicts["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    assert "[PASS] shift_lemma (6/6 draws agreed, 0 marginal)" in report_to_text(rep)


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

    sys_ = build_system([resolve_factor(spec, scn.tol) for spec in scn.factor_specs], tol=scn.tol)
    S = f_chain(sys_).S
    assert oracle.mult_bruteforce(list(oracle.embedded_ops(sys_)), S.basis) == (1, 1)
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
    assert rep.verdicts["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    assert rep.passed


@pytest.mark.parametrize("name, slots, seed", [
    ("pair-1", (("bergman", 10, 3), ("bergman", 10, 3)), 4),
    ("pair-0", (("hardy", 10, 5), ("hardy", 10, 5)), 7),
    ("pair-3", (({"weighted_bergman": 1.5}, 12, 6), ("hardy", 8, 2)), 7),
])
def test_shift_lemma_passes_where_ambient_closures_leaked(name, slots, seed):
    """pair-grid scenarios whose ambient closures of draws from S once left S
    and failed the check: closed inside S, each draw agrees or is marginal."""
    rep = run_scenario(scenario_from_json({
        "label": name,
        "factors": [{"kind": kind, "m": m, "coinvariant": {"prefix": k}} for kind, m, k in slots],
        "checks": ["shift_lemma"],
        "seed": seed,
    }))
    v = rep.verdicts["shift_lemma"]
    assert v["status"] == "pass" and v["draws"] == 6
    assert v["agreed"] + v["marginal"] == 6
    assert rep.succeeded


def test_shift_lemma_marks_a_drop_near_the_cut_marginal():
    """small-sweep seed 20 sweep-189 (dim S = 23): in draw 2 both closures stop
    at 22 of the 23 dimensions they reach at tol, 5 and 2.8 times above the
    cut, and differ by a sine of 0.35.  Measured from the cut, that is a
    near-tie; the smallest kept over the largest dropped value, about 2e3, once
    failed the check on it."""
    rep = run_scenario(scenario_from_json({
        "label": "sweep-189",
        "factors": [
            {"kind": "bergman", "m": 2, "coinvariant": {"prefix": 1}},
            {"kind": "dirichlet", "m": 3, "coinvariant": {"prefix": 1}},
            {"kind": {"quotient_roots": [[[0.3, 0.0], 2], [[0.6, 0.0], 1], [[0.2, 0.4], 1]]},
             "coinvariant": {"ideal_roots": [[[0.3, 0.0], 1]]}},
        ],
        "checks": ["shift_lemma"],
        "seed": 20,
    }))
    assert rep.verdicts["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 4, "marginal": 2}
    assert rep.succeeded


@pytest.mark.parametrize("margin, tampered, expected", [
    (1e6, range(6), {"status": "fail", "draws": 6, "agreed": 0, "marginal": 0}),
    (50.0, [0], {"status": "pass", "draws": 6, "agreed": 5, "marginal": 1}),
    (50.0, range(6), {"status": "fail", "draws": 6, "agreed": 0, "marginal": 6}),
], ids=["wide-disagreement", "near-tie", "all-near-ties"])
def test_shift_lemma_verdict_gates_by_margin(monkeypatch, margin, tampered, expected):
    """A shifted closure that misses one direction of the plain one in the
    ``tampered`` draws: with a wide margin each is a disagreement and the check
    fails; with a margin below SHIFT_LEMMA_MIN_MARGIN it is marginal and the
    check passes on the other draws' agreement, but not when no draw agrees."""
    mm = importlib.import_module("shiftlab.multiplicity")
    sc = importlib.import_module("shiftlab.scenarios")
    assert sc.SHIFT_LEMMA_MIN_MARGIN == 100.0
    scn = scenario_from_json(hardy_obj())
    sys_ = build_system([resolve_factor(spec, scn.tol) for spec in scn.factor_specs], tol=scn.tol)
    chain = f_chain(sys_)
    comp_S = verify_compression_structure(sys_, chain).compressions[0]
    assert sc._shift_lemma_verdict(scn, sys_, chain.S, comp_S) == {
        "status": "pass", "draws": 6, "agreed": 6, "marginal": 0}

    real = mm.krylov_closure
    calls = []

    def lopsided(A, G, tol):
        got = real(A, G, tol=tol)
        calls.append(got.dim)
        draw, shifted = divmod(len(calls) - 1, 2)
        if not shifted or draw not in tampered:
            return got
        return Subspace(got.basis[:, :-1], tol=got.tol, _checked=True, margin=margin)

    monkeypatch.setattr(mm, "krylov_closure", lopsided)
    assert sc._shift_lemma_verdict(scn, sys_, chain.S, comp_S) == expected
    # draws alternate one and two generators; two generate S (mult(S) = 2)
    assert calls == [8, 8, 12, 12] * 3


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


@pytest.mark.parametrize("kind, m", [
    ({"matrix": [[0, 0], [1, 0]]}, 5),
    ({"matrix": [[0, 0], [1, 0]]}, 2.0),
    ({"custom_weights": [0.9, 0.4]}, 3.0),
    ({"quotient_roots": [0.0, -0.5]}, 2.0),
], ids=["matrix-wrong", "matrix-float", "custom-float", "quotient-float"])
def test_factor_m_must_be_the_integer_operator_size(kind, m):
    """One rule for every factor kind: 'm', when given, is an int equal to the size."""
    spec = {"kind": kind, "m": m, "coinvariant": {"prefix": 1}}
    with pytest.raises(ConfigError):
        resolve_factor(spec, 1e-10)
    spec["m"] = 3 if "custom_weights" in kind else 2
    assert resolve_factor(spec, 1e-10).T.shape == (spec["m"],) * 2


@pytest.mark.parametrize("extra", [{"lable": "typo"}, {"label": 7}, {"coinvariant_": {}}],
                         ids=["misspelt-label", "int-label", "unknown-key"])
def test_factor_keys_and_label_are_checked(extra):
    """Factor keys are kind, m, coinvariant and label, and a label is a string."""
    spec = {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}
    assert resolve_factor({**spec, "label": "named"}, 1e-10).label == "named"
    with pytest.raises(ConfigError):
        resolve_factor({**spec, **extra}, 1e-10)


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


@pytest.mark.parametrize("key", ["tol", "check_tol", "angle_tol"])
def test_scenario_from_json_rejects_non_finite_tolerances(key):
    """json reads NaN and Infinity; a tolerance must still be finite."""
    for value in ("NaN", "Infinity", "-Infinity"):
        obj = hardy_obj()
        obj[key] = json.loads(value)
        with pytest.raises(ConfigError):
            scenario_from_json(obj)


def _quotient(p_roots, q_roots):
    return {"kind": {"quotient_roots": p_roots}, "coinvariant": {"ideal_roots": q_roots}}


R3 = [[0.3, 0.0], 3]  # (z - 0.3)^3


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "bergman", "m": 5, "coinvariant": {"prefix": 2}}, {0j}),
    ({"kind": {"weighted_bergman": 2.5}, "m": 4, "coinvariant": {"prefix": 1}}, {0j}),
    (_quotient([R3, [[0.2, 0.4], 1], [[-0.5, 0.0], 2]], [[[0.3, 0.0], 2]]),
     {0.3, complex(0.2, 0.4), -0.5}),
    ({"kind": {"matrix": [[0.5, 0, 0], [1, -0.2, 0], [0.3, 1, 0.5]]},
      "coinvariant": {"prefix": 1}}, {0.5, -0.2}),
])
def test_slot_spectrum_per_factor_kind(spec, expected):
    """Shifts give {0}, quotients their roots bit for bit, triangular matrices the diagonal."""
    spectrum = resolve_factor(spec, 1e-10).spectrum
    assert len(spectrum) == len(expected)
    assert set(spectrum) == expected


@pytest.mark.parametrize("factors, want", [
    ([_quotient([R3], [[[0.3, 0.0], 2]]), {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}}],
     2),
    ([_quotient([R3, [[-0.5, 0.0], 2]], [[[0.3, 0.0], 1]]),
      {"kind": "bergman", "m": 3, "coinvariant": {"prefix": 2}}], 2),
    ([_quotient([R3], [[[0.3, 0.0], 1]]), _quotient([R3], [[[0.3, 0.0], 2]])], 2),
    ([_quotient([R3, [[0.0, 0.0], 1]], [[[0.0, 0.0], 1]]),
      {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}], 1),
])
def test_repeated_roots_certify_from_exact_slot_spectra(factors, want):
    """A triple root's companion eigvals scatter by ~4e-6, where the corank is
    1; the roots themselves give the corank that certifies."""
    rep = run_scenario(scenario_from_json({"factors": factors, "seed": 1}))
    for which in ("S", "F"):
        m = rep.multiplicities[which]
        assert (m["lower"], m["upper"], m["certified"]) == (want, want, True), which


def test_slot_points_alone_give_full_corank():
    """small-sweep's sweep-108 at seed 2: corank 3 at a point of the product of
    slot spectra (a nilpotent matrix slot next to two quotient slots)."""
    nilpotent = [[0.0] * 5 for _ in range(5)]
    nilpotent[1][0], nilpotent[2][0], nilpotent[2][1], nilpotent[3][2] = 0.925, 0.366, 1.176, 1.47
    factors = [
        _quotient([[[0.2, 0.4], 1], [[-0.5, 0.0], 1]], [[[0.2, 0.4], 1]]),
        _quotient([[[0.5, -0.3], 2], [[0.6, 0.0], 1]], [[[0.5, -0.3], 1], [[0.6, 0.0], 1]]),
        {"kind": {"matrix": nilpotent}, "coinvariant": {"prefix": 3}},
    ]
    sys_ = build_system([resolve_factor(f, 1e-10) for f in factors])
    S = f_chain(sys_).S
    points = sys_.joint_spectrum()
    assert len(points) == 4
    comp_S = OperatorTuple(oracle.embedded_ops(sys_)).compressed(S)
    assert max(local_corank(comp_S, S, p) for p in points) == 3
    rep = run_scenario(scenario_from_json({"factors": factors, "seed": 2}))
    for m in rep.multiplicities.values():
        assert (m["lower"], m["upper"], m["certified"]) == (3, 3, True)


def test_scenario_evaluates_each_joint_eigenvalue_once(monkeypatch):
    """hardy-2x2: every slot spectrum is {0}, so each of the four multiplicity
    calls (two cyclic tests, mult(S), mult(F)) evaluates one corank."""
    mm = importlib.import_module("shiftlab.multiplicity")  # the package exports a function of that name
    calls = []
    real = mm.local_corank

    def counting(A, L, lam, tol=None):
        calls.append(lam)
        return real(A, L, lam, tol=tol)

    monkeypatch.setattr(mm, "local_corank", counting)
    rep = run_scenario(load_scenario(SCENARIO_DIR / "hardy-2x2.json"))
    assert rep.succeeded
    assert calls == [(0j,), (0j,), (0j, 0j), (0j, 0j)]


def test_a_run_without_the_shift_lemma_closes_S_once(monkeypatch):
    """mult(S) closes W_S first, and the gws verdict reads that closure: with
    every check but the shift lemma, one closure acts on S's coordinates."""
    mm = importlib.import_module("shiftlab.multiplicity")
    tz = importlib.import_module("shiftlab.tensorized")
    dims = []
    real = mm.krylov_closure

    def counting(A, G, **kw):
        dims.append(mm._as_tuple(A).dim)
        return real(A, G, **kw)

    monkeypatch.setattr(mm, "krylov_closure", counting)
    monkeypatch.setattr(tz, "krylov_closure", counting)
    obj = {
        "factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}} for _ in range(3)],
        "checks": [c for c in ALL_CHECKS if c != "shift_lemma"],
    }
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and rep.dim_S == 56
    assert dims.count(56) == 1
    assert rep.verdicts["gws"]["has_gws"] and rep.multiplicities["S"]["trials_used"] == 0


def test_a_conjugated_jordan_factor_keeps_its_generating_wandering_subspace():
    """A unitarily conjugated nilpotent matrix factor has clustered eigvals
    near 0 but not 0, so the origin is never sampled and the corank bound is
    1.  W_S (two vectors) still generates S: mult(S) closes it, brackets
    [1, 2] without a random draw, and has_gws stays True."""
    Qr, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    T = Qr @ np.diag(np.ones(3), -1) @ Qr.T
    obj = {"factors": [
        {"kind": {"matrix": matrix_to_json(T)}, "coinvariant": {"basis": matrix_to_json(Qr[:, :2])}},
        {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}},
    ], "seed": 1}
    scn = scenario_from_json(obj)
    assert 0 not in resolve_factor(obj["factors"][0], scn.tol).spectrum
    rep = run_scenario(scn)
    S = rep.multiplicities["S"]
    assert (S["lower"], S["upper"], S["certified"], S["trials_used"]) == (1, 2, False, 0)
    assert rep.verdicts["gws"] == {"status": "pass", "has_gws": True, "wandering_dim": 2,
                                   "applicable": False}


def test_structure_path_forms_no_dense_operator(monkeypatch):
    """A cube-structure-style run with every check, the shift lemma included,
    binds no N x N array to a name in any Python frame: S, its chain and the
    tuple's compressions come from kind-blocks and slot blocks, and the system
    has no dense T~_i to build.  In multiplicity the tuple is compressed only at
    slot size, once per factor: the factor's wandering subspace and its gws
    test share that compression, and wandering_E reuses both, as it reuses the
    factor's one coinvariant_eigenpairs call.  The shift lemma closes inside S
    under the compression the structure check made.  The wandering subspaces,
    the generator search and E stay in the coordinates of their space: those
    frames bind no array with N rows."""
    tz = importlib.import_module("shiftlab.tensorized")
    mm = importlib.import_module("shiftlab.multiplicity")
    obj = {
        "factors": [
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}},
            {"kind": "bergman", "m": 3, "coinvariant": {"prefix": 1}},
            {"kind": "dirichlet", "m": 2, "coinvariant": {"prefix": 1}},
        ],
        "seed": 3,
    }
    N = 4 * 3 * 2

    compressions = []
    real_compress = mm.compress
    monkeypatch.setattr(mm, "compress", lambda T, s: compressions.append(s) or real_compress(T, s))
    eigen_calls = []
    real_eigenpairs = tz.coinvariant_eigenpairs
    monkeypatch.setattr(tz, "coinvariant_eigenpairs",
                        lambda T, Q: eigen_calls.append(Q) or real_eigenpairs(T, Q))

    seen, local_only = [], {"wandering_subspace", "multiplicity", "wandering_E"}

    def scan(frame, values):
        name = frame.f_code.co_name
        for v in values:
            if isinstance(v, np.ndarray) and (v.shape == (N, N) or name in local_only
                                              and v.ndim and v.shape[0] == N):
                seen.append(f"{name} ({frame.f_code.co_filename})")

    def local(frame, event, arg):
        scan(frame, list(frame.f_locals.values()) + ([arg] if event == "return" else []))
        return local

    def tracer(frame, event, arg):
        scan(frame, frame.f_locals.values())
        return local

    scn = scenario_from_json(obj)
    sys.settrace(tracer)
    try:
        rep = run_scenario(scn)
    finally:
        sys.settrace(None)
    assert rep.succeeded and rep.dims == [4, 3, 2]
    assert list(rep.verdicts) == list(ALL_CHECKS)
    assert rep.verdicts["shift_lemma"]["agreed"] == 6
    assert not hasattr(tz.TensorSystem, "ops")
    assert not hasattr(build_system([resolve_factor(f, scn.tol) for f in obj["factors"]]), "ops")
    assert seen == []
    assert [s.ambient_dim for s in compressions] == [4, 3, 2]
    assert [Q.ambient_dim for Q in eigen_calls] == [4, 3, 2]
