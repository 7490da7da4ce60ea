"""Every check in ALL_CHECKS is a recorded fact or a measurement.

A recorded fact is a constant in every report, and a test proves why it cannot
be anything else.  A measured check has a planted-defect test: an input, or a
patched step of ``run_scenario``, that makes its verdict fail.  README's check
table states the same partition, row by row, and the last test here keeps the
two in step.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from shiftlab import ALL_CHECKS, Subspace, load_scenario, run_scenario, scenario_from_json

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

EMPTINESS = "tests/test_tensorized.py::test_chain_and_block_structure_hold_for_every_emptiness_pattern"
SLOT_DEFECT = "tests/test_checks.py::test_a_Q_coinvariant_only_to_1e_8_fails_the_slot_residuals"

# check -> the test that proves it (FACTS) or plants a defect it fails (MEASURED)
FACTS = {
    "chain": EMPTINESS,
    "block_structure": EMPTINESS,
    "gws": "tests/test_checks.py::test_a_generating_W_S_is_the_witness_of_mult_S",
}
MEASURED = {
    "projection_identities": "tests/test_checks.py::test_a_scaled_Q_fails_the_projection_identities",
    "semi_invariance": SLOT_DEFECT,
    "commutativity": SLOT_DEFECT,
    "power_identity": SLOT_DEFECT,
    "shift_lemma": "tests/test_scenarios.py::test_a_one_sided_shift_fails_the_shift_lemma",
    "additive_formula":
        "tests/test_checks.py::test_a_misread_zero_based_hypothesis_fails_the_additive_formula",
}


@pytest.mark.parametrize("lean", [0.0, 1e-8])
def test_a_Q_coinvariant_only_to_1e_8_fails_the_slot_residuals(lean):
    """Hardy 4 with Q = span(e_0, e_1 + lean e_3), so T^H Q leaves Q by ``lean``,
    within tol = 1e-7, with Hardy 3 prefix 1.  At lean 1e-8, semi-invariance,
    commutativity and the power identity each read 1e-8 > check_tol and fail.  Q
    is orthonormalized and S is its complement, so U_s stays unitary and the
    projection identities pass.  At lean 0 all four pass."""
    obj = {"factors": [{"kind": "hardy", "m": 4,
                        "coinvariant": {"basis": [[1, 0], [0, 1], [0, 0], [0, lean]]}},
                       {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}],
           "tol": 1e-7, "check_tol": 1e-9}
    rep = run_scenario(scenario_from_json(obj))
    assert rep.residuals["coinvariance"] == pytest.approx(lean, abs=1e-16)
    for name in ("semi_invariance", "commutativity", "power_identity"):
        v = rep.verdicts[name]
        assert v["max_residual"] == pytest.approx(lean, rel=1e-6, abs=1e-15), name
        assert v["status"] == ("fail" if lean else "pass"), name
    assert rep.verdicts["projection_identities"]["status"] == "pass"


@pytest.mark.parametrize("scale", [1.0, 1.01])
def test_a_scaled_Q_fails_the_projection_identities(monkeypatch, scale):
    """No scenario file can fail the projection identities: ``orthonormalize`` and
    ``complement_within`` keep U_s = [Q_s | S_s] unitary.  So the first factor of
    hardy 4 x 4 k2 gets the basis scale * Q from a patched ``resolve_factor``: at
    1.01 the identities read 1.01^2 - 1 = 0.0201 and fail, and the run still
    returns its report, as E is not re-checked for orthonormality."""
    sc = importlib.import_module("shiftlab.scenarios")
    real = sc.resolve_factor

    def scaled(spec, tol, base_dir="."):
        f = real(spec, tol, base_dir)
        if spec.get("label") == "scaled":
            f = dataclasses.replace(f, Q=Subspace(scale * f.Q.basis, _checked=True))
        return f

    monkeypatch.setattr(sc, "resolve_factor", scaled)
    obj = {"factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}, "label": "scaled"},
                       {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}}]}
    v = run_scenario(scenario_from_json(obj)).verdicts["projection_identities"]
    assert v["max_residual"] == pytest.approx(scale ** 2 - 1, abs=1e-15)
    assert v["status"] == ("fail" if scale > 1 else "pass")


@pytest.mark.parametrize("misread", [False, True])
def test_a_misread_zero_based_hypothesis_fails_the_additive_formula(monkeypatch, misread):
    """small-sweep/1/sweep-50: weighted Bergman 1.5 on C^2 with prefix 1, and
    C[z]/(z(z + 0.5)) with ideal (z + 0.5), whose Q carries only the adjoint
    eigenvalue -0.5.  The run certifies mult(S) = 1 in inequality_only mode,
    with zero_based failed, and passes.  With ``_factor_hypotheses`` patched to
    pass zero_based, it enters equality and certifies mult(S) = 1 against the
    paper's sum 2, so the check fails."""
    sc = importlib.import_module("shiftlab.scenarios")
    real = sc._factor_hypotheses

    def zero_based(factors, scn):
        hyp, failed = real(factors, scn)
        for record in hyp.values():
            record["zero_based"] = True
            record["ok"] = all(record[name] for name in sc._HYPOTHESES)
        return hyp, [f for f in failed if not f.endswith(":zero_based")]

    if misread:
        monkeypatch.setattr(sc, "_factor_hypotheses", zero_based)
    obj = {"factors": [{"kind": {"weighted_bergman": 1.5}, "m": 2, "coinvariant": {"prefix": 1}},
                       {"kind": {"quotient_roots": [0, -0.5]},
                        "coinvariant": {"ideal_roots": [-0.5]}}]}
    rep = run_scenario(scenario_from_json(obj))
    v = rep.verdicts["additive_formula"]
    assert v["mode"] == ("equality" if misread else "inequality_only")
    assert rep.failed_hypotheses == ([] if misread else ["factor_1:zero_based"])
    assert v["mult_S"]["certified"] and v["mult_S"]["upper"] == 1
    assert v["predicted_sum"] == v["distinguished_dim"] == 2
    assert v["status"] == ("fail" if misread else "pass")


def test_a_generating_W_S_is_the_witness_of_mult_S():
    """gws's status is recorded as "pass": the verdict's content is has_gws.  dim W_S
    is S's corank at 0, a lower bound of mult(S), and a generating W_S is a witness
    of mult(S) <= dim W_S, so mult(S) = dim W_S, certified, whenever has_gws.  The
    shipped scenarios show both sides: W_S generates but in quotient-zeros."""
    seen = set()
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        rep = run_scenario(load_scenario(path))
        v, mult_S = rep.verdicts["gws"], rep.multiplicities["S"]
        assert v["status"] == "pass" and v["wandering_dim"] == rep.wandering_dim_S
        if v["has_gws"]:
            assert mult_S["lower"] == mult_S["upper"] == v["wandering_dim"], path.stem
        assert v["applicable"] == (v["has_gws"] and mult_S["certified"]), path.stem
        seen.add(v["has_gws"])
    assert seen == {False, True}


TABLE_ROW = re.compile(r"^\| `(\w+)` \| (fact|measured) \| `(tests/\w+\.py)::(\w+)`", re.M)


def test_readme_check_table_matches_the_partition():
    """README's check table has one row per ALL_CHECKS name, with the kind and the
    test that this module's FACTS and MEASURED give it, and each test exists."""
    assert set(FACTS).isdisjoint(MEASURED) and set(FACTS) | set(MEASURED) == set(ALL_CHECKS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = TABLE_ROW.findall(readme)
    assert sorted(name for name, *_ in rows) == sorted(ALL_CHECKS)
    for name in ALL_CHECKS:
        assert len(re.findall(rf"^\| `{name}` \|", readme, re.M)) == 1, name
    for name, kind, path, test in rows:
        assert (FACTS if kind == "fact" else MEASURED).get(name) == f"{path}::{test}", name
        assert re.search(rf"^def {test}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), test
