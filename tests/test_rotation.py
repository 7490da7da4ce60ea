"""A change of basis cannot change the answer.

Each factor (T, Q) of a scenario, given again as the matrix V T V^H and the
basis V Q for a seeded unitary V (``rotated`` in ``tools/report_diff.py``), is
the same tuple in another basis, so its run has the same mode, dimensions and
multiplicities.  Rotated, no factor is triangular and none has given roots, so
every slot spectrum is the one ``tensor_factor`` certifies from eigvals.
"""

import numpy as np
import pytest

from shiftlab import (
    ConfigError,
    ModelError,
    Subspace,
    matrix_to_json,
    run_scenario,
    scenario_from_json,
    tensor_factor,
)
from shiftlab.scenarios import resolve_factor
from test_report_diff import _tool

HARDY_3_K1 = {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}


def answer(rep):
    """What a change of basis may not move: the mode, the dimensions and both brackets."""
    return (rep.mode, rep.dim_S, rep.dim_F, rep.chain_dims,
            {k: (m["lower"], m["upper"], m["certified"]) for k, m in rep.multiplicities.items()})


def _scenarios(group):
    """(key, Scenario) for the shipped scenarios, the criterion-4 sweep, or 40 of
    small-sweep's 200 random scenarios at seed 1, drawn by default_rng(0)."""
    tool = _tool()
    if group == "shipped":
        return tool.shipped_scenarios()
    if group == "criterion-4":
        return tool.criterion_4_scenarios()
    sweep = [(key, scn) for key, scn in tool.workload_scenarios()
             if key.startswith("small-sweep/1/sweep-")]
    return [sweep[i] for i in sorted(np.random.default_rng(0).choice(len(sweep), 40, replace=False))]


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "small-sweep"])
def test_a_rotated_scenario_gives_the_unrotated_answer(group):
    """Every factor rotated by its own V, drawn in order from default_rng(7)."""
    scenarios = _scenarios(group)
    for (key, scn), (_, rot) in zip(scenarios, _tool().rotated_scenarios(scenarios)):
        assert answer(run_scenario(rot)) == answer(run_scenario(scn)), key


def _jordan_blocks(*blocks):
    """(+) J_k(mu) over the (k, mu) given, lower triangular, as a JSON matrix."""
    m = sum(k for k, _ in blocks)
    T, at = np.zeros((m, m)), 0
    for k, mu in blocks:
        T[at:at + k, at:at + k] = mu * np.eye(k) + np.eye(k, k=-1)
        at += k
    return T.tolist()


@pytest.mark.parametrize("factor", [
    {"kind": "hardy", "m": 12, "coinvariant": {"prefix": 3}},
    {"kind": "dirichlet", "m": 20, "coinvariant": {"prefix": 4}},
    {"kind": "bergman", "m": 30, "coinvariant": {"prefix": 5}},
    {"kind": "dirichlet", "m": 40, "coinvariant": {"prefix": 7}},
    {"kind": {"matrix": _jordan_blocks((1, 0.0), (5, 0.0), (5, 0.1))}, "coinvariant": {"prefix": 1}},
], ids=["hardy-12-k3", "dirichlet-20-k4", "bergman-30-k5", "dirichlet-40-k7", "two-jordan-blocks"])
def test_a_rotated_defective_factor_certifies_the_unrotated_answer(factor):
    """Each factor (x) hardy 3 k1 certifies mult(S) = 2.  Rotated, the factor's
    eigvals scatter about each defective eigenvalue by up to (eps ||T||)^(1/m),
    0.4 at dirichlet 40, and its spectrum is their clusters' means, the unrotated
    spectrum to rounding.  In 0 (+) J_5(0) (+) J_5(0.1) with Q = span(e_1), S holds
    both Jordan blocks, and at tol 1e-10 the rounding of (T - z)^5 would put 0.1 in
    the kernel at 0: counted by deflation, each ring is one eigenvalue."""
    scn = scenario_from_json({"factors": [factor, HARDY_3_K1], "seed": 1})
    rot = _tool().rotated(scn, np.random.default_rng(7))
    want, got = (resolve_factor(s.factor_specs[0], scn.tol).spectrum for s in (scn, rot))
    assert len(got) == len(want) and np.abs(np.subtract(got, want)).max() < 1e-12
    want = answer(run_scenario(scn))
    assert want[-1]["S"] == (2, 2, True)
    assert answer(run_scenario(rot)) == want


@pytest.mark.parametrize("ideal, mult_S, points", [([0.3], 1, 4), ([[[-0.4, 0.0], 1]], 2, 3)],
                         ids=["z-0.3", "z+0.4"])
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-8])
def test_a_rotated_clustered_quotient_never_certifies_another_number(delta, ideal, mult_S, points):
    """Roots 0, 0.3, 0.3 + delta and -0.4 twice, with ideal (z - 0.3) or (z + 0.4),
    (x) hardy 4 k1.  T is block triangular in [Q | S], so its spectrum is certified
    block by block.  With ideal (z - 0.3), 0.3 is Q's root and 0.3 + delta S's, so
    both are found at every delta.  With ideal (z + 0.4) both lie in S, and at
    delta = 1e-8 rounding moves each of their eigvals by about 1e-8, and S^H T S - z
    at their mean is within tol of a Jordan block, so they are taken as one double
    root: a bracket may then be left uncertified, but it certifies no other number.
    Where the spectrum has all four roots, both brackets keep the unrotated answer."""
    scn = scenario_from_json({"factors": [
        {"kind": {"quotient_roots": [0.0, 0.3, 0.3 + delta, [[-0.4, 0.0], 2]]},
         "coinvariant": {"ideal_roots": ideal}},
        {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 1}}], "seed": 1})
    want = answer(run_scenario(scn))
    assert want[-1] == {"S": (mult_S, mult_S, True), "F": (mult_S, mult_S, True)}
    for seed in (7, 8):
        rot = _tool().rotated(scn, np.random.default_rng(seed))
        found = len(resolve_factor(rot.factor_specs[0], scn.tol).spectrum)
        assert found == (4 if delta >= 1e-4 else points)
        got = answer(run_scenario(rot))
        assert all(got[-1][w] == want[-1][w] or not got[-1][w][2] for w in "SF"), (seed, got)
        assert got == want or found < 4, (seed, got)


def test_a_spectrum_that_no_kernel_check_confirms_is_refused():
    """At tol 1e-17, T - z keeps its rounding above the cut at every eigvals z of a
    rotated diag(0.1, 0.5), so no eigenvalue is certified: tensor_factor raises
    ModelError, and a scenario factor a ConfigError.  Eigvals never stand in."""
    V = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    T = V @ np.diag([0.1, 0.5]) @ V.T
    with pytest.raises(ModelError, match="kernel check"):
        tensor_factor(T, Subspace.full(2), tol=1e-17)
    with pytest.raises(ConfigError, match="kernel check"):
        resolve_factor({"kind": {"matrix": matrix_to_json(T)},
                        "coinvariant": {"basis": matrix_to_json(np.eye(2))}}, 1e-17)
    assert len(tensor_factor(T, Subspace.full(2)).spectrum) == 2
