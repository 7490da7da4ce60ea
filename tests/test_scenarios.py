import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from shiftlab import (
    ALL_CHECKS,
    ConfigError,
    InputError,
    SpaceKind,
    Subspace,
    load_scenario,
    make_quotient,
    make_shift,
    run_scenario,
    same_subspace,
    scenario_from_json,
)
import oracle
from test_acceptance import _random_prefix_scenario
from test_subspaces import _fail_once
from shiftlab.cli import main
from shiftlab.models import dump_matrix, matrix_to_json, parse_roots
from shiftlab.multiplicity import (
    OperatorTuple,
    krylov_closure,
    multiplicity,
    shifted_closure_check,
    wandering_subspace,
)
from shiftlab.scenarios import report_to_text, resolve_factor
from shiftlab.slots import slot_coranks
from shiftlab.tensorized import build_system, f_chain, tensor_factor, verify_compression_structure

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


def test_a_root_outside_the_disc_says_how_to_repeat_a_root():
    """[-0.4, 2] is the one complex root -0.4 + 2i, outside the disc, not -0.4
    twice: the error names both forms, from the library and from JSON alike."""
    hint = r"an \[re, im\] entry is one complex root, and \[\[re, im\], mult\] a repeated one"
    with pytest.raises(InputError, match=hint):
        make_quotient([0.3, [-0.4, 2]])
    with pytest.raises(ConfigError, match=hint):
        resolve_factor({"kind": {"quotient_roots": [0.3, [-0.4, 2]]},
                        "coinvariant": {"prefix": 1}}, 1e-10)
    assert make_quotient([0.3, [[-0.4, 0], 2]]).roots == ((0.3, 1), (-0.4, 2))


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


def test_an_ideal_root_near_a_root_of_p_gives_the_report_of_that_root():
    """quotient_roots [0, 0.3, -0.4] with ideal_roots [0.3 + 5e-10], (x) hardy 3 k1: the
    root matches 0.3 within 1e-9, and q takes 0.3, the root of p it matched, so q
    divides p exactly and the report is [0.3]'s field for field.  With q built from
    the given root, co-invariance was 9.98e-11 and mult(S) was left uncertified."""
    def report(root):
        rep = run_scenario(scenario_from_json({"factors": [
            {"kind": {"quotient_roots": [0, 0.3, -0.4]}, "coinvariant": {"ideal_roots": [root]}},
            {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}]})).to_json()
        del rep["elapsed_seconds"]
        return rep

    exact = report(0.3)
    assert [(m["upper"], m["certified"]) for m in exact["multiplicities"].values()] == [
        (1, True)] * 2 and exact["notes"] == []
    assert report(0.3 + 5e-10) == exact


def test_an_ideal_root_matches_the_nearest_root_of_p():
    """Of p's roots 0.3 and 0.3 + 1e-10, both within 1e-9 of 0.3 + 1e-10, q takes the
    nearest, which the first root in the window is not."""
    model = make_quotient([0.3, 0.3 + 1e-10, -0.4])
    got = importlib.import_module("shiftlab.models")._match_roots(model.roots, [(0.3 + 1e-10, 1)])
    assert got == [(0.3 + 1e-10 + 0j, 1)]


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
    S = oracle.chain_spaces(sys_).S
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
    """small-sweep seed 20 sweep-189 (dim S = 23): a random one-vector draw once
    stopped at 22 of the 23 dimensions, 5 and 2.8 times above the cut, and was
    marked marginal.  The check now tests mult(S)'s witness W_S under each shift
    from the slots, with no decision near its cut, so all six agree (the margin
    gates are test_shift_lemma_verdict_gates_by_margin and
    test_a_slot_draw_near_the_cut_is_marginal)."""
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
    assert rep.verdicts["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    assert rep.succeeded


def scenario_comp_S(obj, tol=None):
    """(Scenario, system, comp_S) for a scenario object, ranked at ``tol`` if given."""
    scn = scenario_from_json(obj)
    scn.tol = tol or scn.tol
    sys_ = build_system([resolve_factor(spec, scn.tol) for spec in scn.factor_specs], tol=scn.tol)
    return scn, sys_, verify_compression_structure(sys_, f_chain(sys_)).compressions[0]


def mult_S_of(scn, sys_, comp_S):
    return multiplicity(comp_S, lambda_samples=sys_.joint_spectrum(),
                        trials=scn.trials, seed=scn.seed, tol=scn.tol)


@pytest.mark.parametrize("margin, lopsided, expected", [
    (1e6, 6, {"status": "fail", "draws": 6, "agreed": 0, "marginal": 0}),
    (1e6, 1, {"status": "fail", "draws": 6, "agreed": 5, "marginal": 0}),
    (50.0, 1, {"status": "pass", "draws": 6, "agreed": 5, "marginal": 1}),
    (50.0, 6, {"status": "fail", "draws": 6, "agreed": 0, "marginal": 6}),
], ids=["wide-disagreement", "one-wide-disagreement", "near-tie", "all-near-ties"])
def test_shift_lemma_verdict_gates_by_margin(monkeypatch, margin, lopsided, expected):
    """The first ``lopsided`` of the six draws disagree, planted through the per-draw
    ``slots.shift_bound``: with a wide margin each is a disagreement and the check
    fails; with a margin below SHIFT_LEMMA_MIN_MARGIN each is marginal, and the check
    passes on the other draws' agreement, but not when no draw agrees."""
    sc = importlib.import_module("shiftlab.scenarios")
    assert sc.SHIFT_LEMMA_MIN_MARGIN == 100.0
    scn, sys_, comp_S = scenario_comp_S(hardy_obj())
    mult_S = mult_S_of(scn, sys_, comp_S)
    assert sc._shift_lemma_verdict(scn, comp_S, mult_S) == {
        "status": "pass", "draws": 6, "agreed": 6, "marginal": 0}

    real = sc.shift_bound

    def lopsided_check(*args):
        return [(False, margin)] * lopsided + real(*args)[lopsided:]

    monkeypatch.setattr(sc, "shift_bound", lopsided_check)
    assert sc._shift_lemma_verdict(scn, comp_S, mult_S) == expected


@pytest.mark.parametrize("weight, expected", [
    (1e-9, {"status": "fail", "draws": 6, "agreed": 0, "marginal": 6}),
    (2e-8, {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}),
], ids=["near-tie", "clear"])
def test_a_slot_draw_near_the_cut_is_marginal(weight, expected):
    """custom weights [1, w, 1] (x) hardy 3 k1 at tol 1e-10: each draw's shifted
    restriction S^H T S - lam - (0 - lam) keeps the singular value w, w / tol from
    the cut, so at w = 1e-9 (margin 10) every draw read from the slots is
    marginal and the check fails, and at w = 2e-8 (margin 200) all six agree."""
    rep = run_scenario(scenario_from_json({
        "factors": [{"kind": {"custom_weights": [1.0, weight, 1.0]}, "coinvariant": {"prefix": 1}},
                    {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}],
        "checks": ["shift_lemma"],
    }))
    assert rep.multiplicities["S"]["certified"] and rep.multiplicities["S"]["upper"] == 2
    assert rep.verdicts["shift_lemma"] == expected


def test_an_exact_all_checks_run_closes_nothing_and_builds_no_compression_to_S(monkeypatch):
    """hardy 4^3 k2 (dim S = 56) with every check: mult(S) certifies W_S by the
    local test, and the shift lemma bounds its six draws from mult(S)'s own rank
    decisions.  So no closure runs, on S's coordinates or any other, and no
    compression is built: the power identity and E's alignment are read from slot
    norms."""
    mm = importlib.import_module("shiftlab.multiplicity")
    dims, real = [], mm._closure
    monkeypatch.setattr(mm, "_closure", lambda ops, G, tol, lam=None:
                        dims.append(ops[0].shape[0]) or real(ops, G, tol, lam))
    built = spy_compressions(monkeypatch)
    obj = {"factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}} for _ in range(3)]}
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and rep.dim_S == 56 and list(rep.verdicts) == list(ALL_CHECKS)
    assert dims == []
    assert built == []
    assert rep.verdicts["shift_lemma"] == {"status": "pass", "draws": 6, "agreed": 6, "marginal": 0}


def test_shift_lemma_without_a_witness_tests_gaussian_vectors(monkeypatch):
    """quotient-zeros with no generator trials: W_S does not generate, so mult(S)
    has no witness.  The check draws ``lower`` seeded Gaussian vectors and reads
    them under each of the six shifts from the slots, as it reads a witness, with
    no closure, and still gives a verdict."""
    scn = load_scenario(SCENARIO_DIR / "quotient-zeros.json")
    scn.trials = 0
    sys_ = build_system([resolve_factor(spec, scn.tol, scn.base_dir)
                         for spec in scn.factor_specs], tol=scn.tol)
    comp_S = verify_compression_structure(sys_, f_chain(sys_)).compressions[0]
    res = multiplicity(comp_S, lambda_samples=sys_.joint_spectrum(), trials=0, seed=scn.seed, tol=scn.tol)
    assert res.witness_generators is None and res.witness_closure is None and res.lower == 1
    assert slot_verdict(monkeypatch, scn, comp_S, res) == {
        "status": "pass", "draws": 6, "agreed": 6, "marginal": 0}


def shift_points(scn, n):
    """The verdict's six points, and its generator after them, drawn again."""
    rng = np.random.default_rng([scn.seed, 101])
    return [0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
            for _ in range(6)], rng


def six_real_closures(scn, comp_S, G):
    """G's closure under comp_S and the {agreed, marginal} counts that its six real
    shifted closures give at the verdict's points, as the verdict counts them."""
    M = importlib.import_module("shiftlab.scenarios").SHIFT_LEMMA_MIN_MARGIN
    closure = krylov_closure(comp_S, G, tol=scn.tol)
    checks = shifted_closure_check(comp_S, G, closure, shift_points(scn, comp_S.n)[0])
    return closure, {"agreed": sum(bool(agree and margin >= M) for agree, margin in checks),
                     "marginal": sum(margin < M for _, margin in checks)}


def slot_verdict(monkeypatch, scn, comp_S, mult_S):
    """The verdict, which must take the slot route: any closure fails."""
    sc = importlib.import_module("shiftlab.scenarios")
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("shiftlab.multiplicity"), "_closure", None)
        return sc._shift_lemma_verdict(scn, comp_S, mult_S)


def _group_objects(group):
    """The criterion-4 sweep, or the scenario objects a workload of
    perfbench/workloads.py generates at one seed (group "<workload>-<seed>"),
    without the shipped files that small-sweep adds."""
    if group == "criterion-4":
        rng = np.random.default_rng(20250815)
        return [_random_prefix_scenario(rng, 2 + t % 2) for t in range(20)]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    name, seed = group.rsplit("-", 1)
    return [case.scenario for case in workloads.WORKLOADS[name](int(seed)) if case.scenario]


@pytest.mark.parametrize("group", ["pair-grid-1", "pair-grid-2", "pair-grid-3", "criterion-4"])
def test_bound_decided_draws_match_six_real_shifted_closures(monkeypatch, group):
    """At the verdict's own six points, its {agreed, marginal} from the shifted
    slots is what six real shifted closures of mult(S)'s witness give under the
    dense compression to S: all six agree on every scenario of the group."""
    for obj in _group_objects(group):
        scn, sys_, comp_S = scenario_comp_S(obj)
        mult_S = mult_S_of(scn, sys_, comp_S)
        verdict = slot_verdict(monkeypatch, scn, comp_S, mult_S)
        _, reference = six_real_closures(scn, comp_S, np.transpose(mult_S.witness_generators))
        assert {k: verdict[k] for k in reference} == reference == {"agreed": 6, "marginal": 0}, obj


def test_a_tiny_tol_decides_every_slot_draw(monkeypatch):
    """hardy 4x4 k2 ranked at tol = 3e-15, where a rounding bound on the witness's
    closure once decided no draw: every slot draw is far from its cuts, and all six
    agree, as six real shifted closures do."""
    scn, sys_, comp_S = scenario_comp_S(hardy_obj(), tol=3e-15)
    res = mult_S_of(scn, sys_, comp_S)
    assert res.certified
    assert slot_verdict(monkeypatch, scn, comp_S, res) == {
        "status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    _, reference = six_real_closures(scn, comp_S, np.transpose(res.witness_generators))
    assert reference == {"agreed": 6, "marginal": 0}


def test_a_near_tie_closure_decides_no_draw(monkeypatch):
    """dirichlet 6^3 k3 at seed 1 with mult(S) taken as one generator and no
    witness: the check's one Gaussian vector cannot pass the local test where
    dim W_mu is 3, and the slots say so clearly under every shift, so the check
    fails with no draw marginal.  Its real closure, the old oracle, stops at 162
    of 189 dimensions with a margin of about 1.7 (a near-tie), so its six
    shifted closures are all marginal."""
    slot = {"kind": "dirichlet", "m": 6, "coinvariant": {"prefix": 3}}
    scn, sys_, comp_S = scenario_comp_S({"factors": [slot] * 3, "seed": 1})
    res = mult_S_of(scn, sys_, comp_S)
    res.lower, res.witness_generators, res.witness_closure = 1, None, None
    assert slot_verdict(monkeypatch, scn, comp_S, res) == {
        "status": "fail", "draws": 6, "agreed": 0, "marginal": 0}
    G = shift_points(scn, comp_S.n)[1].standard_normal((comp_S.dim, 1, 2)) @ [1, 1j]
    closure, reference = six_real_closures(scn, comp_S, G)
    assert closure.dim == 162 and closure.margin < 2
    assert reference == {"agreed": 0, "marginal": 6}


def one_sided_shift(side):
    """A stand-in for ``slots.shift_bound`` that runs the oracle's real shifted draws
    (``oracle.shifted_slot_check``) with each draw's shift applied to one side only: to
    the slot operators T_s ("operator") or to their spectra ("spectrum"), a point at a
    time, with the other side moved by +lam first."""
    slots = importlib.import_module("shiftlab.slots")
    real = oracle.shifted_slot_check

    def check(L, G, coranks, ranked, points, tol):
        G, out = np.transpose(G), []
        for lam in points:
            if side == "operator":  # the spectrum stays: (mu + lam) - lam
                L_, at = L, {tuple(np.add(mu, lam)): c for mu, c in coranks.items()}
            else:  # the operators stay: (T_s + lam_s) - lam_s
                sys_ = build_system([dataclasses.replace(f, T=f.T + z * np.eye(len(f.T)))
                                     for f, z in zip(L.sys.factors, lam)], tol=L.sys.tol)
                L_, at = slots.SlotTuple(sys_, L.at), coranks
            out += real(L_, G, at, [lam], tol)
        return out

    return check


@pytest.mark.parametrize("side", ["operator", "spectrum"])
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_a_one_sided_shift_fails_the_shift_lemma(monkeypatch, path, side):
    """Every shipped scenario passes the shift lemma from the slots, 6 of 6.  Read by
    the oracle's real shifted draws, a shift of each T_s that leaves its spectrum
    behind, or of the spectrum alone, puts no joint eigenvalue where one is sought:
    dim W_{mu - lam} drops to 0, so the witness passes the local test vacuously, but
    it misses mult(S)'s corank at mu, so no draw agrees and the check fails."""
    sc = importlib.import_module("shiftlab.scenarios")
    scn = load_scenario(path)
    scn.checks = ("shift_lemma",)
    assert run_scenario(scn).verdicts["shift_lemma"] == {
        "status": "pass", "draws": 6, "agreed": 6, "marginal": 0}
    monkeypatch.setattr(sc, "shift_bound", one_sided_shift(side))
    v = run_scenario(scn).verdicts["shift_lemma"]
    assert v["status"] == "fail" and v["agreed"] == 0, v


def test_a_slot_frame_rank_that_does_not_move_with_the_shift_disagrees(monkeypatch):
    """Each of the oracle's real draws must keep the unshifted slot frames' widths:
    draw 0, ranked one direction too many at its first frame, disagrees, and the
    other five, still stacked with it, agree as before."""
    scn, sys_, comp_S = scenario_comp_S(hardy_obj())
    res = mult_S_of(scn, sys_, comp_S)
    args = (comp_S, np.transpose(res.witness_generators), res.coranks,
            shift_points(scn, comp_S.n)[0], scn.tol)
    assert [a for a, _ in oracle.shifted_slot_check(*args)] == [True] * 6
    real, calls = oracle.numerical_rank, []

    def one_more_once(s, tol):
        calls.append(len(s))
        return real(s, tol) + (len(calls) == 1)

    monkeypatch.setattr(oracle, "numerical_rank", one_more_once)
    assert [a for a, _ in oracle.shifted_slot_check(*args)] == [False] + [True] * 5


def test_slot_draws_survive_a_non_converging_svd(monkeypatch):
    """When the stacked SVD of the oracle's real draws' slot frames does not converge,
    each matrix's _svd (which retries) gives the same decisions and margins."""
    scn, sys_, comp_S = scenario_comp_S({"factors": [
        {"kind": {"quotient_roots": [[[0.3, 0.0], 2], [[-0.5, 0.0], 1]]},
         "coinvariant": {"ideal_roots": [[[0.3, 0.0], 1]]}},
        {"kind": "bergman", "m": 4, "coinvariant": {"prefix": 2}}]})
    res = mult_S_of(scn, sys_, comp_S)
    args = (comp_S, np.transpose(res.witness_generators), res.coranks,
            shift_points(scn, comp_S.n)[0], scn.tol)
    want = oracle.shifted_slot_check(*args)
    calls = _fail_once(monkeypatch)
    got = oracle.shifted_slot_check(*args)
    assert calls[0][0] == 6 and len(calls) > 6
    assert [a for a, _ in got] == [a for a, _ in want] == [True] * 6
    assert [m for _, m in got] == pytest.approx([m for _, m in want], rel=1e-6)


def synthetic_slot(a, *cuts):
    """A stand-in for a ``TensorFactor`` with Q = 0, diagonal ``adapted`` a I and the given
    singular values as its S and H cuts (``slots.slot_cuts``), for ``slots.shift_bound``."""
    s = np.array(cuts, dtype=float)
    return types.SimpleNamespace(adapted=a * np.eye(len(s)), Q=types.SimpleNamespace(dim=0),
                                 table=lambda fn, z, tol: ((None, s, None), (None, s[:0], None),
                                                           (None, s, None)))


def test_the_bound_lets_each_term_decide_a_draw():
    """shift_bound on synthetic singular values at tol 1e-10: four slots, one local test
    of rank 1 with singular value 1e-6 at a spanning set floor of 1, and six draws, each
    shifted at one slot at most, where the rounding delta of (a - lam) - (z - lam) against
    a - z is 1.5e-8 (a = 1e8) or 1.1e-13 (a = 1e3).  Unshifted draws agree.  Draw 1's delta
    brings a kept 2e-8 within 100 cuts of the cut, draw 2's brings a dropped 1e-13 within
    100 of it (the two sides of a slot cut); draw 3's turns a kernel by delta / (2e-8 -
    delta), which moves the local test by 5.7e-6 (the gap term); draw 4's turns one by
    delta / 1e-3, which moves it by ||G||_2 1.1e-10, so that it agrees with ||G|| = 1 and
    is marginal with ||G|| = 1e5.  Unshifted, the least margin is the kept 2e-8's, 200."""
    slots = importlib.import_module("shiftlab.slots")
    tol, mu = 1e-10, (0.7, 0.7, 0.7, 0.7)
    big, small = 0.1 + 0.2j, 0.3 + 0.7j  # shifts that round at a = 1e8 and at a = 1e3
    factors = [synthetic_slot(1e8, 1.0, 2e-8), synthetic_slot(1e8, 1.0, 1e-13),
               synthetic_slot(1e3, 1.0, 2e-8, 0.0), synthetic_slot(1e3, 1.0, 1e-3, 0.0)]
    delta = [abs(((a - lam) - (0.7 - lam)) - (a - 0.7)) for a, lam in ((1e8, big), (1e3, small))]
    assert delta[0] > 1e-8 and 1e-13 < delta[1] < 1e-12
    points = [[0, 0, 0, 0], [big, 0, 0, 0], [0, big, 0, 0], [0, 0, small, 0],
              [0, 0, 0, small], [0, 0, 0, 0]]
    L = types.SimpleNamespace(sys=types.SimpleNamespace(factors=factors), floors={mu: 1.0})

    def draws(norm):
        return slots.shift_bound(L, [np.array([norm, 0.0])], {mu: 1}, {mu: np.array([1e-6])},
                                 points, tol)

    M = importlib.import_module("shiftlab.scenarios").SHIFT_LEMMA_MIN_MARGIN
    margins = [m for _, m in draws(1.0)]
    assert all(a for a, _ in draws(1.0))
    assert [m >= M for m in margins] == [True, False, False, False, True, True]
    assert margins[0] == margins[4] == margins[5] == pytest.approx(200)  # the kept 2e-8
    assert margins[1] == pytest.approx((2e-8 - delta[0]) / tol)
    assert margins[2] == pytest.approx(tol / (1e-13 + delta[0]))
    assert margins[3] == 0.0  # the local test's 1e-6 may fall to 0
    assert [m >= M for _, m in draws(1e5)] == [True, False, False, False, False, True]


def test_a_local_test_that_falls_short_is_a_disagreement_at_its_own_rank():
    """shift_bound stops at the first local test whose rank falls short of dim W_mu: every
    draw disagrees, with the margin of that test at its own rank, and a later point's
    near-tie is not read."""
    slots = importlib.import_module("shiftlab.slots")
    mus = [(0.7,), (0.2,)]
    L = types.SimpleNamespace(sys=types.SimpleNamespace(factors=[synthetic_slot(1.0, 1.0, 1e-3)]),
                              floors=dict.fromkeys(mus, 1.0))
    got = slots.shift_bound(L, [np.ones(2)], dict.fromkeys(mus, 2),
                            {mus[0]: np.array([1.0, 1e-13]), mus[1]: np.array([1.0, 2e-10])},
                            [[0.3 + 0.1j]] * 6, 1e-10)
    assert [a for a, _ in got] == [False] * 6
    assert [m for _, m in got] == pytest.approx([1e3] * 6)


def verdict_pair(monkeypatch, scn, sys_, comp_S):
    """The verdict as run_scenario gives it, from the bound, and as the oracle's six real
    shifted draws (``oracle.shifted_slot_check``) give it at the same points and G."""
    sc = importlib.import_module("shiftlab.scenarios")
    mult_S = multiplicity(comp_S, lambda_samples=sys_.joint_spectrum(), trials=scn.trials,
                          seed=scn.seed, tol=scn.tol, exact_points=True)
    bound = slot_verdict(monkeypatch, scn, comp_S, mult_S)
    with monkeypatch.context() as m:
        m.setattr(sc, "shift_bound", lambda L, G, coranks, ranked, points, tol:
                  oracle.shifted_slot_check(L, np.transpose(G), coranks, points, tol))
        reference = sc._shift_lemma_verdict(scn, comp_S, mult_S)
    return [{k: v[k] for k in ("status", "agreed", "marginal")} for v in (bound, reference)]


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "pair-grid-1", "pair-grid-2",
                                   "pair-grid-3", "small-sweep-1"])
def test_the_bound_reads_the_oracle_draws(monkeypatch, group):
    """On every scenario of the group, the bound's {status, agreed, marginal} is the
    oracle's six real shifted draws'."""
    scenarios = ([load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
                 if group == "shipped" else list(map(scenario_from_json, _group_objects(group))))
    for scn in scenarios:
        sys_ = build_system([resolve_factor(f, scn.tol, scn.base_dir) for f in scn.factor_specs],
                            tol=scn.tol)
        comp_S = verify_compression_structure(sys_, f_chain(sys_)).compressions[0]
        bound, reference = verdict_pair(monkeypatch, scn, sys_, comp_S)
        assert bound == reference, scn.label


HARDY_3_K1 = {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}
ROOTS_0_03_M05 = {"kind": {"quotient_roots": [[[0.0, 0.0], 1], [[0.3, 0.0], 1], [[-0.5, 0.0], 1]]},
                  "coinvariant": {"ideal_roots": [[[0.0, 0.0], 1]]}}


@pytest.mark.parametrize("slot, tol, expected", [
    ({"kind": {"custom_weights": [1.0, 1e-9, 1.0]}, "coinvariant": {"prefix": 1}}, None, "fail"),
    ({"kind": {"custom_weights": [1.0, 3e-10, 1.0]}, "coinvariant": {"prefix": 1}}, None, "fail"),
    ({"kind": {"custom_weights": [1.0, 2e-8, 1.0]}, "coinvariant": {"prefix": 1}}, None, "pass"),
    (ROOTS_0_03_M05, 1e-10, "pass"),
    (ROOTS_0_03_M05, 3e-15, "fail"),
], ids=["weights-1e-9", "weights-3e-10", "weights-2e-8", "roots-tol-1e-10", "roots-tol-3e-15"])
def test_the_bound_reads_the_oracle_draws_near_a_tie(monkeypatch, slot, tol, expected):
    """slot (x) hardy 3 k1: the near-tie weights (margins 10, 3 and 200 at their cut) and
    the quotient with roots 0, 0.3 and -0.5 and ideal (z), where each draw's rounding
    delta is not 0, read as the oracle's six real draws: all six agreed, or all six
    marginal, which fails."""
    scn, sys_, comp_S = scenario_comp_S({"factors": [slot, HARDY_3_K1]}, tol)
    bound, reference = verdict_pair(monkeypatch, scn, sys_, comp_S)
    agreed = 6 if expected == "pass" else 0
    assert bound == reference == {"status": expected, "agreed": agreed, "marginal": 6 - agreed}


def test_run_scenario_reads_W_S_from_mult_S(monkeypatch):
    """hardy 4^3 k2 (dim S = 56): W_S, the compression to S's cokernel at 0, is
    computed once, inside mult(S), and the report's wandering_dim_S and gws
    verdict read mult(S)'s copy."""
    slots = importlib.import_module("shiftlab.slots")
    calls, real = [], slots.SlotTuple.cokernel
    monkeypatch.setattr(slots.SlotTuple, "cokernel", lambda t, lam, tol:
                        calls.append((t.dim, lam)) or real(t, lam, tol))
    obj = {"factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}} for _ in range(3)]}
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and rep.dim_S == 56
    assert calls.count((56, (0j,) * 3)) == 1
    assert rep.wandering_dim_S == rep.verdicts["gws"]["wandering_dim"] == 3


def test_run_noncyclic_inequality():
    rep = run_scenario(load_scenario(SCENARIO_DIR / "noncyclic-inequality.json"))
    assert rep.mode == "inequality_only"
    assert rep.failed_hypotheses == ["factor_0:cyclic"]
    assert rep.hypotheses["factor_0"]["cyclic_bounds"] == [2, 2]
    assert rep.multiplicities["S"]["upper"] == 2
    assert rep.multiplicities["S"]["certified"]
    assert rep.passed


def test_cyclicity_is_read_at_every_spectrum_point():
    """diag(0, 0.5, 0.5) is cyclic at its first spectrum point 0 but has two Jordan
    blocks at 0.5, so it needs two generators: cyclic_bounds reads the largest
    dim ker (T - z) over the whole spectrum."""
    obj = {"factors": [{"kind": {"matrix": [[0, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]},
                        "coinvariant": {"prefix": 1}},
                       {"kind": "hardy", "m": 2, "coinvariant": {"prefix": 1}}]}
    rep = run_scenario(scenario_from_json(obj))
    assert rep.hypotheses["factor_0"]["cyclic_bounds"] == [2, 2]
    assert "factor_0:cyclic" in rep.failed_hypotheses


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


@pytest.mark.parametrize("key", ["tol", "check_tol"])
def test_scenario_from_json_rejects_non_finite_tolerances(key):
    """json reads NaN and Infinity; a tolerance must still be finite."""
    for value in ("NaN", "Infinity", "-Infinity"):
        obj = hardy_obj()
        obj[key] = json.loads(value)
        with pytest.raises(ConfigError):
            scenario_from_json(obj)


def test_a_tol_at_rounding_level_returns_a_report():
    """mixed-3 at tol 1e-17, a valid tolerance below rounding: E's columns have
    disjoint supports and are orthonormal by construction, so its 2.2e-16 rounding
    raises nothing.  The run reports, with brackets its second routes uncertify."""
    scn = load_scenario(SCENARIO_DIR / "mixed-3.json")
    scn.tol = 1e-17
    rep = run_scenario(scn)
    assert rep.distinguished_dim == 3 and not rep.succeeded
    assert not rep.multiplicities["S"]["certified"] and rep.notes


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


def test_a_repeated_root_is_reported_exactly():
    """small-sweep's sweep-64 at seed 1: Q of its quotient slot is the model of
    C[z]/((z + 0.5)^2), a Jordan block, whose eigenvalue an eigensolver splits by
    about 1e-8.  The eigenpair is read from the slot kernels at the given root, so
    eigenvalues and shift_points hold -0.5 exactly."""
    obj = {"factors": [_quotient([[[-0.1, -0.6], 2], [[-0.5, 0.0], 2]], [[[-0.5, 0.0], 2]]),
                       {"kind": {"weighted_bergman": 1.5}, "m": 6, "coinvariant": {"prefix": 1}}],
           "seed": 1}
    rep = run_scenario(scenario_from_json(obj))
    assert rep.eigenvalues == [[-0.5, 0.0], [0.0, 0.0]]
    assert rep.shift_points == [[[0.0, 0.0], [0.0, 0.0]], [[-0.5, 0.0], [0.0, 0.0]]]
    assert rep.hypotheses["factor_0"]["eigen_ok"]


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
    S = oracle.chain_spaces(sys_).S
    points = sys_.joint_spectrum()
    assert len(points) == 4
    comp_S = oracle.compressed(oracle.embedded_ops(sys_), S)
    assert max(wandering_subspace(comp_S.shifted(p)).dim for p in points) == 3
    rep = run_scenario(scenario_from_json({"factors": factors, "seed": 2}))
    for m in rep.multiplicities.values():
        assert (m["lower"], m["upper"], m["certified"]) == (3, 3, True)


def test_scenario_evaluates_each_joint_eigenvalue_once(monkeypatch):
    """hardy-2x2 and quotient-zeros: every slot spectrum is exact, so a factor's
    hypotheses, mult(S) and mult(F) read one table of slot kernels: each (slot, z)
    is factored once, by one SVD per kind-block (S^H T S, Q^H T Q, U^H T U), and
    nothing else decides a slot rank.  So multiplicity runs twice (S and F),
    reading its coranks from the slots, and no eigensolver or stacked SVD runs.
    hardy-2x2 reads each slot at 0; quotient-zeros its ideal slot at both roots, the
    Hardy slot at 0.  0 is off the ideal slot's spectrum, so its wandering subspace
    and zero_based read the empty kernels there, and no SVD."""
    mm = importlib.import_module("shiftlab.multiplicity")
    sc = importlib.import_module("shiftlab.scenarios")
    slots = importlib.import_module("shiftlab.slots")
    tz = importlib.import_module("shiftlab.tensorized")
    eigs, stacks, blocks, tables, mults = [], [], [], [], []
    real_kernels, real_svd, real_mult = tz.slot_kernels, slots._svd, sc.multiplicity
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: eigs.append(a))
    monkeypatch.setattr(mm, "_stacked_svd", lambda *a, **k: stacks.append(a))
    monkeypatch.setattr(slots, "_svd", lambda M, *a, **k: blocks.append(M.shape)
                        or real_svd(M, *a, **k))
    monkeypatch.setattr(tz, "slot_kernels", lambda f, z, tol: tables.append((id(f), z))
                        or real_kernels(f, z, tol))
    monkeypatch.setattr(sc, "multiplicity", lambda A, **kw: mults.append(A.dim)
                        or real_mult(A, **kw))
    for name, points in (("hardy-2x2", 2), ("quotient-zeros", 3)):
        del eigs[:], stacks[:], blocks[:], tables[:], mults[:]
        rep = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        assert rep.succeeded
        assert mults == [rep.dim_S, rep.dim_F]
        assert eigs == [] and stacks == []
        assert len(set(tables)) == len(tables) == points and len(blocks) == 3 * points


def test_a_run_without_the_shift_lemma_closes_nothing(monkeypatch):
    """Every slot spectrum of a prefix run is exact, so mult(S), mult(F) and the
    factor tests certify by the local test: with every check but the shift
    lemma, no closure acts on S's coordinates, on F's or on a factor's, and
    the gws verdict reads mult(S)'s local test of W_S.  The compressions to S
    and F commute by construction, so no commutation probe runs on them."""
    mm = importlib.import_module("shiftlab.multiplicity")
    dims, real = [], mm._closure
    monkeypatch.setattr(mm, "_closure", lambda ops, G, tol, lam=None:
                        dims.append(ops[0].shape[0]) or real(ops, G, tol, lam))
    monkeypatch.setattr(mm, "_commutes", lambda ops, tol: dims.append("probe"))
    obj = {
        "factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}} for _ in range(3)],
        "checks": [c for c in ALL_CHECKS if c != "shift_lemma"],
    }
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and rep.dim_S == 56
    assert dims == []
    assert rep.verdicts["gws"]["has_gws"] and rep.multiplicities["S"]["trials_used"] == 0


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "pair-grid-1", "pair-grid-2",
                                   "pair-grid-3", "small-sweep-1"])
def test_local_tests_decide_as_closures(monkeypatch, group):
    """Every local-test decision a run makes in mult(S) and mult(F), for W_0 and for
    each draw, is whether the set's Krylov closure fills the space; so is each
    factor's wandering_generates.  Each factor's cyclic_bounds, read from its slot
    kernels, are the bracket that closures certify on T."""
    mm = importlib.import_module("shiftlab.multiplicity")
    sc = importlib.import_module("shiftlab.scenarios")
    tuples, decisions = [], []
    real_multiplicity, real_generates = sc.multiplicity, mm._generates

    def recording_multiplicity(A, **kw):
        tuples.append(mm._as_tuple(A))
        return real_multiplicity(A, **kw)

    def recording_generates(cuts, G, tol):
        decided = real_generates(cuts, G, tol)
        decisions.append((tuples[-1], G, tol, decided))
        return decided

    monkeypatch.setattr(sc, "multiplicity", recording_multiplicity)
    monkeypatch.setattr(mm, "_generates", recording_generates)
    scenarios = ([load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
                 if group == "shipped" else list(map(scenario_from_json, _group_objects(group))))
    factors = 0
    for scn in scenarios:
        rep = run_scenario(scn)
        for i, spec in enumerate(scn.factor_specs):
            f = resolve_factor(spec, scn.tol, scn.base_dir)
            restriction = oracle.compressed((f.T,), f.S)
            closed = krylov_closure(restriction, f.wandering.basis, tol=f.S.tol)
            assert f.wandering_generates == (closed.dim == f.S.dim), (scn.label, f.label)
            cyc = real_multiplicity((f.T,), lambda_samples=[(z,) for z in f.spectrum],
                                    seed=scn.seed, tol=scn.tol)
            assert cyc.certified and rep.hypotheses[f"factor_{i}"]["cyclic_bounds"] == [
                cyc.lower, cyc.upper], (scn.label, f.label)
            factors += 1
    assert decisions and factors
    for t, G, tol, decided in decisions:
        assert (krylov_closure(t, G, tol=tol).dim == t.dim) == decided


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "pair-grid-1", "pair-grid-2",
                                   "pair-grid-3", "small-sweep-1"])
def test_slot_cokernels_equal_the_dense_ones(group):
    """At every joint eigenvalue, the W_lam that comp_S and comp_F read from the
    slots spans the dense cokernel of the same operators as a plain tuple, and
    the slot corank formulas (run_scenario's second route) give its dimension."""
    scenarios = ([load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
                 if group == "shipped" else list(map(scenario_from_json, _group_objects(group))))
    points = 0
    for scn in scenarios:
        sys_ = build_system([resolve_factor(f, scn.tol, scn.base_dir) for f in scn.factor_specs],
                            tol=scn.tol)
        comps = verify_compression_structure(sys_, f_chain(sys_)).compressions
        formula = slot_coranks(sys_, scn.tol)
        for lam in sys_.joint_spectrum():
            slots = [Subspace(C.cokernel(lam, scn.tol), _checked=True) for C in comps]
            dense = [Subspace(OperatorTuple(C.ops).cokernel(lam, scn.tol), _checked=True)
                     for C in comps]
            same = map(functools.partial(same_subspace, tol=1e-8), slots, dense)
            assert all(same), (scn.label, lam)
            assert formula[lam] == tuple(W.dim for W in slots), (scn.label, lam)
            points += 1
    assert points >= len(scenarios)


def _transposed_kernels(monkeypatch):
    """Patch ``slot_kernels`` to return ker (Q^H T Q) and ker (U^H T U) as kQ and kH, in
    place of their adjoints' kernels: the same widths, but W_lam leaves the cokernel."""
    real = importlib.import_module("shiftlab.slots").slot_kernels

    def transposed(f, z, tol):
        return real(f, z, tol)[:1] + real(dataclasses.replace(f, T=f.T.T.copy()), z, tol)[1:]

    monkeypatch.setattr(importlib.import_module("shiftlab.tensorized"), "slot_kernels",
                        transposed)


def _firing_scenarios():
    """Inputs whose W_lam fails its inclusion residual: Finding 5's hardy 10 k5 given as
    T + (0.05 + 0.02i) I, (x) itself, and J_6(0) (+) J_6(0.08) (prefix 2) (x) hardy 3 k1,
    rotated as tools/report_diff.py's ``rotated`` does at seeds 7 and 8."""
    spec = importlib.util.spec_from_file_location(
        "report_diff", Path(__file__).resolve().parent.parent / "tools" / "report_diff.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    T = make_shift(SpaceKind.hardy(), 10).operator + (0.05 + 0.02j) * np.eye(10)
    shifted = {"kind": {"matrix": matrix_to_json(T)}, "coinvariant": {"prefix": 5}}
    J = np.diag(np.r_[np.ones(5), 0, np.ones(5)], -1) + np.diag(np.r_[np.zeros(6), [0.08] * 6])
    jordan = scenario_from_json({"factors": [
        {"kind": {"matrix": matrix_to_json(J)}, "coinvariant": {"prefix": 2}},
        {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}}]})
    return [scenario_from_json({"factors": [shifted, shifted]})] + [
        tool.rotated(jordan, np.random.default_rng(seed)) for seed in (7, 8)]


def _inclusion_residuals(monkeypatch, scn):
    """(gram, dense, bound, leaked) for comp_S and comp_F at the origin and every joint
    eigenvalue, where cokernel is read: ``SlotTuple.inclusion_residual`` as the run's
    cokernel computes it, ``oracle.dense_inclusion_residual`` of the W it returns, the
    guard's threshold and whether lam joined ``leaks``."""
    slots = importlib.import_module("shiftlab.slots")
    real, seen = slots.SlotTuple.inclusion_residual, []
    monkeypatch.setattr(slots.SlotTuple, "inclusion_residual",
                        lambda L, *a: seen.append(real(L, *a)) or seen[-1])
    sys_ = build_system([resolve_factor(f, scn.tol, scn.base_dir) for f in scn.factor_specs],
                        tol=scn.tol)
    out = []
    for L in verify_compression_structure(sys_, f_chain(sys_)).compressions:
        for lam in dict.fromkeys([(0j,) * sys_.n] + sys_.joint_spectrum()):
            W = L.cokernel(lam, scn.tol)
            bound = scn.tol * max(1, *(np.linalg.norm(f.adapted) + abs(z)
                                       for f, z in zip(sys_.factors, lam)))
            out.append((seen[-1], oracle.dense_inclusion_residual(L, W, lam), bound,
                        lam in L.leaks))
    return out


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "small-sweep-1", "transposed"])
def test_the_slot_gram_inclusion_residual_is_the_dense_one(monkeypatch, group):
    """At the origin and every joint eigenvalue of S and F, the inclusion residual from
    slot Grams equals the dense one from W placed in N rows within 1e-13, and the guard
    decides from it.  ``transposed`` is hardy-2x2 with ``_transposed_kernels``, where the
    residual of both W_0 is of order 1, so a dropped pattern or C moves it."""
    if group == "transposed":
        _transposed_kernels(monkeypatch)
    scenarios = ([load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
                 if group in ("shipped", "transposed") else
                 list(map(scenario_from_json, _group_objects(group))))
    rows = [r for scn in scenarios for r in _inclusion_residuals(monkeypatch, scn)]
    assert all(abs(gram - dense) <= 1e-13 for gram, dense, _, _ in rows), group
    assert all(leaked == (gram > bound) for gram, _, bound, leaked in rows)
    assert any(leaked for *_, leaked in rows) == (group == "transposed")


def test_the_slot_gram_inclusion_residual_fires_where_the_dense_one_does(monkeypatch):
    """On the three inputs where the guard fired, the slot-Gram residual makes the dense
    one's decision at every point.  The rotated Jordan pair fires at 0 (W_0 of S ranks a
    direction too many, so the forms differ by up to 42 %, 1.7e-6 against 2.9e-6).  The
    shifted hardy no longer fires: 0 is off its slots' spectrum, so its kernels there are
    empty, where the SVD of T + (0.05 + 0.02i) I ranked a pseudospectral direction and
    W_0 left the cokernel by 3.19e-7."""
    fired = []
    for scn in _firing_scenarios():
        rows = _inclusion_residuals(monkeypatch, scn)
        assert all((gram > bound) == (dense > bound) == leaked
                   for gram, dense, bound, leaked in rows)
        fired.append(sum(leaked for *_, leaked in rows))
    assert fired == [0, 2, 2]


def _shifted_hardy_pair(m, k, shift):
    """hardy m prefix k given as the matrix T + shift I, (x) itself."""
    T = make_shift(SpaceKind.hardy(), m).operator + shift * np.eye(m)
    factor = {"kind": {"matrix": matrix_to_json(T)}, "coinvariant": {"prefix": k}}
    return run_scenario(scenario_from_json({"factors": [factor, factor]}))


def test_a_shifted_hardy_matrix_is_not_zero_based():
    """hardy 40 prefix 20 as T + 0.2 I, (x) itself: 0 is not an eigenvalue, so no factor
    is zero-based, S_i (-) T_i S_i = 0 and W_0(S) = 0, and the run is inequality_only.
    Read at 0 itself, the SVD of the non-normal slot ranked 0.2^20 as a kernel and
    reported a false equality with [1, 1] and wandering_dim_S 2."""
    rep = _shifted_hardy_pair(40, 20, 0.2)
    assert rep.mode == "inequality_only" and rep.notes == []
    assert not any(h["zero_based"] for h in rep.hypotheses.values())
    assert rep.factor_wandering_dims == [0, 0] and rep.wandering_dim_S == 0
    assert [(m["upper"], m["certified"]) for m in rep.multiplicities.values()] == [(2, True)] * 2


def test_a_kernel_off_the_spectrum_keeps_mult_S_certified():
    """hardy 10 prefix 5 as T + (0.05 + 0.02i) I, (x) itself: the kernels at the origin,
    off every slot spectrum, are empty, so W_0(S) = 0 passes its inclusion residual and
    mult(S) = 2 is certified.  The pseudospectral W_0 that an SVD at 0 gave left the
    cokernel and uncertified it."""
    rep = _shifted_hardy_pair(10, 5, 0.05 + 0.02j)
    assert rep.notes == [] and rep.wandering_dim_S == 0
    assert rep.multiplicities["S"]["certified"] and rep.multiplicities["S"]["upper"] == 2


def test_zero_slot_operators_give_W_0_equal_to_L():
    """Zero slot operators on C^3 with Q = C e_1: every slot kernel at 0 is its whole
    block, so the closed form's W_0 is all of L, for S (W_0(F) + P_S C^9, one SVD) and
    for F (its summands alone), and it passes its inclusion residual."""
    f = tensor_factor(np.zeros((3, 3)), Subspace(np.eye(3)[:, :1]))
    sys_ = build_system([f, f])
    comps = verify_compression_structure(sys_, f_chain(sys_)).compressions
    assert [(L.dim, L.is_S) for L in comps] == [(8, True), (4, False)]
    for L in comps:
        W = L.cokernel((0j, 0j), sys_.tol)
        assert W.shape == (L.dim, L.dim) and not L.leaks
        assert same_subspace(Subspace(W, _checked=True), Subspace.full(L.dim), tol=1e-12)


def test_an_exact_run_factors_nothing_wider_than_a_slot(monkeypatch):
    """hardy 4^4 k2 with every check: W_lam of S and F and the shift lemma's draws come
    from the slot kernels in closed form, each one SVD of a slot block, so the run
    factors no stack by QR and slots keeps no null-space route."""
    slots = importlib.import_module("shiftlab.slots")
    assert not any(hasattr(slots, name) for name in ("_ROWS", "slot_frame"))
    assert not any(hasattr(slots.SlotTuple, name) for name in ("null", "gather"))
    qrs, blocks, real_svd = [], [], slots._svd
    monkeypatch.setattr(np.linalg, "qr", lambda A, *a, **k: qrs.append(np.shape(A)))
    monkeypatch.setattr(slots, "_svd", lambda M, *a, **k: blocks.append(M.shape)
                        or real_svd(M, *a, **k))
    hardy = {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}}
    rep = run_scenario(scenario_from_json({"factors": [hardy] * 4}))
    assert rep.succeeded and rep.verdicts["shift_lemma"]["agreed"] == 6
    assert qrs == [] and blocks and max(max(shape) for shape in blocks) <= 4


def test_a_slot_W_that_leaves_the_cokernel_uncertifies_the_bracket(monkeypatch):
    """With ker (Q^H T Q) in place of ker (Q^H T Q)^H (e_2 for e_1, same width), each
    of hardy-2x2's W_0(F) summands K_t (x) e_2 has the right dimension but is mapped by
    the other slot's T~^H onto K_t (x) e_1, so W_0 of S and of F keeps its slot_coranks
    count and only the inclusion residual uncertifies mult(S) and mult(F).  The factor
    eigenpairs read the same kQ, so e_2 fails its ambient residual and E is not built."""
    slots = importlib.import_module("shiftlab.slots")
    real = slots.slot_kernels

    def transposed(f, z, tol):
        K, _, kH = real(f, z, tol)
        return K, real(dataclasses.replace(f, T=f.T.T.copy()), z, tol)[1], kH

    monkeypatch.setattr(importlib.import_module("shiftlab.tensorized"), "slot_kernels",
                        transposed)
    rep = run_scenario(load_scenario(SCENARIO_DIR / "hardy-2x2.json"))
    assert not any(m["certified"] for m in rep.multiplicities.values())
    assert rep.notes == ["distinguished summands unavailable: factor 0: best eigen residual "
                         "1.000e+00 exceeds tolerance 1.0e-10"] + [
        f"mult({L}) uncertified: W_lam leaves the cokernel at 1 points" for L in "SF"]
    assert rep.failed_hypotheses == ["factor_0:eigen_ok", "factor_1:eigen_ok"]


@pytest.mark.parametrize("shift, bound_mb", [(False, 4.2), (True, 4.2)])
def test_hardy_6x4_k3_stays_inside_its_memory_bound(shift, bound_mb):
    """The tracemalloc peak (numpy's arrays included) of one hardy 6^4 k3 run stays
    within 25 % of 3.36 MB, with the shift lemma or without, as measured with the
    closed-form slot W_lam (2.65 MB once a run has warmed the process).  Row-blocked
    slot gathers peaked at 7.55 and 40.2 MB, and gathering the full G_s and Z, with a
    compression to F for the power identity, at 46.7 and 221 MB."""
    obj = {"factors": [{"kind": "hardy", "m": 6, "coinvariant": {"prefix": 3}}] * 4, "seed": 1,
           "checks": [c for c in ALL_CHECKS if shift or c != "shift_lemma"]}
    scn = scenario_from_json(obj)
    tracemalloc.start()
    try:
        rep = run_scenario(scn)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert rep.succeeded and rep.dim_S == 1215
    assert peak <= bound_mb


def test_hardy_4x4_k2_multiplicity_stays_inside_its_memory_bound(monkeypatch):
    """In benchmark-style hardy 4^4 k2 with the cube checks (no shift lemma), neither
    multiplicity call (mult(S) and mult(F): the factors' cyclic tests read their slot
    kernels) peaks at 0.5 MB of tracemalloc'd memory: W_lam of S (dim 240)
    is 240 x 4 from the slot kernels, where the null space of the slot frames'
    stacked Z peaked at 2.03 MB."""
    sc = importlib.import_module("shiftlab.scenarios")
    peaks, real = [], sc.multiplicity

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()

    monkeypatch.setattr(sc, "multiplicity", traced)
    hardy = {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}}
    rep = run_scenario(scenario_from_json({"factors": [hardy] * 4, "seed": 1, "checks": [
        c for c in ALL_CHECKS if c != "shift_lemma"]}))
    assert rep.succeeded and rep.dim_S == 240 and len(peaks) == 2
    assert max(peaks) < 0.5


def spy_compressions(monkeypatch):
    """Record the number of positions of every compression built from now on."""
    slots = importlib.import_module("shiftlab.slots")
    sizes, real = [], slots.compressed_at
    monkeypatch.setattr(slots, "compressed_at",
                        lambda sys_, at: sizes.append(at.size) or real(sys_, at))
    return sizes


def test_a_run_without_the_shift_lemma_builds_no_compression_to_S(monkeypatch):
    """On a prefix run nothing reads compressed operators, so no compression is
    built, to S, to F or to an M_i (with the shift lemma too: see
    test_an_exact_all_checks_run_closes_nothing_and_builds_no_compression_to_S)."""
    obj = {"factors": [{"kind": "hardy", "m": 4, "coinvariant": {"prefix": 2}} for _ in range(3)],
           "checks": [c for c in ALL_CHECKS if c != "shift_lemma"]}
    built = spy_compressions(monkeypatch)
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and (rep.dim_S, rep.dim_F) == (56, 24)
    assert built == []


def _compressed_to_S(sys_, chain):
    """The compression to S as the structure check built it before compressions
    were built on demand: every entry of a dim S x dim S slice of the slot block,
    kept where the positions agree off slot j."""
    ops = []
    for j, f in enumerate(sys_.factors):
        stride = math.prod(sys_.dims[j + 1:])
        idx = chain.at // stride % sys_.dims[j]
        off = chain.at - idx * stride
        ops.append(np.where(off[:, None] == off, f.adapted[np.ix_(idx, idx)], 0))
    return ops


@pytest.mark.parametrize("group", ["shipped", "criterion-4", "pair-grid-1", "pair-grid-2",
                                   "pair-grid-3"])
def test_compressions_built_on_demand_are_the_slices_of_the_compression_to_S(group):
    """comp_S's operators are bit for bit the dense slice-and-mask form, and
    comp_F's and every M_i's, built at their own positions, are bit for bit
    their index slices of comp_S's."""
    scenarios = ([load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))]
                 if group == "shipped" else list(map(scenario_from_json, _group_objects(group))))
    slots = importlib.import_module("shiftlab.slots")
    for scn in scenarios:
        sys_ = build_system([resolve_factor(f, scn.tol, scn.base_dir) for f in scn.factor_specs],
                            tol=scn.tol)
        chain, words = f_chain(sys_), oracle.word_chain(sys_)
        comp_S, comp_F = verify_compression_structure(sys_, chain).compressions
        assert all(map(np.array_equal, comp_S.ops, _compressed_to_S(sys_, chain))), scn.label
        assert np.array_equal(chain.at, words.at)
        assert np.array_equal(comp_F.at, chain.at[words.columns(words.F_blocks[-1])])
        for blocks, ops in [(words.F_blocks[-1], comp_F.ops)] + [
                (bs, slots.compressed_at(sys_, chain.at[words.columns(bs)]))
                for bs in words.F_summands[-1]]:
            cols = words.columns(blocks)
            assert all(np.array_equal(D, A[np.ix_(cols, cols)]) for D, A in zip(ops, comp_S.ops))


def test_hardy_6x4_k3_certifies_from_slot_sized_stacks(monkeypatch):
    """hardy 6^4 k3 (dim S = 1215) with every check but the shift lemma certifies
    mult(S) = mult(F) = 4, no stacked SVD runs and no slot kernel's SVD is wider than
    a slot, and no compression is built."""
    mm = importlib.import_module("shiftlab.multiplicity")
    slots = importlib.import_module("shiftlab.slots")
    stacks, widths, real_svd = [], [], slots._svd
    monkeypatch.setattr(mm, "_stacked_svd", lambda *a, **k: stacks.append(a))
    monkeypatch.setattr(slots, "_svd", lambda M, *a, **k: widths.append(max(M.shape))
                        or real_svd(M, *a, **k))
    obj = {"factors": [{"kind": "hardy", "m": 6, "coinvariant": {"prefix": 3}}] * 4,
           "checks": [c for c in ALL_CHECKS if c != "shift_lemma"], "seed": 1}
    built = spy_compressions(monkeypatch)
    rep = run_scenario(scenario_from_json(obj))
    assert rep.succeeded and rep.dim_S == 1215
    assert [(m["upper"], m["certified"]) for m in rep.multiplicities.values()] == [(4, True)] * 2
    assert stacks == [] and widths and max(widths) <= 6
    assert built == []


def test_a_spanning_set_rank_off_the_slot_count_uncertifies_mult_S(monkeypatch):
    """dim W_lam(S) is the rank of its spanning set, W_lam(F)'s summands and
    P_S (x)_s ker (A_s - lam_s)^H; run_scenario compares it with slot_coranks' Tor
    count at each joint eigenvalue, and a mismatch uncertifies mult(S) alone."""
    sc = importlib.import_module("shiftlab.scenarios")
    real = sc.slot_coranks
    monkeypatch.setattr(sc, "slot_coranks", lambda sys_, tol:
                        {lam: (S + 1, F) for lam, (S, F) in real(sys_, tol).items()})
    rep = run_scenario(load_scenario(SCENARIO_DIR / "hardy-2x2.json"))
    assert not rep.multiplicities["S"]["certified"] and rep.multiplicities["F"]["certified"]
    assert rep.notes == ["mult(S) uncertified: dim W_lam is off slot_coranks at 1 points"]


def count_closures(monkeypatch):
    """Record the dimension of the space of every closure from now on."""
    mm = importlib.import_module("shiftlab.multiplicity")
    dims, real = [], mm._closure
    monkeypatch.setattr(mm, "_closure", lambda ops, G, tol, lam=None:
                        dims.append(ops[0].shape[0]) or real(ops, G, tol, lam))
    return dims


def test_a_non_commuting_tuple_is_closed_and_a_conjugated_jordan_factor_is_not(monkeypatch):
    """The local test holds for a commuting tuple at its exact joint spectrum
    only.  (J, J^T) on C^4 fails _commutes, so even with exact_points its one
    draw is closed.  A conjugated Jordan factor's spectrum is one point, the mean
    of its eigvals' ring: its cyclic test and wandering subspace read its slot
    kernels, as do W_S and W_F, so the run closes nothing."""
    mm = importlib.import_module("shiftlab.multiplicity")
    dims = count_closures(monkeypatch)
    J = np.diag(np.ones(3), -1)
    assert not mm._commutes((J, J.T), 1e-10)
    res = multiplicity((J, J.T), lambda_samples=[(0, 0)], exact_points=True)
    assert (res.lower, res.upper, res.certified, res.trials_used) == (1, 1, True, 1)
    assert res.witness_closure.dim == 4 and dims == [4]

    Qr, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    T = Qr @ np.diag(np.ones(3), -1) @ Qr.T
    obj = {"factors": [
        {"kind": {"matrix": matrix_to_json(T)}, "coinvariant": {"basis": matrix_to_json(Qr[:, :2])}},
        {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}},
    ], "seed": 1, "checks": ["gws", "additive_formula"]}
    scn = scenario_from_json(obj)
    (z,) = resolve_factor(obj["factors"][0], scn.tol).spectrum
    assert abs(z) < 1e-14
    dims.clear()
    rep = run_scenario(scn)
    assert (rep.dim_S, rep.dim_F) == (10, 6) and rep.succeeded
    assert dims == []


def test_a_missing_joint_eigenvalue_never_certifies_a_wrong_number():
    """quotient-zeros with the joint eigenvalue (-0.5, 0) left out of the points,
    and J_2 (+) 0.5 I_2 (multiplicity 2, the corank at 0.5) with 0.5 left out:
    without exact_points closures decide, so at every seed each bracket is
    certified at its true value or not at all.  Vouching for the short points
    certifies J_2 (+) 0.5 I_2 at 1 from W_0 alone, which is why the local test
    waits for the caller's word."""
    scn = load_scenario(SCENARIO_DIR / "quotient-zeros.json")
    sys_ = build_system([resolve_factor(spec, scn.tol) for spec in scn.factor_specs], tol=scn.tol)
    points = sys_.joint_spectrum()
    kept = [p for p in points if p[0] != -0.5]
    assert len(kept) == len(points) - 1
    T = np.zeros((4, 4))
    T[1, 0], T[2, 2], T[3, 3] = 1.0, 0.5, 0.5
    cases = [(C, points, kept) for C in verify_compression_structure(sys_, f_chain(sys_)).compressions]
    for C, full, short in cases + [((T,), [(0.0,), (0.5,)], [(0.0,)])]:
        true = multiplicity(C, lambda_samples=full, tol=scn.tol, exact_points=True)
        assert true.certified
        for seed in range(10):
            got = multiplicity(C, lambda_samples=short, seed=seed, tol=scn.tol)
            assert not got.certified or got.upper == true.upper, (seed, got)
    assert true.upper == 2
    vouched = multiplicity((T,), lambda_samples=[(0.0,)], exact_points=True)
    assert (vouched.upper, vouched.certified, vouched.trials_used) == (1, True, 0)


def test_a_conjugated_jordan_factor_keeps_its_generating_wandering_subspace():
    """A unitarily conjugated nilpotent matrix factor has eigvals on a ring about
    0 of radius about eps^(1/4), and its spectrum is their mean, 0 to rounding, so
    the corank bound is 2.  W_S (two vectors) passes the local test there: mult(S)
    certifies 2 without a random draw, and has_gws stays True."""
    Qr, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    T = Qr @ np.diag(np.ones(3), -1) @ Qr.T
    obj = {"factors": [
        {"kind": {"matrix": matrix_to_json(T)}, "coinvariant": {"basis": matrix_to_json(Qr[:, :2])}},
        {"kind": "hardy", "m": 3, "coinvariant": {"prefix": 1}},
    ], "seed": 1}
    scn = scenario_from_json(obj)
    (z,) = resolve_factor(obj["factors"][0], scn.tol).spectrum
    assert abs(z) < 1e-14
    rep = run_scenario(scn)
    S = rep.multiplicities["S"]
    assert (S["lower"], S["upper"], S["certified"], S["trials_used"]) == (2, 2, True, 0)
    assert rep.verdicts["gws"] == {"status": "pass", "has_gws": True, "wandering_dim": 2,
                                   "applicable": True}


def test_structure_path_forms_no_dense_operator(monkeypatch):
    """A cube-structure-style run with every check, the shift lemma included,
    binds no array with N rows to a name in any Python frame: S, its chain and
    the tuple's compressions come from kind-blocks, positions and slot blocks, no
    N-row basis of S is formed, the inclusion residual of W_lam is read from slot
    Grams, and the system has no dense T~_i to build.  A factor's wandering
    subspace, gws test and eigenpair, which wandering_E reuses, read its slot
    kernels, each (slot, z) factored once.  The shift lemma closes inside S under
    the compression the structure check made, and the wandering subspaces, the
    generator search and E's slot data stay in the coordinates of their space."""
    tz = importlib.import_module("shiftlab.tensorized")
    # dim S = 23 and dim F = 6: no array of the run has N = 24 rows by coincidence
    # (with prefix 2 the stack of F's compression, n dim F x dim F, is 24 x 8)
    obj = {
        "factors": [
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 1}},
            {"kind": "bergman", "m": 3, "coinvariant": {"prefix": 1}},
            {"kind": "dirichlet", "m": 2, "coinvariant": {"prefix": 1}},
        ],
        "seed": 3,
    }
    N = 4 * 3 * 2

    tables, real_kernels = [], tz.slot_kernels
    monkeypatch.setattr(tz, "slot_kernels", lambda f, z, tol: tables.append((id(f), z))
                        or real_kernels(f, z, tol))

    seen = set()

    def scan(frame, values):
        name = frame.f_code.co_name
        for v in values:
            if isinstance(v, np.ndarray) and v.ndim and v.shape[0] == N:
                width = v.shape[1] if v.ndim == 2 else 0
                seen.add((name, frame.f_code.co_filename, width))

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
    assert seen == set()
    assert tables and len(set(tables)) == len(tables)


def test_a_run_binds_no_identity_on_S_or_F():
    """mult(S), mult(F) and W_S read the dimension and the tolerance from their
    compressed tuple and the scenario, so no frame of a run binds a
    dim S x dim S or dim F x dim F identity, bare or as a Subspace's basis.
    The shift lemma builds no shifted tuple and forms its Gram defect in place."""
    obj = {
        "factors": [
            {"kind": "hardy", "m": 4, "coinvariant": {"prefix": 1}},
            {"kind": "bergman", "m": 3, "coinvariant": {"prefix": 1}},
            {"kind": "dirichlet", "m": 2, "coinvariant": {"prefix": 1}},
        ],
    }
    sizes = {23, 6}  # dim S and dim F; no slot has either size
    seen = []

    def scan(frame):
        for name, v in frame.f_locals.items():
            M = getattr(v, "basis", None) if isinstance(v, Subspace) else v
            if (isinstance(M, np.ndarray) and M.ndim == 2 and M.shape[0] == M.shape[1]
                    and M.shape[0] in sizes and np.array_equal(M, np.eye(M.shape[0]))):
                seen.append((frame.f_code.co_name, name, M.shape[0]))

    def local(frame, event, arg):
        scan(frame)
        return local

    def tracer(frame, event, arg):
        scan(frame)
        return local

    sys.settrace(tracer)
    try:
        rep = run_scenario(scenario_from_json(obj))
    finally:
        sys.settrace(None)
    assert rep.succeeded and (rep.dim_S, rep.dim_F) == (23, 6)
    assert seen == []
