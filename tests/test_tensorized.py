import dataclasses
import itertools

import numpy as np
import pytest

import oracle
from oracle import max_principal_angle
from shiftlab import (
    EigenError,
    InputError,
    ModelError,
    SpaceKind,
    Subspace,
    build_system,
    coinvariant_eigenpairs,
    complement_within,
    compress,
    f_chain,
    ideal_subspace,
    joint_invariant_S,
    make_quotient,
    make_shift,
    opnorm,
    orthonormalize,
    prefix_coinvariant,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
)
from shiftlab.tensorized import _chain_slot_kinds, _dedup_complex, _projection_identities

RESID = 1e-11


def hardy_factor(m, k):
    model = make_shift(SpaceKind.hardy(), m)
    return tensor_factor(model.operator, prefix_coinvariant(model, k), label=f"hardy{m}k{k}")


def hardy_2x2_system():
    return build_system([hardy_factor(4, 2), hardy_factor(4, 2)])


def mixed_3_system():
    factors = []
    for kind in (SpaceKind.hardy(), SpaceKind.bergman(), SpaceKind.dirichlet()):
        model = make_shift(kind, 3)
        factors.append(tensor_factor(model.operator, prefix_coinvariant(model, 1)))
    return build_system(factors)


def quotient_system():
    qmodel = make_quotient([0.3, -0.5])
    S1 = ideal_subspace(qmodel, [0.3])
    Q1 = complement_within(Subspace.full(2), S1)
    f1 = tensor_factor(qmodel.operator, Q1, label="quotient")
    return build_system([f1, hardy_factor(4, 2)])


def test_tensor_factor_rejects_non_coinvariant_subspace():
    T = make_shift(SpaceKind.hardy(), 4).operator
    Q_bad = Subspace(np.eye(4)[:, 1:2], _checked=True)  # T^H e_1 = e_0 leaks out
    with pytest.raises(ModelError):
        tensor_factor(T, Q_bad)
    with pytest.raises(InputError):
        tensor_factor(T, Subspace(np.eye(5)[:, :1], _checked=True))


def test_tensor_factor_splits_dimensions():
    f = hardy_factor(5, 2)
    assert f.Q.dim == 2 and f.S.dim == 3
    assert f.coinvariance_residual < 1e-14


def test_build_system_embeddings_commute():
    sys_ = mixed_3_system()
    assert sys_.dims == (3, 3, 3) and sys_.N == 27
    assert sys_.doubly_commuting_residual < 1e-14
    assert oracle.commutator_residual(oracle.embedded_ops(sys_)) < 1e-14


def test_slot_matrix_embedding():
    sys_ = hardy_2x2_system()
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    embedded = oracle.slot_matrix(sys_, 1, M)
    assert np.allclose(embedded, np.kron(np.eye(4), M))


def complex_quotient_system():
    qmodel = make_quotient([0.3, [0.2, 0.4], -0.5])
    S1 = ideal_subspace(qmodel, [[0.2, 0.4]])
    f1 = tensor_factor(qmodel.operator, complement_within(Subspace.full(3), S1))
    return build_system([f1, hardy_factor(3, 2)])


def four_factor_system():
    factors = []
    for kind, m, k in ((SpaceKind.hardy(), 3, 1), (SpaceKind.bergman(), 3, 2),
                       (SpaceKind.dirichlet(), 2, 1), (SpaceKind.weighted_bergman(1.5), 2, 1)):
        model = make_shift(kind, m)
        factors.append(tensor_factor(model.operator, prefix_coinvariant(model, k)))
    return build_system(factors)


def summand(sys_, kinds):
    """The union of the kind-blocks with slot kinds 'S', 'Q' or 'I', blocks side by side."""
    return Subspace(sys_.block_bases(sys_.blocks(kinds)), tol=sys_.tol, _checked=True)


def distinguished(sys_):
    """The chain, and wandering_E built in S's coordinates with the compression to S."""
    chain = f_chain(sys_)
    return chain, wandering_E(sys_, chain, verify_compression_structure(sys_, chain).compressions[0])


def dense_alignment(sys_, chain, wd):
    """max ||P_{E_i} (P_{M_i} T~_j P_{M_i} - lam_j P_{M_i})||_2 from N x N projectors,
    E_i lifted from S's coordinates."""
    ops = oracle.embedded_ops(sys_)
    align = 0.0
    for i in range(sys_.n):
        P_M = oracle.summand_projector(sys_, i)
        E_i = chain.S.basis @ wd.summands[i].basis
        P_E = E_i @ E_i.conj().T
        for j, lam in enumerate(wd.shift_points[i]):
            align = max(align, opnorm(P_E @ (P_M @ ops[j] @ P_M - lam * P_M)))
    return align


def rotated_system(seed=5):
    """Prefix factors in randomly rotated slot coordinates (T -> V^H T V, Q -> V^H Q):
    no slot basis is a coordinate basis, so no residual is a structural 0."""
    rng = np.random.default_rng(seed)
    factors = []
    for kind, m, k in ((SpaceKind.hardy(), 3, 1), (SpaceKind.bergman(), 4, 2),
                       (SpaceKind.dirichlet(), 3, 2)):
        model = make_shift(kind, m)
        V = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        Q = Subspace(V.conj().T @ prefix_coinvariant(model, k).basis, _checked=True)
        factors.append(tensor_factor(V.conj().T @ model.operator @ V, Q))
    return build_system(factors)


# Families whose slot form is an upper bound of the dense norm; the rest are exact.
BOUNDS = {("projection_identities", key) for key in
          ("inclusion_exclusion", "idempotent", "hermitian", "sum_equals_PS")}


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system,
                                     complex_quotient_system, four_factor_system,
                                     rotated_system])
def test_basis_residuals_match_dense_projector_forms(builder):
    """Every structural family, key by key, against its dense N x N form: exact
    forms agree within 1e-13, and bounds lie between the dense value and RESID."""
    sys_ = builder()
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    _assert_matches_dense(report, oracle.dense_structure_report(sys_, chain), cap=RESID)
    wd = wandering_E(sys_, chain, report.compressions[0])
    assert abs(wd.alignment_residual - dense_alignment(sys_, chain, wd)) <= 1e-13


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system, quotient_system,
                                     complex_quotient_system, four_factor_system,
                                     rotated_system])
def test_E_in_S_coordinates_matches_the_dense_kronecker_E(builder):
    """E is built in S's coordinates; lifted by S's basis, each E_i spans the dense
    kron product of the slot wandering subspace and the adjoint eigenvectors,
    and E lies in F."""
    sys_ = builder()
    chain, wd = distinguished(sys_)
    assert wd.E.ambient_dim == chain.S.dim
    want = oracle.distinguished_summands(sys_, [alpha for alpha, _, _ in wd.eigen_data])
    for E_i, W in zip(wd.summands, want):
        got = chain.S.basis @ E_i.basis
        assert got.shape == W.shape
        assert opnorm(got @ got.conj().T - W @ W.conj().T) <= 1e-13
    E = Subspace(chain.S.basis @ wd.E.basis, _checked=True)
    assert E.dim == sum(wd.factor_wandering_dims)
    assert chain.F.containment_residual(E) <= 1e-13


def _assert_matches_dense(report, dense, cap=None):
    """Exact slot forms within 1e-13 of the dense norms; bounds at least the dense
    norm (less 1e-14) and, given ``cap``, at most it."""
    assert set(dense) == set(report.families())
    for family, want in dense.items():
        got = getattr(report, family)
        assert set(got) == set(want), family
        for key in want:
            if family == "commutativity" or (family, key) in BOUNDS:
                assert want[key] - 1e-14 <= got[key] <= (cap or np.inf), (family, key)
            else:
                assert abs(got[key] - want[key]) <= 1e-13, (family, key)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_slot_forms_match_dense_on_a_skewed_chain(slot):
    """Q_s turned by 0.1 towards S_s in one slot, with S_s its new complement:
    U_s stays unitary, so the slot forms stay exact (or bounds), while
    semi-invariance, commutativity and the power identity read about 0.1 on
    both sides.  A slot form that drops a term shows here, not on the systems
    above, where both sides read about 1e-16."""
    sys_ = mixed_3_system()
    factors = list(sys_.factors)
    f = factors[slot]
    Q = orthonormalize(f.Q.basis + 0.1 * f.S.basis[:, -f.Q.dim:])
    factors[slot] = dataclasses.replace(f, Q=Q, S=complement_within(Subspace.full(3), Q))
    skewed = build_system(factors)
    chain = f_chain(skewed)
    report = verify_compression_structure(skewed, chain)
    _assert_matches_dense(report, oracle.dense_structure_report(skewed, chain))
    assert max(report.semi_invariance.values()) > 0.01
    assert report.commutativity["S"] > 0.01 and report.power_identity["summandwise_powers"] > 0.01


def test_rotated_system_residuals_are_not_structural_zeros():
    """The rotated comparison is not vacuous: both sides read rounding-level
    nonzeros, and the compressions are dense.  (On F the slot commutator is a
    structural 0: no two M blocks differ in exactly the two commuting slots.)"""
    sys_ = rotated_system()
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    dense = oracle.dense_structure_report(sys_, chain)
    for got in (report.families(), dense):
        assert min(got["semi_invariance"].values()) > 0
        assert got["commutativity"]["S"] > 0 and got["commutativity"]["F_1"] > 0
    assert np.count_nonzero(np.abs(report.compressions[0].ops[0]) > 1e-3) > chain.S.dim


def test_slot_forms_fail_on_a_tilted_slot_basis():
    """Q_1 tilted by 1e-3 towards the direction of S_1 that T_1 reaches (e_2),
    S_1 kept: commutativity, semi-invariance and the projection identities fail
    in the slot and in the dense form.  (The slot forms read U_1 = [Q_1 | S_1]
    as unitary, which the projection identities check: tilted towards e_1,
    which T_1 S_1 misses, they alone fail at 1e-3, and the dense commutator
    and gap residuals read only about 1e-6.)"""
    sys_ = mixed_3_system()
    f = sys_.factors[1]
    assert np.allclose(np.abs(f.S.basis[:, -1]), [0, 0, 1])
    Q = orthonormalize(f.Q.basis + 1e-3 * f.S.basis[:, -1:])
    bad = build_system([sys_.factors[0], dataclasses.replace(f, Q=Q), sys_.factors[2]])
    chain = f_chain(bad)
    report = verify_compression_structure(bad, chain)
    dense = oracle.dense_structure_report(bad, chain)
    for family in ("commutativity", "semi_invariance", "projection_identities"):
        slot = max(getattr(report, family).values())
        assert slot > 1e-4 and max(dense[family].values()) > 1e-4, (family, slot)


@pytest.mark.parametrize("perturb, failing", [
    ("tilted", ("inclusion_exclusion", "orthogonal_ranges", "sum_equals_PS")),
    ("scaled", ("inclusion_exclusion", "idempotent")),
])
def test_projection_identities_fail_on_a_perturbed_slot_basis(perturb, failing):
    """A Q basis tilted towards S_i, or not normalized, breaks the slot form
    and the dense form alike."""
    sys_ = mixed_3_system()
    f = sys_.factors[1]
    if perturb == "tilted":
        Q = orthonormalize(f.Q.basis + 0.1 * f.S.basis[:, :f.Q.dim])
    else:
        Q = Subspace(1.01 * f.Q.basis, _checked=True)
    bad = build_system([sys_.factors[0], dataclasses.replace(f, Q=Q), sys_.factors[2]])
    S = joint_invariant_S(bad)
    slot, dense = _projection_identities(bad), oracle.dense_projection_identities(bad, S)
    for key in failing:
        assert slot[key] > 1e-3 and dense[key] > 1e-3, key


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system,
                                     complex_quotient_system, four_factor_system])
def test_slot_products_match_dense_operators(builder):
    sys_ = builder()
    rng = np.random.default_rng(7)
    V = rng.standard_normal((sys_.N, 3)) + 1j * rng.standard_normal((sys_.N, 3))
    ops = oracle.embedded_ops(sys_)
    for i, T in enumerate(ops):
        assert opnorm(sys_.apply(i, V) - T @ V) <= 1e-13
        assert np.linalg.norm(sys_.apply(i, V[:, 0]) - T @ V[:, 0]) <= 1e-13
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    spaces = [chain.S, chain.F]
    assert len(report.compressions) == len(spaces)
    for space, comp in zip(spaces, report.compressions):
        for C, T in zip(comp.ops, ops):
            assert opnorm(C - compress(T, space)) <= 1e-13


def test_block_structure_sees_coupled_summands():
    """With F_1 and its summands, which the tuple couples, in place of F and
    the M_i, the basis check reports the coupling the dense form reports."""
    sys_ = mixed_3_system()
    chain = f_chain(sys_)
    F_1 = chain.F_chain[0]
    coupled = [summand(sys_, _chain_slot_kinds(3, 1, j)) for j in (1, 2, 3)]
    assert np.array_equal(F_1.basis, np.hstack([M.basis for M in coupled]))
    wrong = dataclasses.replace(chain, F_summands=chain.F_summands[:1])
    assert np.array_equal(wrong.F.basis, F_1.basis)
    assert all(np.array_equal(a.basis, b.basis) for a, b in zip(wrong.M_summands, coupled))
    got = verify_compression_structure(sys_, wrong).block_structure
    want = oracle.dense_structure_residuals(sys_, wrong)["block_structure"]
    assert got["off_diagonal"] > 0.1
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-13, key


def test_joint_invariant_S_dimension_formula():
    for sys_, expect in ((hardy_2x2_system(), 12), (mixed_3_system(), 26), (quotient_system(), 6),
                         (complex_quotient_system(), 7)):
        S = joint_invariant_S(sys_)
        q_prod = int(np.prod([f.Q.dim for f in sys_.factors]))
        assert S.dim == sys_.N - q_prod == expect
        # reference: S = ran(I - Q~_1 ... Q~_n), from the spectrum of that projector
        prod = np.eye(sys_.N, dtype=complex)
        for i, f in enumerate(sys_.factors):
            prod = prod @ oracle.slot_matrix(sys_, i, f.Q.projector())
        P_S = np.eye(sys_.N) - prod
        w, V = np.linalg.eigh((P_S + P_S.conj().T) / 2)
        ref = Subspace(V[:, w > 0.5], _checked=True)
        assert ref.dim == S.dim
        assert max_principal_angle(ref, S) <= 1e-12
        # invariance of S under every embedded operator
        P = S.projector()
        eye = np.eye(sys_.N)
        assert max(opnorm((eye - P) @ T @ P) for T in oracle.embedded_ops(sys_)) < RESID


def test_x_projections_are_orthogonal_resolution_of_S():
    sys_ = hardy_2x2_system()
    X = oracle.x_projections(sys_)
    ranks = [int(round(np.trace(x).real)) for x in X]
    assert ranks == [4, 8]
    S = joint_invariant_S(sys_)
    assert opnorm(sum(X) - S.projector()) < RESID
    for i, x in enumerate(X):
        assert opnorm(x @ x - x) < RESID
        assert opnorm(x - x.conj().T) < RESID
        for j, y in enumerate(X):
            if i != j:
                assert opnorm(x @ y) < RESID


def test_f_chain_frozen_dimensions():
    chain = f_chain(hardy_2x2_system())
    assert chain.S.dim == 12
    assert [F.dim for F in chain.F_chain] == [8]
    assert chain.F.dim == 8
    assert [M.dim for M in chain.M_summands] == [4, 4]

    chain3 = f_chain(mixed_3_system())
    assert chain3.S.dim == 26
    assert [F.dim for F in chain3.F_chain] == [14, 6]
    assert [M.dim for M in chain3.M_summands] == [2, 2, 2]


def test_f_chain_needs_two_factors():
    f = hardy_factor(3, 1)
    single = build_system([f])
    with pytest.raises(InputError):
        f_chain(single)


def test_chain_is_nested_and_semi_invariant():
    sys_ = mixed_3_system()
    chain = f_chain(sys_)
    spaces = [chain.S] + chain.F_chain
    resids = [big.containment_residual(small) for big, small in zip(spaces, spaces[1:])]
    assert max(resids) < RESID
    report = verify_compression_structure(sys_, chain)
    assert max(report.semi_invariance.values()) < RESID
    # the containments are measured once, by f_chain, from the chain's blocks
    # (exact zeros), and reported as measured
    assert chain.containment_residuals == [0.0] * len(resids)
    assert [report.chain[f"containment_{i}"] for i in range(len(resids))] == [0.0] * len(resids)


def test_head_gap_identity():
    """S (-) F_1 equals the range of P~_{n-1} P~_n."""
    for sys_ in (hardy_2x2_system(), mixed_3_system(), quotient_system()):
        report = verify_compression_structure(sys_)
        assert report.chain["head_gap_dim_match"] == 0
        assert report.chain["head_gap_sine"] < RESID


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system, quotient_system])
def test_structure_report_all_families_tiny(builder):
    sys_ = builder()
    report = verify_compression_structure(sys_)
    assert report.max_residual() < RESID
    assert report.ok(RESID)
    fams = report.families()
    assert set(fams) == {
        "projection_identities", "chain", "semi_invariance",
        "commutativity", "block_structure", "power_identity",
    }


def test_block_diagonality_is_specific_to_F():
    """Compressions couple the summands of intermediate F_i but not of F."""
    sys_ = mixed_3_system()
    chain = f_chain(sys_)
    # F's summands: all off-diagonal blocks vanish
    ops = oracle.embedded_ops(sys_)
    projs = [M.projector() for M in chain.M_summands]
    worst = max(
        opnorm(projs[p] @ T @ projs[q])
        for p in range(3) for q in range(3) if p != q for T in ops
    )
    assert worst < RESID
    # F_1's second summand has a full slot; couplings are expected
    kinds = [_chain_slot_kinds(3, 1, j) for j in (1, 2, 3)]
    subs = [summand(sys_, k) for k in kinds]
    cross = max(
        opnorm(subs[p].projector() @ T @ subs[q].projector())
        for p in range(3) for q in range(3) if p != q for T in ops
    )
    assert cross > 0.1


def test_coinvariant_eigenpairs_prefix_shift():
    model = make_shift(SpaceKind.hardy(), 5)
    Q = prefix_coinvariant(model, 2)
    pairs = coinvariant_eigenpairs(model.operator, Q)
    alpha, v, resid = pairs[0]
    assert abs(alpha) < 1e-12 and resid < 1e-12
    assert np.allclose(np.abs(v), np.eye(5)[:, 0])


def test_coinvariant_eigenpairs_quotient_complement():
    qmodel = make_quotient([0.3, -0.5])
    S1 = ideal_subspace(qmodel, [0.3])
    Q1 = complement_within(Subspace.full(2), S1)
    pairs = coinvariant_eigenpairs(qmodel.operator, Q1)
    alpha, v, resid = pairs[0]
    # Q is the one-dimensional model of C[z]/(z - 0.3)
    assert abs(alpha - 0.3) < 1e-12
    assert resid < 1e-12


def test_wandering_E_hardy_case():
    sys_ = hardy_2x2_system()
    chain, wd = distinguished(sys_)
    assert wd.factor_wandering_dims == [1, 1]
    assert wd.E.dim == 2
    assert wd.alignment_residual < RESID
    # E, lifted from S's coordinates, sits inside F, summand by summand inside the M_i
    S = chain.S.basis
    assert chain.F.containment_residual(Subspace(S @ wd.E.basis, _checked=True)) < RESID
    for E_i, M_i in zip(wd.summands, chain.M_summands):
        assert M_i.containment_residual(Subspace(S @ E_i.basis, _checked=True)) < RESID
    assert wd.shift_points == [(0j, 0j), (0j, 0j)]


def test_wandering_E_quotient_case():
    """The ideal factor contributes no wandering directions."""
    _, wd = distinguished(quotient_system())
    assert wd.factor_wandering_dims == [0, 1]
    assert wd.E.dim == 1
    # the second summand's shifted point carries the first factor's eigenvalue
    assert wd.shift_points[1][0] == pytest.approx(0.3)
    assert wd.shift_points[1][1] == 0
    assert wd.alignment_residual < RESID


def test_factor_facts_are_computed_once():
    """A factor's eigenpair, wandering subspace and gws test come from one
    coinvariant_eigenpairs call and one compression of T to S."""
    f = hardy_factor(5, 2)
    assert f.eigenpair is f.eigenpair and f.wandering is f.wandering
    alpha, v, resid = f.eigenpair
    assert abs(alpha) < 1e-12 and resid < 1e-12
    assert f.wandering.dim == 1 and f.wandering_generates
    # in S's coordinates, orthogonal to T S
    assert f.wandering.ambient_dim == f.S.dim
    assert opnorm(f.wandering.basis.conj().T @ compress(f.T, f.S)) < RESID
    # the ideal factor of C[z]/((z - 0.3)(z + 0.5)): T is -0.5 I on S, no wandering vector
    q = quotient_system().factors[0]
    assert (q.S.dim, q.wandering.dim, q.wandering_generates) == (1, 0, False)
    # S = 0 and Q = 0
    full_Q = tensor_factor(make_shift(SpaceKind.hardy(), 3).operator, Subspace.full(3))
    assert (full_Q.wandering.dim, full_Q.wandering_generates) == (0, True)
    no_Q = tensor_factor(make_shift(SpaceKind.hardy(), 3).operator, Subspace.zero(3))
    assert no_Q.eigenpair is None


def test_wandering_E_needs_an_eigenpair_in_every_Q():
    """A zero co-invariant subspace holds no adjoint eigenvector."""
    T = make_shift(SpaceKind.hardy(), 3).operator
    sys_ = build_system([tensor_factor(T, Subspace.zero(3)), hardy_factor(3, 1)])
    with pytest.raises(EigenError):
        distinguished(sys_)


def test_slot_spectrum_of_matrices():
    """Triangular matrices give their diagonal exactly; others their clustered eigvals."""
    upper = np.array([[0.25, 3.0, 1.0], [0.0, -0.5, 2.0], [0.0, 0.0, 0.25]])
    assert tensor_factor(upper, Subspace.full(3)).spectrum == (0.25, -0.5)
    general = np.array([[0.5, 1.0], [0.2, -0.1]], dtype=complex)
    want = _dedup_complex(np.linalg.eigvals(general))
    spectrum = tensor_factor(general, Subspace.full(2)).spectrum
    assert len(spectrum) == len(want) == 2
    assert set(spectrum) == set(want)


def test_joint_spectrum_is_the_product_of_slot_spectra():
    sys_ = quotient_system()
    spectra = [f.spectrum for f in sys_.factors]
    assert sys_.joint_spectrum() == list(itertools.product(*spectra))
    assert len(sys_.joint_spectrum()) == np.prod([len(s) for s in spectra])
    assert hardy_2x2_system().joint_spectrum() == [(0j, 0j)]
