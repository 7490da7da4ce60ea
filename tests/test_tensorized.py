import numpy as np
import pytest

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
    max_principal_angle,
    opnorm,
    prefix_coinvariant,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
    x_projections,
)
from shiftlab.tensorized import _chain_slot_kinds

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
    t = sys_.op_tuple()
    assert t.commutator_residual < 1e-14


def test_slot_matrix_embedding():
    sys_ = hardy_2x2_system()
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    embedded = sys_.slot_matrix(1, M)
    assert np.allclose(embedded, np.kron(np.eye(4), M))


def complex_quotient_system():
    qmodel = make_quotient([0.3, [0.2, 0.4], -0.5])
    S1 = ideal_subspace(qmodel, [[0.2, 0.4]])
    f1 = tensor_factor(qmodel.operator, complement_within(Subspace.full(3), S1))
    return build_system([f1, hardy_factor(3, 2)])


def test_joint_invariant_S_dimension_formula():
    for sys_, expect in ((hardy_2x2_system(), 12), (mixed_3_system(), 26), (quotient_system(), 6),
                         (complex_quotient_system(), 7)):
        S = joint_invariant_S(sys_)
        q_prod = int(np.prod([f.Q.dim for f in sys_.factors]))
        assert S.dim == sys_.N - q_prod == expect
        # reference: S = ran(I - Q~_1 ... Q~_n), from the spectrum of that projector
        prod = np.eye(sys_.N, dtype=complex)
        for Qt in sys_.Qp:
            prod = prod @ Qt
        P_S = np.eye(sys_.N) - prod
        w, V = np.linalg.eigh((P_S + P_S.conj().T) / 2)
        ref = Subspace(V[:, w > 0.5], _checked=True)
        assert ref.dim == S.dim
        assert max_principal_angle(ref, S) <= 1e-12
        # invariance of S under every embedded operator
        P = S.projector()
        eye = np.eye(sys_.N)
        assert max(opnorm((eye - P) @ T @ P) for T in sys_.ops) < RESID


def test_x_projections_are_orthogonal_resolution_of_S():
    sys_ = hardy_2x2_system()
    X = x_projections(sys_)
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
    for big, small in zip(spaces, spaces[1:]):
        assert big.containment_residual(small) < RESID
    report = verify_compression_structure(sys_, chain)
    assert max(report.semi_invariance.values()) < RESID


def test_head_gap_identity():
    """S (-) F_1 equals the range of P~_{n-1} P~_n."""
    for sys_ in (hardy_2x2_system(), mixed_3_system(), quotient_system()):
        report = verify_compression_structure(sys_)
        assert report.chain["head_gap_dim_match"] == 0
        assert report.chain["head_gap_angle"] < RESID


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
    projs = [M.projector() for M in chain.M_summands]
    worst = max(
        opnorm(projs[p] @ T @ projs[q])
        for p in range(3) for q in range(3) if p != q for T in sys_.ops
    )
    assert worst < RESID
    # F_1's second summand has a full slot; couplings are expected
    kinds = [_chain_slot_kinds(3, 1, j) for j in (1, 2, 3)]
    subs = [sys_.summand_subspace(k) for k in kinds]
    cross = max(
        opnorm(subs[p].projector() @ T @ subs[q].projector())
        for p in range(3) for q in range(3) if p != q for T in sys_.ops
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
    chain = f_chain(sys_)
    wd = wandering_E(sys_)
    assert wd.factor_wandering_dims == [1, 1]
    assert wd.E.dim == 2
    assert wd.alignment_residual < RESID
    # E sits inside F, summand by summand inside the M_i
    assert chain.F.containment_residual(wd.E) < RESID
    for E_i, M_i in zip(wd.summands, chain.M_summands):
        assert M_i.containment_residual(E_i) < RESID
    assert wd.shift_points == [(0j, 0j), (0j, 0j)]


def test_wandering_E_quotient_case():
    """The ideal factor contributes no wandering directions."""
    sys_ = quotient_system()
    wd = wandering_E(sys_)
    assert wd.factor_wandering_dims == [0, 1]
    assert wd.E.dim == 1
    # the second summand's shifted point carries the first factor's eigenvalue
    assert wd.shift_points[1][0] == pytest.approx(0.3)
    assert wd.shift_points[1][1] == 0
    assert wd.alignment_residual < RESID


def test_wandering_E_explicit_eigen_choices():
    sys_ = hardy_2x2_system()
    e0 = np.eye(4)[:, 0]
    wd = wandering_E(sys_, eigen_choices=[(0.0, e0), None])
    assert wd.E.dim == 2
    # a vector outside Q is rejected
    with pytest.raises(EigenError):
        wandering_E(sys_, eigen_choices=[(0.0, np.eye(4)[:, 3]), None])
    with pytest.raises(InputError):
        wandering_E(sys_, eigen_choices=[(0.0, np.zeros(4)), None])
    with pytest.raises(InputError):
        wandering_E(sys_, eigen_choices=[(0.0, np.ones(5)), None])
