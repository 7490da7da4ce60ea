import collections
import dataclasses
import functools
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import oracle
from oracle import joint_invariant_S, max_principal_angle
from shiftlab import (
    EigenError,
    InputError,
    ModelError,
    SpaceKind,
    Subspace,
    build_system,
    complement_within,
    compress,
    f_chain,
    ideal_subspace,
    make_quotient,
    make_shift,
    opnorm,
    orthonormalize,
    prefix_coinvariant,
    tensor_factor,
    verify_compression_structure,
    wandering_E,
)
from shiftlab.tensorized import (
    _chain_patterns,
    _dims,
    _projection_identities,
    _summandwise_powers,
    _word_sums,
)
from test_subspaces import _fail_once

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
    """Reports record doubly_commuting as 0: T~_p T~_q = T~_q T~_p and
    T~_p^H T~_q = T~_q T~_p^H for p != q, by the mixed-product property."""
    sys_ = mixed_3_system()
    assert sys_.dims == (3, 3, 3) and sys_.N == 27
    ops = oracle.embedded_ops(sys_)
    assert oracle.commutator_residual(ops) < 1e-14
    assert max(opnorm(a.conj().T @ b - b @ a.conj().T)
               for a, b in itertools.permutations(ops, 2)) < 1e-14


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
    """The union of the kind-blocks with slot kinds 'S', 'Q' or 'I', their kron bases
    (x)_s (Q_s or S_s) side by side."""
    bases = [functools.reduce(np.kron, [f.Q.basis if k == "Q" else f.S.basis
                                        for f, k in zip(sys_.factors, block)])
             for block in oracle.blocks(sys_, kinds)]
    return Subspace(np.hstack(bases), tol=sys_.tol, _checked=True)


def distinguished(sys_):
    """wandering_E's slot data, and the oracle's E and E_i in S's coordinates."""
    wd = wandering_E(sys_)
    return (wd,) + oracle.distinguished_E(sys_, wd)


def dense_alignment(sys_, wd):
    """max ||P_{E_i} (P_{M_i} T~_j P_{M_i} - lam_j P_{M_i})||_2 from N x N projectors,
    the oracle's E_i lifted from S's coordinates."""
    ops = oracle.embedded_ops(sys_)
    S = oracle.chain_spaces(sys_).S.basis
    summands = oracle.distinguished_E(sys_, wd)[1]
    align = 0.0
    for i in range(sys_.n):
        P_M = oracle.summand_projector(sys_, i)
        E_i = S @ summands[i].basis
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
          ("inclusion_exclusion", "idempotent", "hermitian", "sum_equals_PS")} | {
    ("power_identity", "summandwise_powers")}


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system,
                                     complex_quotient_system, four_factor_system,
                                     rotated_system])
def test_basis_residuals_match_dense_projector_forms(builder):
    """Every structural family, key by key, against its dense N x N form: exact
    forms agree within 1e-13, and bounds lie between the dense value and RESID."""
    sys_ = builder()
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    _assert_matches_dense(report, oracle.dense_structure_report(sys_), cap=RESID)
    wd = wandering_E(sys_)
    assert abs(wd.alignment_residual - dense_alignment(sys_, wd)) <= 1e-13


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system, quotient_system,
                                     complex_quotient_system, four_factor_system,
                                     rotated_system])
def test_E_in_S_coordinates_matches_the_dense_kronecker_E(builder):
    """E, assembled in S's coordinates from wandering_E's slot data (each factor's
    wandering basis and Q_j^H v_j), lifted by S's basis: each E_i spans the dense
    kron product of the slot wandering subspace and the adjoint eigenvectors, E's
    columns are orthonormal, its dim is the report's sum, and E lies in F."""
    sys_ = builder()
    wd, E, summands = distinguished(sys_)
    amb = oracle.chain_spaces(sys_)
    assert E.ambient_dim == amb.S.dim
    want = oracle.distinguished_summands(sys_, [alpha for alpha, _, _ in wd.eigen_data])
    for E_i, W in zip(summands, want):
        got = amb.S.basis @ E_i.basis
        assert got.shape == W.shape
        assert opnorm(got @ got.conj().T - W @ W.conj().T) <= 1e-13
    assert opnorm(E.basis.conj().T @ E.basis - np.eye(E.dim)) <= 1e-13
    E = Subspace(amb.S.basis @ E.basis, _checked=True)
    assert E.dim == sum(wd.factor_wandering_dims)
    assert amb.F.containment_residual(E) <= 1e-13


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
    both sides.  One slot carries the defect, so the power bound is the exact
    norm on F.  A slot form that drops a term shows here, not on the systems
    above, where both sides read about 1e-16."""
    sys_ = mixed_3_system()
    factors = list(sys_.factors)
    f = factors[slot]
    Q = orthonormalize(f.Q.basis + 0.1 * f.S.basis[:, -f.Q.dim:])
    factors[slot] = dataclasses.replace(f, Q=Q, S=complement_within(Subspace.full(3), Q))
    skewed = build_system(factors)
    chain = f_chain(skewed)
    report = verify_compression_structure(skewed, chain)
    dense = oracle.dense_structure_report(skewed)
    _assert_matches_dense(report, dense)
    assert max(report.semi_invariance.values()) > 0.01
    powers = report.power_identity["summandwise_powers"]
    assert report.commutativity["S"] > 0.01 and powers > 0.01
    assert abs(powers - dense["power_identity"]["summandwise_powers"]) <= 1e-13


def test_rotated_system_residuals_are_not_structural_zeros():
    """The rotated comparison is not vacuous: both sides read rounding-level
    nonzeros, and the compressions are dense.  (On F the slot commutator is a
    structural 0: no two M blocks differ in exactly the two commuting slots.)"""
    sys_ = rotated_system()
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    dense = oracle.dense_structure_report(sys_)
    for got in (report.families(), dense):
        assert min(got["semi_invariance"].values()) > 0
        assert got["commutativity"]["S"] > 0 and got["commutativity"]["F_1"] > 0
    assert np.count_nonzero(np.abs(report.compressions[0].ops[0]) > 1e-3) > chain.at.size


def test_slot_forms_fail_on_a_tilted_slot_basis():
    """Q_1 tilted by 1e-3 towards the direction of S_1 that T_1 reaches (e_2),
    S_1 kept: commutativity, semi-invariance and the projection identities fail
    in the slot and in the dense form.  (The slot forms read U_1 = [Q_1 | S_1]
    as unitary, which the projection identities check: tilted towards e_1,
    which T_1 S_1 misses, they alone fail at 1e-3, and the dense commutator
    and gap residuals read only about 1e-6.)  The recorded facts rest on the
    same unitarity: here the dense head-gap sine and off-diagonal block norm
    read 1e-3 and 1.4e-3, within twice the projection identities, which fail."""
    sys_ = mixed_3_system()
    f = sys_.factors[1]
    assert np.allclose(np.abs(f.S.basis[:, -1]), [0, 0, 1])
    Q = orthonormalize(f.Q.basis + 1e-3 * f.S.basis[:, -1:])
    bad = build_system([sys_.factors[0], dataclasses.replace(f, Q=Q), sys_.factors[2]])
    chain = f_chain(bad)
    report = verify_compression_structure(bad, chain)
    dense = oracle.dense_structure_report(bad)
    for family in ("commutativity", "semi_invariance", "projection_identities"):
        slot = max(getattr(report, family).values())
        assert slot > 1e-4 and max(dense[family].values()) > 1e-4, (family, slot)
    facts = max(max(dense[family].values()) for family in ("chain", "block_structure"))
    assert 1e-4 < facts < 2 * max(report.projection_identities.values())


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


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system, quotient_system,
                                     complex_quotient_system, four_factor_system,
                                     rotated_system])
def test_slot_products_match_dense_operators(builder):
    """The compressions to S (read from the slot blocks at S's positions) and to F
    are the dense compressions to their N-row bases."""
    sys_ = builder()
    ops = oracle.embedded_ops(sys_)
    chain = f_chain(sys_)
    report = verify_compression_structure(sys_, chain)
    amb = oracle.chain_spaces(sys_)
    spaces = [amb.S, amb.F]
    assert len(report.compressions) == len(spaces)
    for space, comp in zip(spaces, report.compressions):
        for C, T in zip(comp.ops, ops):
            assert opnorm(C - compress(T, space)) <= 1e-13


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
    """The chain's dimensions, from its patterns and from its N-row bases."""
    sys_ = hardy_2x2_system()
    chain = f_chain(sys_)
    amb = oracle.chain_spaces(sys_)
    assert chain.at.size == amb.S.dim == 12
    assert chain.dims == [amb.S.dim] + [F.dim for F in amb.F_chain] == [12, 8]
    assert chain.patterns[-1] == ("SQ", "QS")
    assert _dims(sys_, chain.patterns[-1]) == [M.dim for M in amb.M_summands] == [4, 4]

    sys3 = mixed_3_system()
    chain3 = f_chain(sys3)
    amb3 = oracle.chain_spaces(sys3)
    assert chain3.at.size == amb3.S.dim == 26
    assert chain3.dims[1:] == [F.dim for F in amb3.F_chain] == [14, 6]
    assert [M.dim for M in amb3.M_summands] == [2, 2, 2]


def test_f_chain_needs_two_factors():
    f = hardy_factor(3, 1)
    single = build_system([f])
    with pytest.raises(InputError):
        f_chain(single)


def test_chain_is_nested_and_semi_invariant():
    sys_ = mixed_3_system()
    chain = f_chain(sys_)
    amb = oracle.chain_spaces(sys_)
    spaces = [amb.S] + amb.F_chain
    resids = [big.containment_residual(small) for big, small in zip(spaces, spaces[1:])]
    assert max(resids) < RESID
    report = verify_compression_structure(sys_, chain)
    assert max(report.semi_invariance.values()) < RESID
    # recorded as 0, as f_chain raises unless the chain's blocks nest
    assert [report.chain[f"containment_{i}"] for i in range(len(resids))] == [0.0] * len(resids)


def test_chain_and_block_structure_hold_for_every_emptiness_pattern():
    """The proof of the chain and block_structure families, which reports record as
    0: word combinatorics on the kind-blocks (``oracle.word_chain``, which ``f_chain``'s
    patterns equal), for every pattern of empty slot parts (per slot Q = 0, S = 0 or
    neither) at 2 <= n <= 6, and none empty at n = 7, 8.  The F_i nest.  S (-) F_1 is the
    blocks of I..ISS, as F_1's summands are the words whose last S sits at a slot j < n
    and those ending in QS.  No one-slot flip maps a block of M_q into M_p, as e_p and
    e_q differ in two slots.  Both sides drop empty blocks alike (``oracle.blocks``)."""
    T = make_shift(SpaceKind.hardy(), 2).operator
    by_kind = [tensor_factor(T, Subspace(np.eye(2)[:, :k], _checked=True)) for k in (0, 1, 2)]
    patterns = [p for n in range(2, 7) for p in itertools.product((0, 1, 2), repeat=n)]
    for pattern in patterns + [(1,) * 7, (1,) * 8]:
        sys_ = build_system([by_kind[k] for k in pattern])
        chain = oracle.word_chain(sys_)
        spaces = [set(chain.block_columns)] + [set(bs) for bs in chain.F_blocks]
        assert all(small <= big for big, small in zip(spaces, spaces[1:])), pattern
        assert chain.nested, pattern
        assert spaces[0] - spaces[1] == set(oracle.blocks(sys_, "I" * (sys_.n - 2) + "SS")), pattern
        Ms = [set(bs) for bs in chain.F_summands[-1]]
        assert not any(oracle.flip(k, j) in Mp for Mp, Mq in itertools.permutations(Ms, 2)
                       for k in Mq for j in range(sys_.n)), pattern


@pytest.mark.parametrize("n", range(2, 8))
def test_commutativity_on_F_is_zero_by_word_combinatorics(n):
    """The proof of commutativity on F, which reports record as 0 (F_{n-1}): F's words are
    the e_i, one S each, so for k and k switched at slots i and j both in F, neither single
    switch is (one has no S, the other two).  The word form of the commutator bound
    (``oracle.commutator_bound``, over ``oracle.word_chain``'s blocks) therefore has no
    term on F, on random systems with empty Q or S slots and a planted co-invariance
    defect, where the report's F_1 reads the word form's value and, for n >= 3, not 0."""
    F = words(_chain_patterns(n)[-1])
    assert F == {"Q" * i + "S" + "Q" * (n - i - 1) for i in range(n)}
    for k in F:
        for i, j in itertools.combinations(range(n), 2):
            if oracle.flip(oracle.flip(k, i), j) in F:
                assert oracle.flip(k, i) not in F and oracle.flip(k, j) not in F, (k, i, j)
    rng, nonzero = np.random.default_rng(100 + n), 0
    for _ in range(10 if n < 6 else 3):
        sys_ = random_defect_system(rng, n)
        chain = oracle.word_chain(sys_)
        report = verify_compression_structure(sys_, f_chain(sys_))
        assert oracle.commutator_bound(sys_, chain.F_blocks[-1]) == 0.0
        assert report.commutativity[f"F_{n - 1}"] == 0.0
        want = oracle.commutator_bound(sys_, chain.F_blocks[0])
        assert abs(report.commutativity["F_1"] - want) <= 1e-12 * want
        nonzero += want > 0
    assert n < 3 or nonzero


def random_defect_system(rng, n, defect=1e-3):
    """n slots of sizes 2..3, each with Q = 0 or S = 0 at chance 1/5, T random and block
    lower triangular in [Q | S] before a planted co-invariance defect Q^H T S of size
    ``defect``, so that semi-invariance and commutativity read nonzero values."""
    factors = []
    for _ in range(n):
        m = int(rng.integers(2, 4))
        q = int(rng.choice([0, m]) if rng.random() < 0.2 else rng.integers(1, m))
        T = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        T[:q, q:] = 0
        f = tensor_factor(T, Subspace(np.eye(m)[:, :q], _checked=True),
                          spectrum=np.linalg.eigvals(T))
        D = np.zeros_like(T)
        D[:q, q:] = defect * rng.standard_normal((q, m - q))
        factors.append(dataclasses.replace(f, T=T + D))
    return build_system(factors)


def words(patterns):
    """Every word over {Q, S} that one of the slot-kind ``patterns`` matches."""
    return {"".join(w) for p in patterns
            for w in itertools.product(*(k.replace("I", "QS") for k in p))}


@pytest.mark.parametrize("n", range(2, 8))
def test_pattern_forms_equal_the_word_lists(n):
    """f_chain's patterns and the dynamic program over slots against
    ``oracle.word_chain``'s 2^n kind-blocks, on random systems with empty Q or S slots
    and a planted co-invariance defect: S's and F's positions and the chain's dimensions
    are equal, the containment guard passes as the word lists nest, and its word-level
    ``_word_sums`` decides every pair of spaces as their word sets do, semi_invariance is equal and
    commutativity (the closed form on S, the dynamic program on each F_i) equal to
    rounding."""
    rng = np.random.default_rng(n)
    nonzero = collections.Counter()
    for _ in range(40 if n < 6 else 8):
        sys_ = random_defect_system(rng, n)
        chain, words_ = f_chain(sys_), oracle.word_chain(sys_)
        assert words_.nested
        assert np.array_equal(chain.at, words_.at)
        assert chain.dims == [words_.at.size] + [words_.columns(bs).size for bs in words_.F_blocks]
        report = verify_compression_structure(sys_, chain)
        assert np.array_equal(report.compressions[1].at,
                              words_.at[words_.columns(words_.F_blocks[-1])])
        want = oracle.word_structure(sys_)
        assert report.semi_invariance == want["semi_invariance"]
        for key, value in want["commutativity"].items():
            assert abs(report.commutativity[key] - value) <= 1e-12 * value, key
        nonzero.update(key for fam in want.values() for key, v in fam.items() if v > 0)
    assert nonzero["S"] and nonzero["gap_0"] and (n < 3 or nonzero["F_1"]), nonzero
    assert [[all(m[1] for _, m, _ in _word_sums([(1, 1)] * n, [(a, (), True), (b, (), False)]))
             for b in chain.patterns] for a in chain.patterns] == [
        [words(a) <= words(b) for b in chain.patterns] for a in chain.patterns]


@pytest.mark.parametrize("builder", [hardy_2x2_system, mixed_3_system, quotient_system])
def test_structure_report_all_families_tiny(builder):
    sys_ = builder()
    report = verify_compression_structure(sys_, f_chain(sys_))
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
    projs = [M.projector() for M in oracle.chain_spaces(sys_).M_summands]
    worst = max(
        opnorm(projs[p] @ T @ projs[q])
        for p in range(3) for q in range(3) if p != q for T in ops
    )
    assert worst < RESID
    # F_1's second summand has a full slot; couplings are expected
    subs = [summand(sys_, kinds) for kinds in _chain_patterns(3)[1]]
    cross = max(
        opnorm(subs[p].projector() @ T @ subs[q].projector())
        for p in range(3) for q in range(3) if p != q for T in ops
    )
    assert cross > 0.1


def test_structure_and_E_at_hardy_10x4_k5_stay_under_0_56_mb():
    """hardy 10^4 k5 (N = 10^4, dim S = 9375, dim F = 2500): verify_compression_structure
    and wandering_E read every residual from slot norms and blocks, so with the factors'
    facts read first, together they peak under 0.56 MB of tracemalloc'd memory (about
    0.445 MB, most of it the two compressions' slot indices of their positions).  One
    N-row block of 16 complex columns would take 2.4 MB, the n compressions to the M_i
    4 x 5.0 MB, and a dense E, dim S x 4 complex, 0.57 MB."""
    sys_ = build_system([hardy_factor(10, 5) for _ in range(4)])
    chain = f_chain(sys_)
    for f in sys_.factors:
        f.eigenpair, f.wandering, f.block_norms
    tracemalloc.start()
    try:
        report = verify_compression_structure(sys_, chain)
        wd = wandering_E(sys_)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert report.ok(RESID) and wd.factor_wandering_dims == [1] * 4
    assert wd.alignment_residual < RESID
    assert chain.at.size == 9375 and peak < 0.56, peak


def _rows_bound(call, rows):
    """call()'s result, the (function, shape) of every array with ``rows`` rows that a
    Python frame binds or returns while it runs, and its tracemalloc'd peak in bytes."""
    seen = set()

    def scan(frame, event, arg):
        values = list(frame.f_locals.values()) + ([arg] if event == "return" else [])
        seen.update((frame.f_code.co_name, v.shape) for v in values
                    if isinstance(v, np.ndarray) and v.ndim and v.shape[0] == rows)
        return scan

    tracemalloc.start()
    sys.settrace(scan)
    try:
        out = call()
    finally:
        sys.settrace(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, seen, peak


def test_an_F_cokernel_and_wandering_E_form_no_N_or_dim_S_row_array():
    """hardy 10^4 k5 (N = 10^4, dim S = 9375, dim F = 2500), the factors' facts read
    first: comp_F's cokernel at the origin, its inclusion residual included, binds no
    array with N rows and peaks below one N-row copy of its W (4 complex columns,
    0.61 MB; about 0.31 MB); wandering_E binds none with dim S rows."""
    sys_ = build_system([hardy_factor(10, 5) for _ in range(4)])
    chain = f_chain(sys_)
    comp_F = verify_compression_structure(sys_, chain).compressions[1]
    for f in sys_.factors:
        f.eigenpair, f.wandering, f.kernels(0, sys_.tol)
    W, seen, peak = _rows_bound(lambda: comp_F.cokernel((0j,) * 4, sys_.tol), sys_.N)
    assert W.shape == (2500, 4) and not comp_F.leaks
    assert seen == set() and peak < sys_.N * W.shape[1] * 16, peak
    wd, seen, _ = _rows_bound(lambda: wandering_E(sys_), chain.at.size)
    assert wd.factor_wandering_dims == [1] * 4 and seen == set()


def test_factor_eigenpair_prefix_shift():
    """Hardy on C^5 with Q = span(e_1, e_2): the first spectrum point 0 has
    ker (Q^H T Q)^H = C e_1, so the eigenpair is (0, e_1) exactly."""
    model = make_shift(SpaceKind.hardy(), 5)
    alpha, v, resid = tensor_factor(model.operator, prefix_coinvariant(model, 2)).eigenpair
    assert alpha == 0 and resid < 1e-12
    assert np.allclose(np.abs(v), np.eye(5)[:, 0])


def test_factor_eigenpair_quotient_complement():
    """C[z]/((z - 0.3)(z + 0.5)) with Q the complement of the ideal (z - 0.3): Q is
    the one-dimensional model of C[z]/(z - 0.3), so alpha is the root 0.3 exactly,
    read from the given roots, and v spans Q."""
    qmodel = make_quotient([0.3, -0.5])
    Q1 = complement_within(Subspace.full(2), ideal_subspace(qmodel, [0.3]))
    f = tensor_factor(qmodel.operator, Q1, spectrum=[0.3, -0.5])
    alpha, v, resid = f.eigenpair
    assert alpha == 0.3 and resid < 1e-12
    assert abs(abs(np.vdot(Q1.basis[:, 0], v)) - 1) < 1e-12
    # in C[z]/((z - 0.7)(z + 0.5)(z - 0.3)), Q models C[z]/((z - 0.3)(z + 0.5)): of its
    # two adjoint eigenvalues the first spectrum point, by modulus, is taken
    qmodel = make_quotient([0.7, -0.5, 0.3])
    Q2 = complement_within(Subspace.full(3), ideal_subspace(qmodel, [0.3, -0.5]))
    alpha, v, resid = tensor_factor(qmodel.operator, Q2, spectrum=[0.7, -0.5, 0.3]).eigenpair
    assert alpha == 0.3 and resid < 1e-12


def test_wandering_E_hardy_case():
    sys_ = hardy_2x2_system()
    wd, E, summands = distinguished(sys_)
    assert wd.factor_wandering_dims == [1, 1]
    assert E.dim == 2
    assert wd.alignment_residual < RESID
    # E, lifted from S's coordinates, sits inside F, summand by summand inside the M_i
    amb = oracle.chain_spaces(sys_)
    S = amb.S.basis
    assert amb.F.containment_residual(Subspace(S @ E.basis, _checked=True)) < RESID
    for E_i, M_i in zip(summands, amb.M_summands):
        assert M_i.containment_residual(Subspace(S @ E_i.basis, _checked=True)) < RESID
    assert wd.shift_points == [(0j, 0j), (0j, 0j)]


def test_wandering_E_quotient_case():
    """The ideal factor contributes no wandering directions."""
    wd, E, _ = distinguished(quotient_system())
    assert wd.factor_wandering_dims == [0, 1]
    assert E.dim == 1
    # the second summand's shifted point carries the first factor's eigenvalue
    assert wd.shift_points[1][0] == pytest.approx(0.3)
    assert wd.shift_points[1][1] == 0
    assert wd.alignment_residual < RESID


def test_factor_facts_are_computed_once():
    """A factor's eigenpair, wandering subspace and gws test are read once from its
    slot kernels, each computed once per (z, tol)."""
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
    no_Q = tensor_factor(make_shift(SpaceKind.hardy(), 3).operator, Subspace(np.zeros((3, 0))))
    assert no_Q.eigenpair is None


def test_wandering_E_needs_an_eigenpair_in_every_Q():
    """A zero co-invariant subspace holds no adjoint eigenvector."""
    T = make_shift(SpaceKind.hardy(), 3).operator
    sys_ = build_system([tensor_factor(T, Subspace(np.zeros((3, 0)))), hardy_factor(3, 1)])
    with pytest.raises(EigenError):
        distinguished(sys_)


def test_slot_spectrum_of_matrices():
    """Triangular matrices give their diagonal exactly; others the means of their
    eigvals' clusters: a simple eigenvalue its eigvals value bit for bit, and a
    rotated Jordan block J_4, whose eigvals scatter by about eps^(1/4), one point
    at 0 to rounding."""
    upper = np.array([[0.25, 3.0, 1.0], [0.0, -0.5, 2.0], [0.0, 0.0, 0.25]])
    assert tensor_factor(upper, Subspace.full(3)).spectrum == (0.25, -0.5)
    general = np.array([[0.5, 1.0], [0.2, -0.1]], dtype=complex)
    spectrum = tensor_factor(general, Subspace.full(2)).spectrum
    assert sorted(spectrum, key=abs) == sorted(np.linalg.eigvals(general), key=abs)
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    J = V @ np.diag(np.ones(3), -1) @ V.T
    assert np.abs(np.linalg.eigvals(J)).max() > 1e-6
    (z,) = tensor_factor(J, Subspace.full(4)).spectrum
    assert abs(z) < 1e-14


def test_a_given_spectrum_must_hold_every_eigenvalue():
    """A given spectrum is trusted as exact, so a short one is refused.  In
    J_2 (+) 0.5 I_2 with Q = span(e_4), S's wandering subspace span(e_1) does not
    generate, which the local test sees only at 0.5: spectrum [0] misses it.
    A triple root, which the companion matrix's eigvals split, passes as given,
    and without it the eigvals' cluster means are the roots to rounding."""
    T = np.zeros((4, 4))
    T[1, 0], T[2, 2], T[3, 3] = 1.0, 0.5, 0.5
    Q = Subspace(np.eye(4)[:, 3:])
    assert not tensor_factor(T, Q).wandering_generates
    with pytest.raises(ModelError, match="misses"):
        tensor_factor(T, Q, spectrum=[0])
    assert not tensor_factor(T, Q, spectrum=[0, 0.5]).wandering_generates
    model = make_quotient([[[0.3, 0.0], 3], -0.5])
    assert np.abs(np.linalg.eigvals(model.operator) - 0.3).min() > 1e-7
    f = tensor_factor(model.operator, Subspace.full(4), spectrum=[0.3, -0.5])
    assert f.spectrum == (0.3, -0.5)
    certified = tensor_factor(model.operator, Subspace.full(4)).spectrum
    assert np.abs(np.subtract(certified, f.spectrum)).max() < 1e-12


def test_joint_spectrum_is_the_product_of_slot_spectra():
    sys_ = quotient_system()
    spectra = [f.spectrum for f in sys_.factors]
    assert sys_.joint_spectrum() == list(itertools.product(*spectra))
    assert len(sys_.joint_spectrum()) == np.prod([len(s) for s in spectra])
    assert hardy_2x2_system().joint_spectrum() == [(0j, 0j)]


def test_batched_norms_survive_a_non_converging_svd(monkeypatch):
    """When the stacked SVD of a factor's 16 projector matrices, of the power
    bound's 9 powers of a slot block, or of wandering_E's 4n slot alignment
    matrices does not converge, each matrix's SVD (which retries) gives the same
    numbers, none of them a structural 0."""
    sys_ = rotated_system()
    want, want_E = _projection_identities(sys_), wandering_E(sys_)
    want_P = _summandwise_powers(sys_)
    assert min(want.values()) > 0 and want_P > 0 and want_E.alignment_residual > 0
    calls = _fail_once(monkeypatch)
    assert _projection_identities(sys_) == want
    assert calls[0] == (16, 3, 3) and len(calls) > 17
    calls = _fail_once(monkeypatch)
    assert _summandwise_powers(sys_) == want_P
    assert calls[0] == (9, 1, 1) and len(calls) > 10
    calls = _fail_once(monkeypatch)
    assert wandering_E(sys_).alignment_residual == want_E.alignment_residual
    assert calls[0][0] == 4 * sys_.n and len(calls) == 4 * sys_.n + 1
