import importlib

import numpy as np
import pytest

import oracle
from shiftlab import (
    InputError,
    OperatorTuple,
    SpaceKind,
    Subspace,
    build_system,
    f_chain,
    krylov_closure,
    local_corank,
    make_shift,
    multiplicity,
    prefix_coinvariant,
    shifted_closure_check,
    tensor_factor,
    verify_compression_structure,
    wandering_subspace,
)
from shiftlab.subspaces import subspace_sine


def two_jordan_blocks():
    T = np.zeros((4, 4), dtype=complex)
    T[1, 0] = 1.0
    T[3, 2] = 1.0
    return T


def commuting_polynomials(rng, d, n_ops):
    """A commuting tuple built from polynomials of one random matrix."""
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    M /= np.linalg.norm(M, 2)
    ops = []
    for _ in range(n_ops):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ops.append(coeffs[0] * np.eye(d) + coeffs[1] * M + coeffs[2] * M @ M)
    return ops


def test_operator_tuple_validation_and_commutators():
    with pytest.raises(InputError):
        OperatorTuple(())
    with pytest.raises(InputError):
        OperatorTuple((np.eye(2), np.eye(3)))
    t = OperatorTuple((np.eye(3), np.diag([1.0, 2.0, 3.0])))
    assert oracle.commutator_residual(t.ops) < 1e-15
    bad = OperatorTuple((np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])))
    assert oracle.commutator_residual(bad.ops) > 0.5


def test_shifted_tuple():
    t = OperatorTuple((np.zeros((2, 2)),))
    s = t.shifted(3.0)
    assert np.allclose(s.ops[0], -3 * np.eye(2))
    with pytest.raises(InputError):
        t.shifted((1.0, 2.0))


def test_krylov_closure_single_shift():
    T = make_shift(SpaceKind.hardy(), 5).operator
    full = krylov_closure((T,), np.eye(5)[:, :1])
    assert full.dim == 5
    tail = krylov_closure((T,), np.eye(5)[:, 4:])
    assert tail.dim == 1
    middle = krylov_closure((T,), np.eye(5)[:, 2:3])
    assert middle.dim == 3  # e_2, e_3, e_4


def close_inside(A, L, G):
    """The closure of G inside L, under A compressed to L, lifted back to C^N."""
    local = OperatorTuple(tuple(A)).compressed(L)
    closure = krylov_closure(local, L.basis.conj().T @ G, tol=L.tol)
    return Subspace(L.basis @ closure.basis, tol=L.tol, _checked=True)


def wandering_generates(A, L):
    """Does L's wandering subspace generate L under A compressed to L?  Both the
    wandering subspace and the closure are in L's coordinates."""
    local = OperatorTuple(tuple(A)).compressed(L)
    return krylov_closure(local, wandering_subspace(local, L).basis, tol=L.tol).dim == L.dim


def test_krylov_closure_restricted():
    T = make_shift(SpaceKind.hardy(), 5).operator
    L = Subspace(np.eye(5)[:, 2:], _checked=True)  # invariant tail
    closed = close_inside((T,), L, np.eye(5)[:, 2:3])
    assert closed.dim == 3
    assert L.containment_residual(closed) < 1e-12
    # a generator orthogonal to the last directions only reaches part of L
    closed2 = close_inside((T,), L, np.eye(5)[:, 4:])
    assert closed2.dim == 1


def test_closure_in_a_zero_space_is_zero():
    """A tuple compressed to the zero subspace acts on C^0, where every closure,
    wandering subspace and corank is {0} or 0."""
    L = Subspace.zero(3)
    local = OperatorTuple((np.eye(3),)).compressed(L)
    assert local.dim == 0
    for G in (np.zeros((0, 0)), L.basis.conj().T @ np.ones((3, 2))):
        closure = krylov_closure(local, G)
        assert (closure.dim, closure.ambient_dim) == (0, 0)
    assert close_inside((np.eye(3),), L, np.ones((3, 1))).dim == 0
    W = wandering_subspace(local, L)
    assert (W.dim, W.ambient_dim) == (0, 0)
    assert local_corank(local, L, (0.0,)) == local_corank(local, L, (0.5,)) == 0


def test_ambient_tuple_on_a_proper_subspace_is_an_input_error():
    """The three L-functions take the tuple in L's coordinates; an ambient tuple
    of another size is refused, not compressed behind the caller's back."""
    T = make_shift(SpaceKind.hardy(), 5).operator
    L = Subspace(np.eye(5)[:, 2:], _checked=True)
    with pytest.raises(InputError):
        multiplicity((T,), L, lambda_samples=ORIGIN)
    with pytest.raises(InputError):
        local_corank((T,), L, (0.0,))
    with pytest.raises(InputError):
        wandering_subspace((T,), L)
    local = OperatorTuple((T,)).compressed(L)
    res = multiplicity(local, L, lambda_samples=ORIGIN)
    assert res.upper == 1 and res.witness_generators[0].shape == (L.dim,)
    assert local_corank(local, L, (0.0,)) == wandering_subspace(local, L).dim == 1


def test_krylov_closure_matches_bruteforce_orbit():
    rng = np.random.default_rng(23)
    for trial in range(10):
        ops = commuting_polynomials(rng, 6, 2)
        G = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        got = krylov_closure(ops, G).dim
        want = oracle.orbit_dim(ops, G)
        assert got == want


def test_krylov_closure_matches_oracle_on_tensor_pairs():
    """Seeded sweep over nilpotent hardy/bergman pairs (N <= 36) with 1-3
    generators, on the whole space and compressed to S = (Q_1 (x) Q_2)-perp and
    to Q_1 (x) Q_2: dimensions match the brute-force orbit, and every basis is
    orthonormal to within 10 tol.

    The oracle stacks monomial images, whose small singular values fall below
    its default relative cut of 1e-8 near N = 30 (a generator with a small
    constant term still reaches all of C^N), so it runs at 1e-12 here.  On the
    whole space a random generator set has a nonzero constant term, so its
    closure is all of C^N.
    """
    rng = np.random.default_rng(2718)
    kinds = (SpaceKind.hardy, SpaceKind.bergman)
    for trial in range(20):
        m1, m2 = (int(v) for v in rng.integers(2, 7, size=2))
        T1 = make_shift(kinds[int(rng.integers(2))](), m1).operator
        T2 = make_shift(kinds[int(rng.integers(2))](), m2).operator
        ops = [np.kron(T1, np.eye(m2)), np.kron(np.eye(m1), T2)]
        N = m1 * m2
        k1, k2 = int(rng.integers(1, m1 + 1)), int(rng.integers(1, m2 + 1))
        idx = np.arange(N)
        in_Q = (idx // m2 < k1) & (idx % m2 < k2)
        for mask in (None, ~in_Q, in_Q):
            r = int(rng.integers(1, 4))
            G = rng.standard_normal((N, r)) + 1j * rng.standard_normal((N, r))
            if mask is None:
                got = krylov_closure(ops, G)
                want = oracle.orbit_dim(ops, G, tol=1e-12)
                assert want == N
            elif not mask.any():
                continue
            else:
                L = Subspace(np.eye(N)[:, mask], _checked=True)
                got = close_inside(ops, L, G)
                want = oracle.orbit_dim(
                    oracle.restrict(ops, L.basis), L.basis.conj().T @ G, tol=1e-12
                )
                assert L.containment_residual(got) < 1e-12
            assert got.dim == want, (trial, m1, m2, k1, k2, r)
            defect = np.abs(got.basis.conj().T @ got.basis - np.eye(got.dim)).max()
            assert defect <= 10 * got.tol


@pytest.mark.parametrize("kinds, m1, m2", [
    (("bergman", "bergman"), 5, 6),
    (("dirichlet", "dirichlet"), 6, 6),
    (("hardy", "bergman"), 6, 6),
])
def test_krylov_closure_reaches_whole_tensor_orbits(kinds, m1, m2):
    """A generator with a nonzero constant term generates all of
    C[z1, z2]/(z1^m1, z2^m2), and a random one has it: over 40 unit-norm
    generators each, the closure is the whole C^N, the exact answer."""
    T1 = make_shift(getattr(SpaceKind, kinds[0])(), m1).operator
    T2 = make_shift(getattr(SpaceKind, kinds[1])(), m2).operator
    ops = [np.kron(T1, np.eye(m2)), np.kron(np.eye(m1), T2)]
    N = m1 * m2
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((N, 1)) + 1j * rng.standard_normal((N, 1))
        g /= np.linalg.norm(g)
        assert krylov_closure(ops, g).dim == N, seed


def test_orbit_dim_counts_bergman_5x6_orbits_in_full():
    """With each monomial layer scaled to unit norm and the rank cut relative
    to the largest singular value, the oracle counts all 30 dimensions of
    every bergman 5 x bergman 6 orbit over these 40 generators at its default
    tol; ranking the raw stack at an absolute 1e-8 gave 29 in 3 of them."""
    T1 = make_shift(SpaceKind.bergman(), 5).operator
    T2 = make_shift(SpaceKind.bergman(), 6).operator
    ops = [np.kron(T1, np.eye(6)), np.kron(np.eye(5), T2)]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))
        assert oracle.orbit_dim(ops, g / np.linalg.norm(g)) == 30, seed


def test_krylov_closure_margin_is_its_closest_decision():
    """The margin is the smallest of every rank decision, the generators' included:
    a second generator, or an image, 1e-8 long against the cut 1e-10 gives 100."""
    G = np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]])
    assert krylov_closure((np.eye(3),), G).margin == pytest.approx(100.0, rel=1e-9)
    T = np.zeros((3, 3))
    T[1, 0] = 1e-8
    T[2, 1] = 1.0
    closure = krylov_closure((T,), np.eye(3)[:, :1])
    assert closure.dim == 3 and closure.margin == pytest.approx(100.0, rel=1e-9)
    # a clear closure: every decision is far from the cut
    assert krylov_closure((np.eye(3),), np.eye(3)[:, :1]).margin > 1e9


def prefix_comp_S(slots):
    """S of a prefix system, slots (kind, m, k), and its tuple compressed to S."""
    models = [(make_shift(kind, m), k) for kind, m, k in slots]
    factors = [tensor_factor(model.operator, prefix_coinvariant(model, k)) for model, k in models]
    sys_ = build_system(factors)
    chain = f_chain(sys_)
    return chain.S, verify_compression_structure(sys_, chain).compressions[0]


WIDE_TUPLES = {
    "hardy-4^4-k2": [(SpaceKind.hardy(), 4, 2)] * 4,
    "mixed-6^3-k3": [(SpaceKind.hardy(), 6, 3), (SpaceKind.bergman(), 6, 3),
                     (SpaceKind.dirichlet(), 6, 3)],
}


def closure_generators(S, comp_S, seed=11):
    """W_S and one and two random unit generators, in S's coordinates."""
    yield wandering_subspace(comp_S, S).basis
    rng = np.random.default_rng(seed)
    for r in (1, 2):
        G = rng.standard_normal((S.dim, r)) + 1j * rng.standard_normal((S.dim, r))
        yield G / np.linalg.norm(G, axis=0)


@pytest.mark.parametrize("name", sorted(WIDE_TUPLES))
def test_wide_closures_match_the_joint_reference(name):
    """Closures that rank operator by operator along ordered monomials span what
    the joint loop spans, on wide commuting compressions to S."""
    S, comp_S = prefix_comp_S(WIDE_TUPLES[name])
    tol = S.tol
    for G in closure_generators(S, comp_S):
        got = krylov_closure(comp_S, G, tol=tol)
        want = Subspace(oracle.joint_closure(comp_S.ops, G, tol=tol), _checked=True)
        assert got.dim == want.dim
        assert subspace_sine(want, got) <= np.sin(tol)


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_closure_of_a_non_commuting_tuple_maps_every_direction(scale):
    """A: X -> Y and B: Y -> Z (identity blocks, 12 each) do not commute, so the
    closure of X reaches Z = BAX.  Ordered monomials alone stop at X + Y = 24:
    the commutation probe is what keeps every image, at any scale of the tuple
    and after a large shift, where the images still clear the rank cutoff."""
    A, B = np.zeros((36, 36)), np.zeros((36, 36))
    A[12:24, :12] = B[24:, 12:24] = scale * np.eye(12)
    G = np.eye(36)[:, :12]
    assert krylov_closure((A, B), G).dim == 36
    assert oracle.joint_closure([A, B], G).shape[1] == 36
    lam = (1e5, -1e5j)
    assert krylov_closure(OperatorTuple((A, B)).shifted(lam), G).dim == 36
    assert shifted_closure_check((A, B), G, lam)[0]


def test_commutation_probe_ignores_shift_and_scale():
    """The probe measures the commutator against the centred operators, so a
    commuting tuple stays commuting and a non-commuting one stays non-commuting
    whatever scalar shift and scale the tuple carries, and it forgives the
    rounding of forming the commutator."""
    mm = importlib.import_module("shiftlab.multiplicity")
    _, comp_S = prefix_comp_S(WIDE_TUPLES["hardy-4^4-k2"])
    A, B = np.zeros((36, 36)), np.zeros((36, 36))
    A[12:24, :12] = B[24:, 12:24] = np.eye(12)
    for scale, shift in [(1.0, 0), (1e-5, 0), (1e5, 0), (1.0, 3 - 2j), (1e-5, 1e-3j)]:
        commuting = OperatorTuple(tuple(scale * C for C in comp_S.ops)).shifted((shift,) * 4)
        non_commuting = OperatorTuple((scale * A, scale * B)).shifted((shift, -shift))
        assert mm._commutes(commuting.ops, 1e-10)
        assert not mm._commutes(non_commuting.ops, 1e-10)
    # a multiple of I, here compressed to another basis, commutes with anything,
    # though centring it leaves only rounding
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((comp_S.dim, comp_S.dim)))
    for c in (0.1, 0.43 - 0.09j):
        assert mm._commutes((Q.T @ (c * Q), *comp_S.ops[:2]), 1e-10)


def test_wide_closure_ranks_fewer_columns_than_the_joint_loop(monkeypatch):
    """Work counter: the W_S closure of hardy 4^4 k2 passes at most 0.6 times
    the SVD columns of the joint loop, which maps every new direction through
    every operator."""
    S, comp_S = prefix_comp_S(WIDE_TUPLES["hardy-4^4-k2"])
    G = next(closure_generators(S, comp_S))
    columns = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **k: columns.append(M.shape[1])
                        or real_svd(M, *a, **k))
    assert oracle.joint_closure(comp_S.ops, G).shape[1] == comp_S.dim
    joint, columns[:] = sum(columns), []
    assert krylov_closure(comp_S, G).dim == comp_S.dim
    assert sum(columns) <= 0.6 * joint, (sum(columns), joint)


def test_corank_at_zero_and_wandering_subspace_share_one_factorization(monkeypatch):
    """The compression to S factors its stack [C_1 ... C_n] once: the corank at 0
    and the wandering subspace rank the same singular values, so they agree."""
    mm = importlib.import_module("shiftlab.multiplicity")
    S, comp_S = prefix_comp_S([(SpaceKind.hardy(), 4, 2), (SpaceKind.bergman(), 3, 1)])
    stacks = []
    real_stacked = mm._stacked_svd
    monkeypatch.setattr(mm, "_stacked_svd", lambda ops, *a, **k: stacks.append(len(ops))
                        or real_stacked(ops, *a, **k))
    corank = local_corank(comp_S, S, (0, 0))
    assert corank == wandering_subspace(comp_S, S).dim == 2
    assert multiplicity(comp_S, S, lambda_samples=[(0, 0)]).lower == corank
    assert stacks == [2]


def test_shifted_closure_check_random_sweep():
    rng = np.random.default_rng(31)
    for trial in range(30):
        d = int(rng.integers(2, 7))
        ops = commuting_polynomials(rng, d, int(rng.integers(2, 4)))
        cols = int(rng.integers(1, 3))
        G = rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))
        lam = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
        agree, _ = shifted_closure_check(ops, G, tuple(lam), tol=1e-8)
        assert agree, trial


def test_wandering_subspace_of_full_shift():
    T = make_shift(SpaceKind.dirichlet(), 5).operator
    W = wandering_subspace((T,), Subspace.full(5))
    assert W.dim == 1
    assert np.allclose(np.abs(W.basis[:, 0]), np.eye(5)[:, 0])
    assert wandering_generates((T,), Subspace.full(5))


def test_wandering_subspace_two_blocks():
    T = two_jordan_blocks()
    W = wandering_subspace((T,), Subspace.full(4))
    assert W.dim == 2
    assert wandering_generates((T,), Subspace.full(4))


def test_local_corank_against_matrix_rank():
    rng = np.random.default_rng(41)
    T = two_jordan_blocks()
    L = Subspace.full(4)
    for _ in range(20):
        lam = (rng.standard_normal() + 1j * rng.standard_normal(),)
        got = local_corank((T,), L, lam)
        want = oracle.corank_at([T], lam)
        assert got == want
    assert local_corank((T,), L, (0.0,)) == 2


ORIGIN = [(0.0,)]  # the spectrum of every nilpotent operator below


def test_multiplicity_single_shift_is_one():
    T = make_shift(SpaceKind.hardy(), 6).operator
    res = multiplicity((T,), lambda_samples=ORIGIN)
    assert (res.lower, res.upper, res.certified) == (1, 1, True)
    assert res.witness_generators is not None and len(res.witness_generators) == 1


def test_multiplicity_two_blocks_is_two():
    res = multiplicity((two_jordan_blocks(),), lambda_samples=ORIGIN)
    assert (res.lower, res.upper, res.certified) == (2, 2, True)
    assert res.witness_point == (0j,)


def test_multiplicity_zero_operator_needs_full_basis():
    res = multiplicity((np.zeros((3, 3)),), lambda_samples=ORIGIN)
    assert (res.lower, res.upper, res.certified) == (3, 3, True)


def test_multiplicity_zero_subspace():
    L = Subspace.zero(3)
    res = multiplicity(OperatorTuple((np.eye(3),)).compressed(L), L, lambda_samples=[(1.0,)])
    assert (res.lower, res.upper, res.certified) == (0, 0, True)


def test_multiplicity_on_invariant_subspace():
    T = make_shift(SpaceKind.bergman(), 6).operator
    L = Subspace(np.eye(6)[:, 3:], _checked=True)
    res = multiplicity(OperatorTuple((T,)).compressed(L), L, lambda_samples=ORIGIN)
    assert (res.lower, res.upper, res.certified) == (1, 1, True)


def test_multiplicity_respects_extra_lambda_samples():
    # diagonal with a repeated eigenvalue away from the origin: the whole
    # spectrum and the repeated eigenvalue alone certify 2; the simple one
    # alone bounds only 1, and no set larger than that bound is tried
    T = np.diag([0.7, 0.7, -0.2])
    res = multiplicity((T,), lambda_samples=[(0.7,), (-0.2,)])
    res2 = multiplicity((T,), lambda_samples=[(0.7,)])
    assert res.certified and res2.certified
    assert res.upper == res2.upper == 2
    res3 = multiplicity((T,), lambda_samples=[(-0.2,)])
    assert (res3.lower, res3.upper, res3.certified) == (1, 3, False)


def test_multiplicity_uses_exactly_the_given_points(monkeypatch):
    """Only the given points are evaluated, each distinct point once."""
    mm = importlib.import_module("shiftlab.multiplicity")  # the package exports a function of that name
    T = two_jordan_blocks()
    # 0.5 is not an eigenvalue: without the origin the bound is only 1
    res = multiplicity((T,), lambda_samples=[(0.5,)])
    assert (res.lower, res.upper, res.certified) == (1, 2, False)
    calls = []
    real = mm.local_corank

    def counting(A, L, lam, tol=None):
        calls.append(lam)
        return real(A, L, lam, tol=tol)

    monkeypatch.setattr(mm, "local_corank", counting)
    res = multiplicity((T,), lambda_samples=[(0,), (0j,), 0.0, (0.5,)])
    assert (res.lower, res.upper, res.certified) == (2, 2, True)
    assert calls == [(0j,), (0.5 + 0j,)]


def test_wandering_subspace_is_tried_before_any_random_draw():
    """W has exactly `lower` vectors and generates: it certifies with no random
    draws and is the witness.  L = 0 counts as generated by its W = 0."""
    T = two_jordan_blocks()
    res = multiplicity((T,), lambda_samples=ORIGIN, trials=0)
    assert (res.lower, res.upper, res.certified) == (2, 2, True)
    assert res.trials_used == 0 and res.wandering_generates
    W = wandering_subspace((T,), Subspace.full(4))
    assert subspace_sine(Subspace(np.column_stack(res.witness_generators)), W) < 1e-12
    L = Subspace.zero(3)
    assert multiplicity(OperatorTuple((np.zeros((0, 0)),)), L, lambda_samples=ORIGIN,
                        trials=0).wandering_generates


def test_a_short_wandering_subspace_is_not_closed(monkeypatch):
    """The corank at 0.7 is 2 but at the origin 1: W is one vector short of the
    bound, so it is not closed; random pairs certify 2."""
    mm = importlib.import_module("shiftlab.multiplicity")
    closed = []
    real = mm.krylov_closure
    monkeypatch.setattr(mm, "krylov_closure",
                        lambda A, G, **kw: closed.append(np.shape(G)) or real(A, G, **kw))
    res = multiplicity((np.diag([0.7, 0.7, 0.0]),), lambda_samples=[(0.0,), (0.7,)])
    assert (res.lower, res.upper, res.certified) == (2, 2, True)
    assert not res.wandering_generates and res.trials_used >= 1
    assert closed == [(3, 2)] * res.trials_used


def test_search_stops_at_the_corank_bound(monkeypatch):
    """Off the spectrum of a 6 x 6 scalar operator the bound is 1.  For 0 the
    wandering subspace is all of C^6: it generates at once and bounds mult by 6,
    and with the corank at 0 being 6 no single vector can, so nothing is drawn.
    For 0.3 I it is empty, and the search closes at most `trials` one-vector
    draws: a set larger than the bound could never certify (it leaves
    lower < upper).  Both leave [1, dim L]."""
    mm = importlib.import_module("shiftlab.multiplicity")
    closed = []
    real = mm.krylov_closure
    monkeypatch.setattr(mm, "krylov_closure",
                        lambda A, G, **kw: closed.append(np.shape(G)) or real(A, G, **kw))
    res = multiplicity((np.zeros((6, 6)),), lambda_samples=[(0.5,)])
    assert (res.lower, res.upper, res.certified) == (1, 6, False)
    assert res.trials_used == 0 and closed == [(6, 6)] and res.wandering_generates
    closed.clear()
    res = multiplicity((0.3 * np.eye(6),), lambda_samples=[(0.5,)])
    assert (res.lower, res.upper, res.certified) == (1, 6, False)
    assert res.trials_used == 64 and closed == [(6, 1)] * 64
    assert not res.wandering_generates and res.witness_generators is None


def test_one_tolerance_per_multiplicity_call():
    """Coranks and the generator search decide ranks at the same tol.

    T[2, 1] = 1e-6 is a rank at tol 1e-10 but not at 1e-3.  With the coranks
    ranked at L.tol = 1e-3 the bound 2 met a search at 1e-10 and certified a
    2 that is wrong at 1e-10.
    """
    T = two_jordan_blocks()
    T[2, 1] = 1e-6
    loose = Subspace.full(4, tol=1e-3)
    assert local_corank((T,), loose, (0.0,)) == 2
    assert local_corank((T,), loose, (0.0,), tol=1e-10) == 1
    for L in (loose, Subspace.full(4, tol=1e-10)):
        res = multiplicity((T,), L, lambda_samples=ORIGIN, tol=1e-10)
        assert (res.lower, res.upper, res.certified) == (1, 1, True)
    res = multiplicity((T,), loose, lambda_samples=ORIGIN)
    assert (res.lower, res.upper, res.certified) == (2, 2, True)


def test_pseudospectral_points_add_no_corank():
    """J_20 (+) (J_20 + 0.5 I) is cyclic; near 0 both blocks are nearly singular.

    Random polydisc points |lam| < 1 give sigma_min ~ |lam|^20 on both blocks
    and so a false corank 2; the eigenvalue points give the true 1 at every seed.
    """
    J = np.diag(np.ones(19), -1)
    T = np.zeros((40, 40))
    T[:20, :20] = J
    T[20:, 20:] = J + 0.5 * np.eye(20)
    for s in range(20):
        res = multiplicity((T,), lambda_samples=[(0.0,), (0.5,)], seed=s)
        assert (res.lower, res.upper, res.certified) == (1, 1, True), s


def test_multiplicity_matches_bruteforce():
    rng = np.random.default_rng(59)
    cases = []
    # single operators with known structure
    cases.append(([two_jordan_blocks()], np.eye(4)))
    T = make_shift(SpaceKind.hardy(), 5).operator
    cases.append(([T], np.eye(5)))
    # commuting pairs from polynomials of a random matrix
    for _ in range(3):
        ops = commuting_polynomials(rng, 5, 2)
        cases.append((ops, np.eye(5)))
    for ops, basis in cases:
        res = multiplicity(tuple(ops), lambda_samples=oracle.sample_points(ops))
        low, up = oracle.mult_bruteforce(ops, basis, seed=3)
        assert res.lower == low
        assert res.upper == up
        assert res.certified == (low == up)
