"""Generating sets, Krylov closures, and certified multiplicity bounds.

For a tuple A = (A_1, ..., A_n) acting on C^k, the joint Krylov closure of a
generating set G is the smallest subspace containing G that is invariant
under every A_i, and the multiplicity of A is the least size of a G whose
closure is C^k.  A tuple compressed to a subspace L acts on L's coordinates;
its wandering subspaces, witnesses and closures are in them.  Certification
brackets the multiplicity:

* lower bounds are the coranks dim W_lam, W_lam = C^k (-) sum_i (A_i - lam_i) C^k
  the wandering subspace of A - lam (``OperatorTuple.cokernel``; a compression
  of a tensor system reads its own from the slots, ``slots.SlotTuple``).
  Closures do not move under scalar shifts, so every point gives a bound, which
  is nonzero only at joint eigenvalues.  The caller passes points that hold the
  joint spectrum, and only those are used, each once (``multiplicity``): off it
  a corank is 0, or in floating point a pseudospectral false positive;
* the upper bound is the size of a set verified to generate C^k: W = W_0 first,
  unless shorter than ``lower``, then up to ``trials`` seeded random sets of
  ``lower`` vectors.  For a commuting tuple the largest corank over the joint
  spectrum is the multiplicity (Nakayama's lemma), so no other size is drawn:
  a miss leaves the uncertified bracket [lower, k].

G generates if its closure is C^k or, where the caller vouches for the points
and A ``commutes``, if it passes the local test (Nakayama's lemma;
Atiyah-Macdonald, ch. 2): rank(W_lam^H G) = dim W_lam at each point lam.
Certified means ``lower`` vectors pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    _svd,
    as_columns,
    as_operator,
    numerical_rank,
    orthonormalize,
    rank_margin,
    same_subspace,
)


@dataclass(eq=False)
class OperatorTuple:
    """``n`` same-size square operators, acting on the ``dim`` coordinates of one space."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(as_operator(A) for A in self.ops)
        if not ops:
            raise InputError("operator tuple must contain at least one operator")
        d = ops[0].shape[0]
        for A in ops[1:]:
            if A.shape[0] != d:
                raise InputError("operators in a tuple must share one ambient dimension")
        self.ops, self.dim, self.n = ops, d, len(ops)

    def shifted(self, lam):
        """The tuple (A_1 - lam_1 I, ..., A_n - lam_n I)."""
        ops = tuple(A.copy() for A in self.ops)
        for A, l in zip(ops, _as_point(lam, self.n)):
            A.flat[::self.dim + 1] -= l
        return OperatorTuple(ops)

    def cokernel(self, lam, tol):
        """W_lam = C^k (-) sum_i (A_i - lam_i) C^k as columns, for lam one number per
        A_i: the left singular vectors of [A_1 - lam_1 ... A_n - lam_n] past its rank
        at ``tol``."""
        U, s, _ = _stacked_svd(self.ops, lam)
        return U[:, numerical_rank(s, tol):]

    def commutes(self, tol):
        """Whether the tuple commutes, for the local test: one operator, or ``_commutes``."""
        return self.n == 1 or _commutes(self.ops, tol)


@dataclass
class MultiplicityResult:
    lower: int
    upper: int
    certified: bool
    witness_generators: list | None
    witness_point: tuple | None
    trials_used: int
    wandering_generates: bool
    witness_closure: Subspace | None
    wandering: Subspace
    coranks: dict  # point -> dim W_lam, for each distinct point given
    ranked: dict | None = None  # point -> the local test's singular values, if it took G


def _as_tuple(A):
    return A if isinstance(A, OperatorTuple) else OperatorTuple(tuple(A))


def _as_point(lam, n):
    if np.isscalar(lam):
        lam = (lam,)
    lam = tuple(complex(l) for l in lam)
    if len(lam) != n:
        raise InputError(f"expected {n} shift coordinates, got {len(lam)}")
    return lam


_JOINT_WIDTH = 24  # fewer images than this: one joint SVD beats an SVD and a QR per A_i


def _commutes(ops, tol):
    """||[A_i, A_j] x|| <= tol ||C_i x|| ||C_j x|| for one fixed-seed random unit x, where
    C_i = A_i - (tr A_i / d) I: [C_i, C_j] = [A_i, A_j], so no shift or scale of the
    tuple moves the test.  What forming C_i C_j x rounds away, d eps ||A_i C_j x||, passes."""
    d = ops[0].shape[0]
    x = np.random.default_rng(0).standard_normal((d, 2)) @ [1, 1j]
    x /= np.linalg.norm(x)
    tau = [np.trace(A) / d for A in ops]
    Cx = [A @ x - t * x for A, t in zip(ops, tau)]

    def fits(i, j):
        ACx = ops[i] @ Cx[j], ops[j] @ Cx[i]
        gap = np.linalg.norm(ACx[0] - tau[i] * Cx[j] - ACx[1] + tau[j] * Cx[i])
        rounding = d * np.finfo(float).eps * (np.linalg.norm(ACx[0]) + np.linalg.norm(ACx[1]))
        return gap <= tol * np.linalg.norm(Cx[i]) * np.linalg.norm(Cx[j]) + rounding

    return all(fits(i, j) for i in range(len(ops)) for j in range(i))


def _ranked(cuts, G):
    """(lam, dim W_lam, the singular values of W_lam^H G) for each (lam, W_lam) in ``cuts``
    with dim W_lam > 0, W_lam as columns, lazily."""
    return ((p, W.shape[1], _svd(W.conj().T @ G, compute_uv=False)) for p, W in cuts if W.shape[1])


def _generates(cuts, G, tol):
    """The local test: rank(W_lam^H G) = dim W_lam for each W_lam (as columns) in ``cuts``."""
    return all(numerical_rank(s, tol) == c for _, c, s in _ranked(enumerate(cuts), G))


def krylov_closure(A, G, tol=DEFAULT_TOL):
    """Smallest subspace containing G that every A_i maps into itself.

    The closure lives in the space A acts on, so a closure inside L takes the
    tuple compressed to L and G in L's coordinates.  span(G) grows block by
    block: the newest blocks' images are projected against the basis twice
    (DGKS reorthogonalization) and ranked by their own residual, in one SVD
    below ``_JOINT_WIDTH`` images, else one A_i at a time.  If the tuple
    commutes, the block A_i added is mapped by A_1 .. A_i only: the ordered
    monomials A_{i_1} .. A_{i_m} G, i_1 <= .. <= i_m, span the closure.  Its
    ``margin`` is the smallest ``rank_margin`` of those rank decisions and of
    the one ``orthonormalize`` made on G.
    """
    return _closure(_as_tuple(A).ops, G, tol)


def _closure(ops, G, tol, lam=None):
    """G's closure under A - lam (A if ``lam`` is None), images formed as A_i N - lam_i N.
    The basis is the rows of Bt = B^T, filled block by block, so a projection
    conjugates only thin factors and the result is a view; Bt doubles when full."""
    d, n = ops[0].shape[0], len(ops)
    first = orthonormalize(as_columns(G, d), tol=tol, ambient_dim=d)
    r, margin = first.dim, first.margin
    Bt = np.empty((r, d), dtype=complex)  # grown by doubling, up to d rows
    Bt[:r] = first.basis.T
    blocks, commuting = [(Bt[:r].T, n)], None  # the newest blocks, each with how many A_i map it
    while blocks and r < d:
        steps = [(range(n), n)]
        if sum(k * N.shape[1] for N, k in blocks) >= _JOINT_WIDTH:
            commuting = commuting if commuting is not None else n == 1 or _commutes(ops, tol)
            steps = [([i], i + 1 if commuting else n) for i in range(n)]
        mapped, blocks = blocks, []
        for idx, label in steps:
            pairs = [(i, N) for N, k in mapped for i in idx if i < k]
            if not pairs or r == d:
                continue
            R = np.hstack([ops[i] @ N - lam[i] * N if lam is not None and lam[i] else ops[i] @ N
                           for i, N in pairs])
            B = Bt[:r]
            for _ in range(2):
                R -= B.T @ (B @ R.conj()).conj()
            U, s, _ = _svd(R)
            rank = min(numerical_rank(s, tol), d - r)
            margin = min(margin, rank_margin(s, rank, tol))
            new = U[:, :rank] - B.T @ (B @ U[:, :rank].conj()).conj()
            if r + rank > len(Bt):  # earlier blocks keep viewing the old rows, bit for bit
                Bt = np.concatenate([B, np.empty((min(d, max(2 * r, r + rank)) - r, d), complex)])
            Bt[r:r + rank] = np.linalg.qr(new)[0].T
            blocks += [(Bt[r:r + rank].T, label)] if rank else []
            r += rank
    return Subspace(Bt[:r].T, tol=tol, _checked=True, margin=margin)


def shifted_closure_check(A, G, closure, points):
    """Closures are invariant under shifting each A_i by a scalar: verify it.

    ``closure`` is G's closure under A; G is closed under A - lam at each point
    lam in turn, one closure alive at a time, ranked at ``closure.tol`` too.  One
    ``(agree, margin)`` per point: whether that closure is ``closure`` (by
    dimension, and if proper by ``same_subspace``, threshold
    ``max(closure.tol, 1e-12)``) and the smaller of the two ``margin``s: how far
    from a tie the rank decisions were.
    """
    t = _as_tuple(A)
    shifted = (_closure(t.ops, G, closure.tol, _as_point(lam, t.n)) for lam in points)
    return [(same_subspace(closure, c, tol=max(closure.tol, 1e-12)), min(closure.margin, c.margin))
            for c in shifted]


def _stacked_svd(ops, lam):
    """U, s, Vh of [C_1 - lam_1 I ... C_n - lam_n I] (k x nk) from R^H, where its adjoint,
    filled block by block into one array, is QR: a k x k SVD, not a k x nk one."""
    k, diag = ops[0].shape[0], np.arange(ops[0].shape[0])
    A = np.empty((len(ops) * k, k), dtype=complex)
    for i, C in enumerate(ops):
        A[i * k:(i + 1) * k] = C.conj().T
        A[i * k + diag, diag] -= np.conj(lam[i])
    return _svd(np.linalg.qr(A, mode="r").conj().T)


def wandering_subspace(A, *, tol=DEFAULT_TOL):
    """W = C^k (-) sum_i A_i C^k for the tuple A on C^k, ranked at ``tol``: A's
    ``cokernel`` at 0 (``slots.SlotTuple`` reads a compression's from its slots).
    Its dimension is the corank at 0, and the corank at lam is that of A - lam."""
    t = _as_tuple(A)
    return Subspace(t.cokernel((0j,) * t.n, tol), tol=tol, _checked=True)


def multiplicity(A, *, lambda_samples, trials=64, seed=42, tol=DEFAULT_TOL, exact_points=False):
    """Bracket the multiplicity of the tuple A on the space it acts on, C^k.

    Coranks are evaluated only at ``lambda_samples``, each distinct point
    once, so the points must hold every joint eigenvalue of A.  For a
    scenario's compressions the product of slot spectra
    sigma(T_1) x ... x sigma(T_n) does, for S and for F alike.
    S is invariant, so the compression to S is a restriction of the
    kron-embedded tuple, whose joint spectrum is that product.  F is not
    invariant, but each M_i = S_i (x) (x)_{j != i} Q_j is the difference
    (S_i (x) (x)_{j != i} C^{m_j}) (-) (S_i (x) ((x)_{j != i} Q_j)-perp) of
    two invariant subspaces, so its compression's joint eigenvalues lie in
    the product too; and the compression to F is block diagonal along the M_i.

    With ``exact_points`` the caller vouches that the points are exactly the
    complete joint spectrum: one left out could certify a wrong number.  If
    A also ``commutes``, sets are judged by the local test, not closed.
    Coranks, local tests and closures decide ranks at ``tol``.  The wandering
    subspace W is taken first: its dimension is the corank at 0, and each other
    point's is that of A's ``cokernel`` there (``coranks``).  W is tried
    unless shorter than ``lower``; ``wandering_generates`` says whether it
    generates C^k (True for k = 0).  If not, at most ``trials`` draws of
    ``lower`` unit vectors from ``default_rng([seed, lower])`` are tried;
    ``trials_used`` counts them.  ``upper`` is the size of the set found, k on
    a miss; the result is certified when it is ``lower``.  The set found is the
    witness, in A's coordinates; ``witness_closure`` is its closure (None on a
    miss or a local test), and ``wandering`` is W.  ``ranked`` maps each point with
    dim W_lam > 0 to the singular values of W_lam^H G, if a local test took G.
    """
    t = _as_tuple(A)
    k = t.dim
    if k == 0:
        zero = Subspace(np.zeros((0, 0)), tol=tol, _checked=True, margin=np.inf)
        return MultiplicityResult(0, 0, True, [], None, 0, True, zero, zero, {})
    origin = (0j,) * t.n
    pts = dict.fromkeys(_as_point(p, t.n) for p in lambda_samples)
    cuts = {p: t.cokernel(p, tol) for p in dict.fromkeys([origin, *pts])}
    W = Subspace(cuts[origin], tol=tol, _checked=True)
    coranks = {p: cuts[p].shape[1] for p in pts}
    local = exact_points and t.commutes(tol)
    best_corank = max(coranks.values(), default=0)
    witness_point = max(coranks, key=coranks.get) if best_corank else None
    # a nonzero space always needs at least one generator
    lower = max(1, best_corank)
    closure = None

    def generates(G):
        nonlocal closure
        if local:
            return _generates([cuts[p] for p in pts], G, tol)
        closure = krylov_closure(t, G, tol=tol)
        return closure.dim == k

    # mult >= corank at 0: a shorter W cannot generate, and a longer generating W
    # leaves no lower-vector set to find
    wandering = W.dim >= lower and generates(W.basis)
    G = W.basis if wandering else None
    rng = np.random.default_rng([seed, lower])
    trials_used = 0
    while G is None and trials_used < trials:
        trials_used += 1
        D = rng.standard_normal((k, lower)) + 1j * rng.standard_normal((k, lower))
        D /= np.linalg.norm(D, axis=0)
        G = D if generates(D) else None
    return MultiplicityResult(
        lower=lower,
        upper=k if G is None else G.shape[1],
        certified=G is not None and G.shape[1] == lower,
        witness_generators=None if G is None else list(G.T),
        witness_point=witness_point,
        trials_used=trials_used,
        wandering_generates=wandering,
        witness_closure=None if G is None else closure,
        wandering=W,
        coranks=coranks,
        ranked=None if G is None or not local else {
            p: s for p, _, s in _ranked(((p, cuts[p]) for p in pts), G)},
    )
