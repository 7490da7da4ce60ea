"""Generating sets, Krylov closures, and certified multiplicity bounds.

For a tuple A = (A_1, ..., A_n) acting on C^N and a subspace L, the joint
Krylov closure of a generating set G is the smallest subspace containing G
that is invariant under every A_i.  The multiplicity of (the compression of)
A on L is the least cardinality of a generating set whose closure is all of
L.  Certification brackets that integer:

* lower bounds come from local coranks dim(L (-) sum_i (C_i - lam_i) L) of
  the compressed tuple at points lam (closures are invariant under scalar
  shifts of the tuple, so every point yields a valid bound).  The corank is
  nonzero only when conj(lam) is a joint eigenvalue of the compressed
  adjoint tuple.  The caller passes points that hold the joint spectrum (a
  scenario passes the product of its exact slot spectra), and only those
  points are used, each once (see ``multiplicity``).  No random points are
  used: off the joint spectrum their corank is 0, and in floating point they
  can only add pseudospectral false positives;
* the upper bound is the size of a set whose closure is verified to exhaust
  L.  The wandering subspace W = L (-) sum_i C_i L is closed first unless it
  has fewer than ``lower`` vectors: its length is the corank at 0, so a
  shorter W cannot generate.  Otherwise up to ``trials`` seeded random sets
  of ``lower`` vectors are closed.  For a commuting tuple the corank over the
  joint spectrum is the multiplicity (Nakayama's lemma), so no set of
  another size is drawn: a miss leaves the uncertified bracket [lower, dim L].

A result is certified exactly when ``lower`` vectors exhaust L.  Every function
works in the coordinates of the space its tuple acts on: ``multiplicity``,
``local_corank`` and ``wandering_subspace`` take a tuple already compressed
to L (``OperatorTuple.compressed``) and return wandering subspaces and
witness generators in L's coordinates, as ``krylov_closure`` returns its
closure.  Closures follow ordered monomials if A commutes.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    _svd,
    as_columns,
    as_operator,
    compress,
    numerical_rank,
    orthonormalize,
    rank_margin,
    same_subspace,
)


@dataclass(eq=False)
class OperatorTuple:
    """Same-size square operators, acting on the coordinates of one space."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(as_operator(A) for A in self.ops)
        if not ops:
            raise InputError("operator tuple must contain at least one operator")
        d = ops[0].shape[0]
        for A in ops[1:]:
            if A.shape[0] != d:
                raise InputError("operators in a tuple must share one ambient dimension")
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self):
        return self.ops[0].shape[0]

    @property
    def n(self):
        return len(self.ops)

    def shifted(self, lam):
        """The tuple (A_1 - lam_1 I, ..., A_n - lam_n I)."""
        lam = _as_point(lam, self.n)
        eye = np.eye(self.dim, dtype=complex)
        return OperatorTuple(tuple(A - l * eye for A, l in zip(self.ops, lam)))

    def compressed(self, L):
        """The tuple compressed to L, in L's coordinates."""
        if L.ambient_dim != self.dim:
            raise InputError("subspace lives in the wrong ambient space")
        return OperatorTuple(tuple(compress(op, L) for op in self.ops))

    @functools.cached_property
    def _stack(self):
        """U, s of [A_1 ... A_n], shared by the corank at 0 and the wandering subspace."""
        return _stacked_svd(self.ops)[:2]


@dataclass
class MultiplicityResult:
    lower: int
    upper: int
    certified: bool
    witness_generators: list | None
    witness_point: tuple | None
    trials_used: int
    seed: int
    wandering_generates: bool


def _as_tuple(A, L=None):
    """A as an OperatorTuple; given L, one acting on L's coordinates, C^{dim L}."""
    t = A if isinstance(A, OperatorTuple) else OperatorTuple(tuple(A))
    if L is not None and t.dim != L.dim:
        raise InputError(f"the tuple acts on C^{t.dim}, not on the coordinates of a "
                         f"{L.dim}-dimensional subspace: compress it to that subspace first")
    return t


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
    t = _as_tuple(A)
    d, n = t.dim, t.n
    first = orthonormalize(as_columns(G, d), tol=tol, ambient_dim=d)
    B, margin = first.basis, first.margin
    blocks, commuting = [(B, n)], None  # the newest blocks, each with how many A_i map it
    while blocks and B.shape[1] < d:
        steps = [(range(n), n)]
        if sum(k * N.shape[1] for N, k in blocks) >= _JOINT_WIDTH:
            commuting = commuting if commuting is not None else n == 1 or _commutes(t.ops, tol)
            steps = [([i], i + 1 if commuting else n) for i in range(n)]
        mapped, blocks = blocks, []
        for ops, label in steps:
            images = [t.ops[i] @ N for N, k in mapped for i in ops if i < k]
            if not images or B.shape[1] == d:
                continue
            R = np.hstack(images)
            for _ in range(2):
                R = R - B @ (B.conj().T @ R)
            U, s, _ = _svd(R)
            rank = min(numerical_rank(s, tol), d - B.shape[1])
            margin = min(margin, rank_margin(s, rank, tol))
            new = U[:, :rank] - B @ (B.conj().T @ U[:, :rank])
            new, _ = np.linalg.qr(new)
            B = np.hstack([B, new])
            blocks += [(new, label)] if rank else []
    return Subspace(B, tol=tol, _checked=True, margin=margin)


def shifted_closure_check(A, G, lam, tol=DEFAULT_TOL):
    """Closures are invariant under shifting each A_i by a scalar: verify it.

    Computes both closures independently, ranking at ``tol``, and returns
    ``(agree, margin)``: whether they are the same subspace (by dimension and
    largest principal angle, threshold ``tol``) and the smaller of their two
    ``margin``s, which says how far from a tie the rank decisions behind that
    answer were.
    """
    t = _as_tuple(A)
    lam = _as_point(lam, t.n)
    plain = krylov_closure(t, G, tol=tol)
    shifted = krylov_closure(t.shifted(lam), G, tol=tol)
    return same_subspace(plain, shifted, tol=max(tol, 1e-12)), min(plain.margin, shifted.margin)


def _stacked_svd(ops, lam=None, compute_uv=True):
    """U, s of [C_1 - lam_1 I ... C_n - lam_n I] (k x nk) from R^H, where its adjoint,
    filled block by block into one array, is QR: a k x k SVD, not a k x nk one."""
    k, diag = ops[0].shape[0], np.arange(ops[0].shape[0])
    A = np.empty((len(ops) * k, k), dtype=complex)
    for i, C in enumerate(ops):
        A[i * k:(i + 1) * k] = C.conj().T
        if lam is not None:
            A[i * k + diag, diag] -= np.conj(lam[i])
    return _svd(np.linalg.qr(A, mode="r").conj().T, compute_uv=compute_uv)


def wandering_subspace(A, L):
    """W = L (-) sum_i C_i L for the tuple C = A in L's coordinates, in those
    coordinates: the left singular vectors of [C_1 ... C_n] past its rank."""
    U, s = _as_tuple(A, L)._stack
    return Subspace(U[:, numerical_rank(s, L.tol):], tol=L.tol, _checked=True)


def local_corank(A, L, lam, tol=None):
    """dim( L (-) sum_i (C_i - lam_i) L ) for C = A on L, ranked at tol (default L.tol).

    A lower bound for the multiplicity.
    """
    t = _as_tuple(A, L)
    lam = _as_point(lam, t.n)
    s = _stacked_svd(t.ops, lam, compute_uv=False) if any(lam) else t._stack[1]
    return L.dim - numerical_rank(s, tol or L.tol)


def multiplicity(A, L=None, *, lambda_samples, trials=64, seed=42, tol=None):
    """Bracket the multiplicity of the compression of A to L (default: all of C^N).

    Coranks are evaluated only at ``lambda_samples``, each distinct point
    once, so the points must hold every joint eigenvalue of the compressed
    tuple.  For a scenario the product of slot spectra
    sigma(T_1) x ... x sigma(T_n) does, for S and for F alike.
    S is invariant, so the compression to S is a restriction of the
    kron-embedded tuple, whose joint spectrum is that product.  F is not
    invariant, but each M_i = S_i (x) (x)_{j != i} Q_j is the difference
    (S_i (x) (x)_{j != i} C^{m_j}) (-) (S_i (x) ((x)_{j != i} Q_j)-perp) of
    two invariant subspaces, so its compression's joint eigenvalues lie in
    the product too; and the compression to F is block diagonal along the M_i.

    A acts on L's coordinates, and so do the witness generators.  Coranks
    and closures decide ranks at ``tol`` (default ``L.tol``).  W, read from
    the stack factorization the corank at 0 makes, is closed first unless it
    is shorter than ``lower``; ``wandering_generates`` says whether it
    exhausts L (True for L = 0).  If not, at most ``trials`` draws of
    ``lower`` unit vectors from ``default_rng([seed, lower])`` are closed;
    ``trials_used`` counts them.  ``upper`` is the size of the set found,
    dim L on a miss; the result is certified when it is ``lower``.
    """
    t = _as_tuple(A)
    if L is None:
        L = Subspace.full(t.dim, tol=tol or DEFAULT_TOL)
    t = _as_tuple(t, L)
    if tol is None:
        tol = L.tol
    k = L.dim
    if k == 0:
        return MultiplicityResult(0, 0, True, [], None, 0, seed, True)
    pts = dict.fromkeys(_as_point(p, t.n) for p in lambda_samples)
    coranks = {p: local_corank(t, L, p, tol=tol) for p in pts}
    best_corank = max(coranks.values(), default=0)
    witness_point = max(coranks, key=coranks.get) if best_corank else None
    # a nonzero subspace always needs at least one generator
    lower = max(1, best_corank)
    U, s = t._stack
    W = U[:, numerical_rank(s, tol):]  # L (-) sum_i C_i L; its length is the corank at 0
    # mult >= corank at 0: a shorter W cannot generate, and a longer generating W
    # leaves no lower-vector set to find
    wandering = W.shape[1] >= lower and krylov_closure(t, W, tol=tol).dim == k
    G = W if wandering else None
    rng = np.random.default_rng([seed, lower])
    trials_used = 0
    while G is None and trials_used < trials:
        trials_used += 1
        D = rng.standard_normal((k, lower)) + 1j * rng.standard_normal((k, lower))
        D /= np.linalg.norm(D, axis=0)
        G = D if krylov_closure(t, D, tol=tol).dim == k else None
    return MultiplicityResult(
        lower=lower,
        upper=k if G is None else G.shape[1],
        certified=G is not None and G.shape[1] == lower,
        witness_generators=None if G is None else list(G.T),
        witness_point=witness_point,
        trials_used=trials_used,
        seed=seed,
        wandering_generates=wandering,
    )
