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
  adjoint tuple, so the points are the origin and combinations of the
  compressed operators' eigenvalues, plus any the caller supplies.  No
  random points are used: off the joint spectrum their corank is 0, and in
  floating point they can only add pseudospectral false positives;
* upper bounds come from seeded random generating sets whose closure is
  verified to exhaust L.

A result is certified exactly when the two bounds meet.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    as_columns,
    as_operator,
    complement_within,
    compress,
    numerical_rank,
    opnorm,
    orthonormalize,
    same_subspace,
)


@dataclass(eq=False)
class OperatorTuple:
    """A tuple of same-size square operators."""

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

    @functools.cached_property
    def commutator_residual(self):
        """Largest ||A_i A_j - A_j A_i||_2 over pairs, computed when first read."""
        return max((opnorm(a @ b - b @ a) for a, b in itertools.combinations(self.ops, 2)),
                   default=0.0)

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


@dataclass
class MultiplicityResult:
    lower: int
    upper: int
    certified: bool
    witness_generators: list | None
    witness_point: tuple | None
    trials_used: int
    seed: int


def _as_tuple(A):
    if isinstance(A, OperatorTuple):
        return A
    return OperatorTuple(tuple(A))


def _as_point(lam, n):
    if np.isscalar(lam):
        lam = (lam,)
    lam = tuple(complex(l) for l in lam)
    if len(lam) != n:
        raise InputError(f"expected {n} shift coordinates, got {len(lam)}")
    return lam


def _closure_local(ops, G_cols, tol):
    """Grow span(G) block by block until every A_i maps it into itself.

    Only the newest block is mapped; its images are projected against the
    basis twice (DGKS reorthogonalization) and ranked by their own residual.
    """
    d = G_cols.shape[0]
    B = orthonormalize(G_cols, tol=tol, ambient_dim=d).basis
    new = B
    while new.shape[1] and B.shape[1] < d:
        R = np.hstack([A @ new for A in ops])
        for _ in range(2):
            R = R - B @ (B.conj().T @ R)
        U, s, _ = np.linalg.svd(R, full_matrices=False)
        rank = min(numerical_rank(s, tol), d - B.shape[1])
        new = U[:, :rank] - B @ (B.conj().T @ U[:, :rank])
        new, _ = np.linalg.qr(new)
        B = np.hstack([B, new])
    return Subspace(B, tol=tol, _checked=True)


def krylov_closure(A, G, restrict_to=None, tol=None):
    """Smallest A-invariant subspace containing G.

    With ``restrict_to = L`` the tuple is first compressed to L and the
    closure is taken inside L (G is projected onto L); the result is still
    expressed in ambient coordinates.
    """
    t = _as_tuple(A)
    if restrict_to is None:
        if tol is None:
            tol = DEFAULT_TOL
        return _closure_local(list(t.ops), as_columns(G, t.dim), tol)
    L = restrict_to
    if L.ambient_dim != t.dim:
        raise InputError("restriction subspace lives in the wrong ambient space")
    if tol is None:
        tol = L.tol
    if L.dim == 0:
        return Subspace.zero(t.dim, tol=tol)
    comp = [compress(op, L) for op in t.ops]
    G_loc = L.basis.conj().T @ as_columns(G, t.dim)
    local = _closure_local(comp, G_loc, tol)
    return Subspace(L.basis @ local.basis, tol=tol, _checked=True)


def shifted_closure_check(A, G, lam, tol=DEFAULT_TOL):
    """Closures are invariant under shifting each A_i by a scalar: verify it.

    Computes both closures independently and compares them by dimension and
    largest principal angle (threshold ``tol``).
    """
    t = _as_tuple(A)
    lam = _as_point(lam, t.n)
    plain = krylov_closure(t, G, tol=tol)
    shifted = krylov_closure(t.shifted(lam), G, tol=tol)
    return same_subspace(plain, shifted, tol=max(tol, 1e-12))


def wandering_subspace(A, L):
    """W = L (-) sum_i (P_L A_i|_L) L, the orthogonal complement of the images."""
    t = _as_tuple(A)
    if L.ambient_dim != t.dim:
        raise InputError("subspace lives in the wrong ambient space")
    if L.dim == 0:
        return Subspace.zero(t.dim, tol=L.tol)
    comp = [compress(op, L) for op in t.ops]
    img = orthonormalize(np.hstack(comp), tol=L.tol, ambient_dim=L.dim)
    w_local = complement_within(Subspace.full(L.dim, tol=L.tol), img)
    return Subspace(L.basis @ w_local.basis, tol=L.tol, _checked=True)


def has_gws(A, L):
    """Does the wandering subspace of L generate L under the compressed tuple?"""
    if L.dim == 0:
        return True
    return krylov_closure(A, wandering_subspace(A, L).basis, restrict_to=L).dim == L.dim


def local_corank(A, L, lam):
    """dim( L (-) sum_i (P_L A_i|_L - lam_i) L ): a lower bound for the multiplicity."""
    t = _as_tuple(A)
    lam = _as_point(lam, t.n)
    k = L.dim
    if k == 0:
        return 0
    eye = np.eye(k, dtype=complex)
    stacked = np.hstack([compress(op, L) - l * eye for op, l in zip(t.ops, lam)])
    return k - numerical_rank(np.linalg.svd(stacked, compute_uv=False), L.tol)


_MAX_COMBOS = 200


def _dedup_complex(values, tol=1e-7):
    """Cluster nearly-equal complex values; representatives are cluster means."""
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    clusters = []
    for z in vals:
        if clusters and abs(z - clusters[-1][-1]) <= tol:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [sum(c) / len(c) for c in clusters]


def default_lambda_samples(A, L):
    """Corank sample points for the compression of A to L.

    The origin, then the combinations of the deduplicated eigenvalues of the
    compressed operators, at most ``_MAX_COMBOS`` of them (the eigenvalues
    nearest 0 first).  The corank at lam is nonzero only when conj(lam) is a
    joint eigenvalue of the compressed adjoint tuple, so no random points are
    drawn: off the joint spectrum their corank is 0 in exact arithmetic, and
    in floating point they can only add false coranks from pseudospectra.
    """
    t = _as_tuple(A)
    n = t.n
    pts = [(0j,) * n]
    if L.dim > 0:
        per_factor = max(1, int(round(_MAX_COMBOS ** (1.0 / n))))
        spectra = []
        for op in t.ops:
            evs = _dedup_complex(np.linalg.eigvals(compress(op, L)))
            evs.sort(key=lambda z: (abs(z), z.real, z.imag))
            spectra.append(evs[:per_factor])
        pts.extend(itertools.islice(itertools.product(*spectra), _MAX_COMBOS))
    out = {}
    for p in pts:
        out.setdefault(tuple((round(z.real, 12), round(z.imag, 12)) for z in p), p)
    return list(out.values())


def _search_upper(t, L, r, trials, rng, tol):
    """Try to find r random unit generators of L; returns (witness, trials used)."""
    k = L.dim
    used = 0
    for _ in range(trials):
        used += 1
        coeff = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
        coeff /= np.linalg.norm(coeff, axis=0)
        G = L.basis @ coeff
        closure = krylov_closure(t, G, restrict_to=L, tol=tol)
        if closure.dim == k:
            return [G[:, j] for j in range(r)], used
    return None, used


def mult_upper(A, L, r, trials=64, seed=42, tol=None):
    """Search for r generators of L; returns the witness vectors or None."""
    t = _as_tuple(A)
    if not isinstance(r, int) or r < 0:
        raise InputError(f"generator count must be a non-negative integer, got {r!r}")
    if L.dim == 0:
        return []
    if r == 0:
        return None
    witness, _ = _search_upper(t, L, r, trials, np.random.default_rng(seed), tol or L.tol)
    return witness


def multiplicity(A, L=None, lambda_samples=None, trials=64, seed=42, tol=None):
    """Bracket the multiplicity of the compression of A to L.

    ``lambda_samples`` are extra corank sample points merged with the default
    set.  The result is certified when the best corank lower bound meets the
    smallest random-generator count that exhausts L; ``seed`` drives only
    that generator search.
    """
    t = _as_tuple(A)
    if L is None:
        L = Subspace.full(t.dim, tol=tol or DEFAULT_TOL)
    if tol is None:
        tol = L.tol
    k = L.dim
    if k == 0:
        return MultiplicityResult(0, 0, True, [], None, 0, seed)
    pts = default_lambda_samples(t, L)
    if lambda_samples is not None:
        pts = pts + [_as_point(p, t.n) for p in lambda_samples]
    best_corank = 0
    witness_point = None
    for p in pts:
        c = local_corank(t, L, p)
        if c > best_corank:
            best_corank, witness_point = c, p
    # a nonzero subspace always needs at least one generator
    lower = max(1, best_corank)
    upper = k
    witnesses = None
    trials_used = 0
    for r in range(lower, k + 1):
        w, used = _search_upper(t, L, r, trials, np.random.default_rng([seed, r]), tol)
        trials_used += used
        if w is not None:
            upper, witnesses = r, w
            break
    return MultiplicityResult(
        lower=lower,
        upper=upper,
        certified=(lower == upper and witnesses is not None),
        witness_generators=witnesses,
        witness_point=witness_point,
        trials_used=trials_used,
        seed=seed,
    )


@dataclass
class SemiInvariantReport:
    """Multiplicity comparison across a nested pair of invariant subspaces."""

    dim_big: int
    dim_small: int
    dim_gap: int
    mult_big: MultiplicityResult
    mult_gap: MultiplicityResult
    bound_holds: bool | None
    invariance_residuals: list
    identity_residual: float


def semi_invariant_bound_check(A, L1, L2, trials=64, seed=42, max_degree=3, samples=4):
    """For invariant L2 inside invariant L1, compare multiplicities on L = L1 (-) L2.

    The multiplicity of the compression to L should not exceed the
    multiplicity on L1.  Also verifies the compression power identity
    (P_L A P_L)^k = P_L A^k P_{L1} on random vectors for multi-indices
    1 <= |k| <= max_degree, and reports each subspace's invariance residual.
    """
    t = _as_tuple(A)
    gap = complement_within(L1, L2)
    inv_resid = []
    eye = np.eye(t.dim, dtype=complex)
    for sub in (L1, L2):
        P = sub.projector()
        inv_resid.append(max(opnorm((eye - P) @ op @ P) for op in t.ops))
    mult_big = multiplicity(t, L1, trials=trials, seed=seed)
    mult_gap = multiplicity(t, gap, trials=trials, seed=seed)
    bound = None
    if mult_big.certified and mult_gap.certified:
        bound = mult_gap.upper <= mult_big.upper
    P_L = gap.projector()
    P_L1 = L1.projector()
    comp_ops = [P_L @ op @ P_L for op in t.ops]
    rng = np.random.default_rng(seed)
    resid = 0.0
    vs = L1.basis @ (
        rng.standard_normal((L1.dim, samples)) + 1j * rng.standard_normal((L1.dim, samples))
    ) if L1.dim else np.zeros((t.dim, 0))
    for lhs, mono in _compressed_powers(comp_ops, t.ops, max_degree):
        rhs = P_L @ mono @ P_L1
        for j in range(vs.shape[1]):
            v = vs[:, j]
            resid = max(resid, float(np.linalg.norm(lhs @ v - rhs @ v) / np.linalg.norm(v)))
    return SemiInvariantReport(
        dim_big=L1.dim,
        dim_small=L2.dim,
        dim_gap=gap.dim,
        mult_big=mult_big,
        mult_gap=mult_gap,
        bound_holds=bound,
        invariance_residuals=inv_resid,
        identity_residual=resid,
    )


def _compressed_powers(comp_ops, ops, max_total):
    """(C^k, A^k) for every k in Z_+^n with 1 <= |k| <= max_total."""
    eye = np.eye(ops[0].shape[0], dtype=complex)
    for kk in itertools.product(range(max_total + 1), repeat=len(ops)):
        if not 1 <= sum(kk) <= max_total:
            continue
        lhs = mono = eye
        for c_op, op, p in zip(comp_ops, ops, kk):
            for _ in range(p):
                lhs = c_op @ lhs
                mono = op @ mono
        yield lhs, mono
