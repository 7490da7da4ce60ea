"""Brute-force cross-checks, kept independent of the package on purpose.

Only raw numpy and scipy here: orbit spans are enumerated monomial by
monomial, degree layer by degree layer (valid for commuting tuples), with one
SVD of the stacked layers deciding dimensions, and multiplicities are
bracketed by exhaustive corank sampling plus random generator search.  Slow
but simple, for ambient dimensions up to ~10, and up to N = 36 at a tight
rank tolerance.
Principal angles come from scipy.linalg.subspace_angles; the package itself
does not import scipy.  Dense references that only tests read (pairwise
commutator norms, the X_i projections, the N x N embedded operators T~_i that
the package applies only slot by slot) live here too.
"""

import functools
import itertools

import numpy as np
import scipy.linalg


def orbit_dim(ops, G, tol=1e-8, max_degree=None):
    """Dimension of the smallest subspace containing G's columns and invariant
    under every operator.  Degree-layer enumeration of the monomial images
    A^k G; each layer is scaled to unit Frobenius norm before it joins the
    stack, whose rank counts singular values above ``tol`` times the largest.
    Stops when a whole layer adds no rank.

    The monomial stack stays ill-conditioned near N = 30: with a small
    constant term in G its smallest singular value can fall below any cut
    while the orbit is all of C^N, so callers there pass a tighter ``tol``."""
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if G.shape[0] == 1 and ops[0].shape[0] != 1:
        G = G.T
    n = len(ops)
    if max_degree is None:
        max_degree = G.shape[0]

    def unit(V):
        norm = np.linalg.norm(V)
        return V / norm if norm > 0 else V

    def rank(M):
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > tol * s[0])) if s.size else 0

    layer = {(0,) * n: G}
    stacked = [unit(G)]
    r = rank(np.hstack(stacked))
    for _ in range(max_degree):
        nxt = {}
        for k, V in layer.items():
            for i in range(n):
                kk = tuple(v + (1 if j == i else 0) for j, v in enumerate(k))
                if kk not in nxt:
                    nxt[kk] = ops[i] @ V
        stacked.append(unit(np.hstack(list(nxt.values()))))
        new_r = rank(np.hstack(stacked))
        if new_r == r:
            return r
        r, layer = new_r, nxt
    return r


def corank_at(local_ops, lam, tol=1e-8):
    """k - rank of the stacked shifted operators, straight from matrix_rank."""
    k = local_ops[0].shape[0]
    eye = np.eye(k, dtype=complex)
    M = np.hstack([C - l * eye for C, l in zip(local_ops, lam)])
    return k - int(np.linalg.matrix_rank(M, tol=tol))


def restrict(ops, basis):
    """Local matrices of the tuple on an invariant subspace with orthonormal basis."""
    return [basis.conj().T @ A @ basis for A in ops]


def sample_points(local_ops, max_combos=400):
    """Origin plus all combinations of (rounded, deduplicated) eigenvalues."""
    n = len(local_ops)
    pts = [tuple(0.0 + 0.0j for _ in range(n))]
    spectra = []
    for C in local_ops:
        evs = np.linalg.eigvals(C)
        seen = {}
        for z in evs:
            seen[(round(z.real, 7), round(z.imag, 7))] = complex(z)
        spectra.append(list(seen.values()))
    pts.extend(itertools.islice(itertools.product(*spectra), max_combos))
    return pts


def mult_bruteforce(ops, basis, seed=0, attempts=40, tol=1e-8):
    """(lower, upper) bracket for the number of generators of the restriction.

    lower = best corank over origin + eigenvalue combinations; upper = least
    r for which some random r-column generator set has full orbit.  upper is
    None when the search fails outright (should not happen for r = dim).
    """
    local = restrict(ops, basis)
    k = basis.shape[1]
    if k == 0:
        return 0, 0
    lower = max(1, max(corank_at(local, p, tol=tol) for p in sample_points(local)))
    rng = np.random.default_rng(seed)
    for r in range(lower, k + 1):
        for _ in range(attempts):
            G = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
            if orbit_dim(local, G, tol=tol) == k:
                return lower, r
    return lower, None


def principal_angles(a, b):
    """Principal angles (radians, ascending) between two Subspaces, via scipy."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    return np.sort(scipy.linalg.subspace_angles(a.basis, b.basis))


def max_principal_angle(a, b):
    """Largest principal angle; 0 for two zero subspaces, pi/2 if only one is zero."""
    if a.dim == 0 and b.dim == 0:
        return 0.0
    if a.dim == 0 or b.dim == 0:
        return float(np.pi / 2)
    return float(principal_angles(a, b).max())


def commutator_residual(ops):
    """Largest ||A_i A_j - A_j A_i||_2 over pairs of the operators."""
    return max((np.linalg.norm(a @ b - b @ a, 2) for a, b in itertools.combinations(ops, 2)),
               default=0.0)


def _projector(sub):
    return sub.basis @ sub.basis.conj().T


def x_projections(sys_):
    """X_i = P~_i Q~_{i+1} ... Q~_n as dense N x N matrices: by the mixed-product
    property, the kron chain I (x) .. (x) I (x) P_{S_i} (x) P_{Q_{i+1}} (x) .. (x) P_{Q_n}
    of the factors' slot projectors."""
    return [functools.reduce(np.kron, [np.eye(d) for d in sys_.dims[:i]] + [_projector(f.S)]
                             + [_projector(g.Q) for g in sys_.factors[i + 1:]])
            for i, f in enumerate(sys_.factors)]


def slot_matrix(sys_, i, M):
    """Embed an m_i x m_i matrix into slot i of the tensor product, I (x) .. M .. (x) I."""
    mats = [np.eye(d, dtype=complex) for d in sys_.dims]
    mats[i] = np.asarray(M, dtype=complex)
    return functools.reduce(np.kron, mats)


def embedded_ops(sys_):
    """The dense N x N T~_i of a tensor system, in slot order.  Any package call
    that takes an operator tuple accepts this sequence."""
    return tuple(slot_matrix(sys_, i, f.T) for i, f in enumerate(sys_.factors))
