"""Brute-force cross-checks, kept independent of the package on purpose.

Only raw numpy and scipy here: orbit spans are enumerated monomial by
monomial, degree layer by degree layer (valid for commuting tuples), with one
SVD of the stacked layers deciding dimensions, or grown by the joint block
Krylov loop (``joint_closure``, valid for any tuple), and multiplicities are
bracketed by exhaustive corank sampling plus random generator search.  Slow
but simple, for ambient dimensions up to ~10, and up to N = 36 at a tight
rank tolerance.
Principal angles come from scipy.linalg.subspace_angles; the package itself
does not import scipy.  Dense references that only tests read live here too:
pairwise commutator norms, the X_i projections, the N x N embedded operators
T~_i that the package applies only slot by slot, every structural
residual family of ``verify_compression_structure`` from N x N projectors,
and the distinguished summands E_i as N-row kron products.
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


def joint_closure(ops, G, tol=1e-10):
    """Orthonormal basis of the closure of G's columns under ``ops``, the way
    the package grew every closure before it ranked operator by operator: the
    newest block is mapped through every operator, and one SVD ranks all of
    its images, projected twice against the basis, at ``tol`` times
    max(1, their largest singular value).  Valid for any tuple."""
    d = ops[0].shape[0]

    def ranked(M):
        if not M.shape[1]:
            return M[:, :0]
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        return U[:, :int(np.sum(s > tol * max(1.0, s[0])))]

    B, _ = np.linalg.qr(ranked(np.asarray(G, dtype=complex).reshape(d, -1)))
    new = B
    while new.shape[1] and B.shape[1] < d:
        R = np.hstack([op @ new for op in ops])
        for _ in range(2):
            R = R - B @ (B.conj().T @ R)
        U = ranked(R)[:, :d - B.shape[1]]
        new, _ = np.linalg.qr(U - B @ (B.conj().T @ U))
        B = np.hstack([B, new])
    return B


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


def summand_projector(sys_, i):
    """P_{M_i} = P_{Q_1} (x) .. P_{S_i} .. (x) P_{Q_n}, dense N x N."""
    return functools.reduce(np.kron, [_projector(f.S if j == i else f.Q)
                                      for j, f in enumerate(sys_.factors)])


def distinguished_summands(sys_, alphas, tol=1e-10):
    """N-row orthonormal bases of E_i = (S_i (-) T_i S_i) (x) (x)_{j != i} C v_j, as dense
    kron products, numpy only: S_i (-) T_i S_i as the complement in S_i of the
    left singular vectors of T_i S_i above ``tol``, and v_j the null vector of
    (T_j^H - conj(alpha_j)) on Q_j, which must be one-dimensional."""
    out = []
    for i in range(sys_.n):
        cols = []
        for j, f in enumerate(sys_.factors):
            if j == i:
                U, s, _ = np.linalg.svd(f.T @ f.S.basis, full_matrices=False)
                rank = int(np.sum(s > tol * max(1.0, s[0]))) if s.size else 0
                cols.append(_complement(f.S.basis, U[:, :rank]))
                continue
            A = (f.T.conj().T - np.conj(alphas[j]) * np.eye(f.T.shape[0])) @ f.Q.basis
            _, s, Vh = np.linalg.svd(A)
            assert s[-1] <= tol and (len(s) == 1 or s[-2] > tol), s
            cols.append(f.Q.basis @ Vh[-1].conj()[:, None])
        out.append(functools.reduce(np.kron, cols))
    return out


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


def _orth(basis):
    """An orthonormal basis of ran(basis) (a chain basis may be skewed on purpose)."""
    return scipy.linalg.orth(basis) if basis.shape[1] else basis


def _complement(big, small):
    """big (-) small, both orthonormal, from a full SVD of the coordinates of small in big."""
    U = np.linalg.svd(big.conj().T @ small, full_matrices=True)[0]
    return big @ U[:, small.shape[1]:]


def _norm2(A):
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def dense_chain_spaces(chain):
    """Orthonormal bases of S, F_1, ..., F_{n-1} and of the gaps between them."""
    spaces = [_orth(space.basis) for space in [chain.S] + chain.F_chain]
    return spaces, [_complement(big, small) for big, small in zip(spaces, spaces[1:])]


def dense_chain_residuals(sys_, chain):
    """The chain family from N x N projectors: containments, and S (-) F_1 against
    ran(P~_{n-1} P~_n) by the sine of the largest angle."""
    spaces, gaps = dense_chain_spaces(chain)
    res = {f"containment_{idx}": float(np.linalg.norm(small - big @ (big.conj().T @ small),
                                                      axis=0).max(initial=0.0))
           for idx, (big, small) in enumerate(zip(spaces, spaces[1:]))}
    mats = [np.eye(d) for d in sys_.dims[:-2]] + [_projector(f.S) for f in sys_.factors[-2:]]
    w, V = np.linalg.eigh(functools.reduce(np.kron, mats))
    tail = V[:, w > 0.5]
    res["head_gap_dim_match"] = float(abs(gaps[0].shape[1] - tail.shape[1]))
    res["head_gap_sine"] = (_norm2(tail - gaps[0] @ (gaps[0].conj().T @ tail))
                            if gaps[0].shape[1] == tail.shape[1] else float("inf"))
    return res


def dense_commutativity(sys_, chain):
    """max ||[C_i, C_j]||_2 of the dense compressions to S and to each F_i."""
    ops = embedded_ops(sys_)
    spaces, _ = dense_chain_spaces(chain)
    names = ["S"] + [f"F_{i + 1}" for i in range(len(chain.F_chain))]
    return {name: commutator_residual([B.conj().T @ T @ B for T in ops])
            for name, B in zip(names, spaces)}


def dense_structure_residuals(sys_, chain, seed=42):
    """block_structure, semi_invariance and power_identity as products of
    N x N projectors, the reference for the slot and basis forms (powers of
    degree 1..3 on 4 random vectors, as verify_compression_structure draws
    them)."""
    ops = embedded_ops(sys_)
    P_F = _projector(chain.F)
    Pm = [_projector(M) for M in chain.M_summands]
    n = len(Pm)
    block = {
        "off_diagonal": max(_norm2(Pm[p] @ T @ Pm[q])
                            for p in range(n) for q in range(n) if p != q for T in ops),
        "diagonal_sum": max(_norm2(P_F @ T @ P_F - sum(P @ T @ P for P in Pm)) for T in ops),
    }
    spaces, gaps = dense_chain_spaces(chain)
    semi = {}
    for idx, (big, gap) in enumerate(zip(spaces, gaps)):
        P_big, P_gap = big @ big.conj().T, gap @ gap.conj().T
        semi[f"gap_{idx}"] = max(_norm2(P_big @ T @ gap - P_gap @ T @ gap) for T in ops)
    rng = np.random.default_rng(seed)
    V = chain.F.basis @ (rng.standard_normal((chain.F.dim, 4))
                         + 1j * rng.standard_normal((chain.F.dim, 4)))
    V /= np.linalg.norm(V, axis=0)
    worst = 0.0
    for kk in itertools.product(range(4), repeat=sys_.n):
        if not 1 <= sum(kk) <= 3:
            continue
        lhs = mono = np.eye(sys_.N)
        for T, p in zip(ops, kk):
            lhs = np.linalg.matrix_power(P_F @ T @ P_F, p) @ lhs
            mono = np.linalg.matrix_power(T, p) @ mono
        rhs = sum(P @ mono @ P for P in Pm)
        worst = max(worst, np.linalg.norm((lhs - rhs) @ V, axis=0).max())
    return {"block_structure": block, "semi_invariance": semi,
            "power_identity": {"summandwise_powers": worst}}


def dense_projection_identities(sys_, S):
    """The projection identities from the N x N X_i and P_S, the reference
    for the slot forms."""
    X = x_projections(sys_)
    sum_X = sum(X)
    prod_Q = functools.reduce(np.kron, [_projector(f.Q) for f in sys_.factors])
    n = len(X)
    return {
        "inclusion_exclusion": _norm2(np.eye(sys_.N) - prod_Q - sum_X),
        "sum_equals_PS": _norm2(sum_X - _projector(S)),
        "idempotent": max(_norm2(x @ x - x) for x in X),
        "hermitian": max(_norm2(x - x.conj().T) for x in X),
        "orthogonal_ranges": max(_norm2(X[p] @ X[q]) for p in range(n) for q in range(n) if p != q),
    }


def dense_structure_report(sys_, chain, seed=42):
    """Every structural family of verify_compression_structure, from dense N x N
    operators and projectors, keyed as the package keys them."""
    return {"projection_identities": dense_projection_identities(sys_, chain.S),
            "chain": dense_chain_residuals(sys_, chain),
            "commutativity": dense_commutativity(sys_, chain),
            **dense_structure_residuals(sys_, chain, seed=seed)}
