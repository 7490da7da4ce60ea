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
a tuple compressed to a subspace (``compressed``), pairwise commutator
norms, the X_i projections, the N x N embedded operators T~_i that the
package applies only slot by slot, the chain as word lists over its 2^n
kind-blocks (``word_chain``, the reference for ``f_chain``'s slot-kind patterns,
with the word forms of semi-invariance and commutativity, ``word_structure``),
its N-row bases (``chain_spaces``, built on ``joint_invariant_S``), every
structural residual family of ``verify_compression_structure`` from N x N
projectors, and the
distinguished summands E_i, as N-row kron products and in S's coordinates
(``distinguished_E``), and the inclusion residual of a compression's W_lam from
its N-row placement (``dense_inclusion_residual``), and the shift lemma's six draws as
real shifted slot factorizations (``shifted_slot_check``), the reference for the bound
that the package reads them by.
"""

import functools
import itertools
import types

import numpy as np
import scipy.linalg

from shiftlab import OperatorTuple, Subspace, compress
from shiftlab.slots import _columns
from shiftlab.subspaces import _svds, numerical_rank, rank_margin


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


def compressed(ops, L):
    """The tuple of ``ops`` compressed to the Subspace L, in L's coordinates; an
    InputError when L lives in another ambient space."""
    return OperatorTuple(tuple(compress(A, L) for A in ops))


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


def distinguished_E(sys_, wd):
    """(E, [E_i]) in S's coordinates, as Subspaces, from ``wandering_E``'s slot data
    ``wd``: E_i fills M_i's kind-block columns of S (``word_chain``) with the kron product of
    factor i's ``wandering`` coordinates at slot i and x_j = Q_j^H v_j at each other
    slot j, v_j the eigenvector of ``wd.eigen_data``; E is the E_i side by side."""
    xs = [f.Q.basis.conj().T @ v[:, None] for f, (_, v, _) in zip(sys_.factors, wd.eigen_data)]
    chain, summands = word_chain(sys_), []
    for i, f in enumerate(sys_.factors):
        E_i = np.zeros((chain.at.size, f.wandering.dim), dtype=complex)
        if f.wandering.dim:
            E_i[chain.columns(["Q" * i + "S" + "Q" * (sys_.n - i - 1)])] = functools.reduce(
                np.kron, [f.wandering.basis if j == i else x for j, x in enumerate(xs)])
        summands.append(Subspace(E_i, tol=sys_.tol, _checked=True))
    E = Subspace(np.hstack([E_i.basis for E_i in summands]), tol=sys_.tol, _checked=True)
    return E, summands


def dense_inclusion_residual(L, W, lam):
    """max_j ||P_L (T~_j - lam_j)^H W||_2 for a ``slots.SlotTuple`` L and W in the
    coordinates of L's positions: W placed at those rows of an N-row Y, the dense
    N x N T~_j = I (x) .. U_j^H T_j U_j .. (x) I applied, and L's rows kept."""
    sys_ = L.sys
    Y = np.zeros((sys_.N, W.shape[1]), dtype=complex)
    Y[L.at] = W
    return max(_norm2((slot_matrix(sys_, j, f.adapted).conj().T @ Y)[L.at] - np.conj(z) * W)
               for j, (f, z) in enumerate(zip(sys_.factors, lam)))


def shifted_span(L, kernels, cut):
    """``slots.SlotTuple.span`` with a leading draw axis: (W, C) per draw from each slot's
    kernels, stacked over the draws; X = U Sigma V^H of each draw's spanning set cut at
    r = ``cut(d, s)``, which may record draw d's margin."""
    idx = _columns(tuple(tuple(V.shape[-1] for V in ks) for ks in kernels), L.is_S)
    Z = [np.concatenate(ks, axis=-1)[..., i] for ks, i in zip(kernels, idx)]
    X = Z[0][..., L.rows[0], :]
    for V, r in zip(Z[1:], L.rows[1:]):
        X *= V[..., r, :]
    if not L.is_S or not X.shape[-1]:
        return [(W, np.eye(W.shape[1])) for W in X]
    return [(U[:, :r], Vh[:r].conj().T / s[:r])
            for d, (U, s, Vh) in enumerate(_svds(X)) for r in [cut(d, s)]]


def shifted_slot_check(L, G, coranks, points, tol):
    """The shift lemma's six draws, each a real shifted factorization: the reference for
    ``slots.shift_bound``.  One ``(agree, margin)`` per point lam for a ``SlotTuple`` L with
    exact slot spectra, generators G of its tuple and their ``coranks`` {mu: dim W_mu}.
    L - lam is L in the system with slots T_s - lam_s and joint spectrum sigma - lam, so
    W_{mu - lam} is ``shifted_span`` of the kernels of each draw's own shifted slot matrices
    at mu_s - lam_s.  A draw agrees when every slot kernel keeps its unshifted width, every
    dim W_{mu - lam} is coranks[mu] (a shift of T_s or of its spectrum alone makes them 0,
    passing the local test vacuously) and G passes the local test there; its margin is the
    smallest ``rank_margin`` of its SVDs.  The draws run in lockstep, each factorization
    stacked over them."""
    lams = np.array(points, dtype=complex)
    agree, margin = [True] * len(lams), [np.inf] * len(lams)

    def cut(d, s):  # numerical_rank, keeping draw d's smallest rank_margin
        rank = numerical_rank(s, tol)
        margin[d] = min(margin[d], rank_margin(s, rank, tol))
        return rank

    @functools.cache
    def kernels(s, z):  # slot s's kernels at z - lam_s, stacked over the draws
        f, q = L.sys.factors[s], L.sys.factors[s].Q.dim
        A, zs, out = f.adapted - lams[:, s, None, None] * np.eye(len(f.T)), z - lams[:, s], []
        for blk, V in zip((slice(q, None), slice(0, q), slice(None)), f.kernels(z, tol)):
            svds = _svds(A[:, blk, blk] - zs[:, None, None] * np.eye(len(V[blk])))
            rank = len(V[blk]) - V.shape[1]  # each kernel's width moves with the shift
            for d, (_, sv, _) in enumerate(svds):
                agree[d] &= cut(d, sv) == rank
            out.append(np.zeros((len(lams),) + V.shape, dtype=complex))
            out[-1][:, blk] = [U[:, rank:] for U, _, _ in svds]
        return out

    for mu, c in coranks.items():
        Ws = [W for W, _ in shifted_span(L, [kernels(s, z) for s, z in enumerate(mu)], cut)]
        agree[:] = [a and W.shape[1] == c for a, W in zip(agree, Ws)]
        if ok := [d for d in range(len(lams)) if agree[d] and c]:
            for d, s in zip(ok, _svds([Ws[d].conj().T @ G for d in ok], compute_uv=False)):
                agree[d] &= cut(d, s) == c
    return list(zip(agree, margin))


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


def block_dim(sys_, block):
    """The dimension of a kind-block, a word with one 'Q' or 'S' per slot."""
    return int(np.prod([f.Q.dim if k == "Q" else f.S.dim for f, k in zip(sys_.factors, block)]))


def blocks(sys_, kinds):
    """The nonempty kind-blocks of slot kinds 'Q', 'S' and 'I' (= Q (+) S), in word order."""
    words = ("".join(b) for b in itertools.product(*("QS" if k == "I" else k for k in kinds)))
    return [b for b in words if block_dim(sys_, b)]


def flip(block, s):
    """``block`` with slot s switched between Q and S."""
    return block[:s] + ("S" if block[s] == "Q" else "Q") + block[s + 1:]


def S_blocks(sys_):
    """S's kind-blocks: every block but Q..Q, in word order."""
    return [b for b in blocks(sys_, "I" * sys_.n) if "S" in b]


def chain_slot_kinds(n, i, j):
    """Slot kinds of the j-th summand (1-based) of F_i, for i in 1..n-1, kept here apart
    from the package's patterns: Q^min(j-1, i-1) I^max(j-i, 0) S Q^(n-j) for j < n, and
    Q^(i-1) I^(n-1-i) QS for j = n."""
    if j < n:
        return ["Q"] * min(j - 1, i - 1) + ["I"] * max(j - i, 0) + ["S"] + ["Q"] * (n - j)
    return ["Q"] * (i - 1) + ["I"] * (n - 1 - i) + ["Q", "S"]


def word_chain(sys_):
    """The chain as word lists, the reference for ``f_chain``'s patterns: ``block_columns``
    maps S's blocks, in word order, to their columns of S, ``F_summands`` lists per F_i
    the blocks of each of its summands, ``F_blocks`` per F_i its blocks, ``columns`` a
    union's columns of S, ``at`` S's positions in (x)_s U_s (one meshgrid per block, in
    kron order) and ``nested`` whether each space's blocks are among the one before's."""
    S_bl = S_blocks(sys_)
    edges = np.cumsum([0] + [block_dim(sys_, b) for b in S_bl])
    block_columns = {b: range(lo, hi) for b, lo, hi in zip(S_bl, edges, edges[1:])}
    F_summands = [[blocks(sys_, chain_slot_kinds(sys_.n, i, j)) for j in range(1, sys_.n + 1)]
                  for i in range(1, sys_.n)]
    F_blocks = [sum(summands, []) for summands in F_summands]
    spaces = [S_bl] + F_blocks
    spans = [{"Q": (0, f.Q.dim), "S": (f.Q.dim, m)} for f, m in zip(sys_.factors, sys_.dims)]
    grids = (np.meshgrid(*(np.arange(*sp[k]) for sp, k in zip(spans, b)), indexing="ij")
             for b in S_bl)
    return types.SimpleNamespace(
        at=np.concatenate([np.zeros(0, dtype=int)]
                          + [np.ravel_multi_index(g, sys_.dims).ravel() for g in grids]),
        block_columns=block_columns, F_summands=F_summands, F_blocks=F_blocks,
        columns=lambda bs: np.array([c for b in bs for c in block_columns[b]], dtype=int),
        nested=all(set(small) <= set(big) for big, small in zip(spaces, spaces[1:])))


def cross_norm(sys_, rows, cols):
    """max_j ||rows^H T~_j cols||_2 for disjoint sets of kind-blocks, word by word: T~_j
    couples k only to flip(k, j), by the slot block U_a^H T_j U_b."""
    return max((f.block_norms[flip(k, j)[j], k[j]][0] for k in cols
                for j, f in enumerate(sys_.factors) if flip(k, j) in rows), default=0.0)


def commutator_bound(sys_, L):
    """max_{i<j} ||[C_i, C_j]||_F on the union of the set L of kind-blocks, word by word:
    block (k2, k), k2 = k switched at i and j, is (1[flip(k, j) in L] - 1[flip(k, i) in L])
    times a kron of slot blocks and identities."""
    dims = [{"Q": f.Q.dim, "S": f.S.dim} for f in sys_.factors]
    worst = 0.0
    for i, j in itertools.combinations(range(sys_.n), 2):
        total = 0.0
        for k in L:
            k2 = flip(flip(k, i), j)
            if k2 in L and (flip(k, j) in L) != (flip(k, i) in L):
                total += (sys_.factors[i].block_norms[k2[i], k[i]][1]
                          * sys_.factors[j].block_norms[k2[j], k[j]][1]
                          * np.prod([d[c] for s, (d, c) in enumerate(zip(dims, k))
                                     if s not in (i, j)]))
        worst = max(worst, float(np.sqrt(total)))
    return worst


def word_structure(sys_):
    """semi_invariance and commutativity keyed as ``verify_compression_structure`` keys
    them, from the word lists of ``word_chain``."""
    chain = word_chain(sys_)
    sets = [set(chain.block_columns)] + [set(bs) for bs in chain.F_blocks]
    return {"semi_invariance": {f"gap_{idx}": cross_norm(sys_, small, big - small)
                                for idx, (big, small) in enumerate(zip(sets, sets[1:]))},
            "commutativity": {name: commutator_bound(sys_, L) for name, L in zip(
                ["S"] + [f"F_{i}" for i in range(1, len(sets))], sets)}}


def joint_invariant_S(sys_):
    """S = (Q_1 (x) ... (x) Q_n)-perp as an N-row basis: the kron bases
    (x)_s (Q_s or S_s) of every kind-block but Q..Q, side by side, which with
    Q..Q form an orthonormal basis of C^N (and each has a last S slot, so S is
    also sum ran X_i, block by block).  Its columns for the blocks of an F_i or
    an M_i (``word_chain``'s ``columns``) are that space's basis."""
    cols = [functools.reduce(np.kron, [f.Q.basis if k == "Q" else f.S.basis
                                       for f, k in zip(sys_.factors, b)])
            for b in S_blocks(sys_)]
    basis = np.hstack(cols) if cols else np.zeros((sys_.N, 0), dtype=complex)
    return Subspace(basis, ambient_dim=sys_.N, tol=sys_.tol, _checked=True)


def chain_spaces(sys_):
    """The chain as N-row bases, as Subspaces: ``S`` = joint_invariant_S, and S's
    columns for the kind-blocks of each F_i (``F_chain``, whose last is ``F``)
    and of each of F's summands (``M_summands``), from ``word_chain``.  A scenario
    run forms none of them: it works in S's coordinates."""
    S, chain = joint_invariant_S(sys_), word_chain(sys_)

    def part(blocks):
        return Subspace(S.basis[:, chain.columns(blocks)], tol=S.tol, _checked=True)

    F_chain = [part(blocks) for blocks in chain.F_blocks]
    return types.SimpleNamespace(S=S, F_chain=F_chain, F=F_chain[-1],
                                 M_summands=[part(blocks) for blocks in chain.F_summands[-1]])


def dense_chain_spaces(sys_):
    """Orthonormal bases of S, F_1, ..., F_{n-1} and of the gaps between them."""
    amb = chain_spaces(sys_)
    spaces = [_orth(space.basis) for space in [amb.S] + amb.F_chain]
    return spaces, [_complement(big, small) for big, small in zip(spaces, spaces[1:])]


def dense_chain_residuals(sys_):
    """The chain family from N x N projectors: containments, and S (-) F_1 against
    ran(P~_{n-1} P~_n) by the sine of the largest angle."""
    spaces, gaps = dense_chain_spaces(sys_)
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


def dense_commutativity(sys_):
    """max ||[C_i, C_j]||_2 of the dense compressions to S and to each F_i."""
    ops = embedded_ops(sys_)
    spaces, _ = dense_chain_spaces(sys_)
    names = ["S"] + [f"F_{i + 1}" for i in range(len(spaces) - 1)]
    return {name: commutator_residual([B.conj().T @ T @ B for T in ops])
            for name, B in zip(names, spaces)}


def dense_structure_residuals(sys_):
    """block_structure, semi_invariance and power_identity as products of
    N x N projectors, the reference for the slot and basis forms (powers of
    degree 1..3, each the exact operator norm on F)."""
    ops = embedded_ops(sys_)
    amb = chain_spaces(sys_)
    P_F = _projector(amb.F)
    Pm = [_projector(M) for M in amb.M_summands]
    n = len(Pm)
    block = {
        "off_diagonal": max(_norm2(Pm[p] @ T @ Pm[q])
                            for p in range(n) for q in range(n) if p != q for T in ops),
        "diagonal_sum": max(_norm2(P_F @ T @ P_F - sum(P @ T @ P for P in Pm)) for T in ops),
    }
    spaces, gaps = dense_chain_spaces(sys_)
    semi = {}
    for idx, (big, gap) in enumerate(zip(spaces, gaps)):
        P_big, P_gap = big @ big.conj().T, gap @ gap.conj().T
        semi[f"gap_{idx}"] = max(_norm2(P_big @ T @ gap - P_gap @ T @ gap) for T in ops)
    worst = 0.0
    for kk in itertools.product(range(4), repeat=sys_.n):
        if not 1 <= sum(kk) <= 3:
            continue
        lhs = mono = np.eye(sys_.N)
        for T, p in zip(ops, kk):
            lhs = np.linalg.matrix_power(P_F @ T @ P_F, p) @ lhs
            mono = np.linalg.matrix_power(T, p) @ mono
        rhs = sum(P @ mono @ P for P in Pm)
        worst = max(worst, _norm2((lhs - rhs) @ amb.F.basis))
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


def dense_structure_report(sys_):
    """Every structural family of verify_compression_structure, from dense N x N
    operators and projectors, keyed as the package keys them."""
    return {"projection_identities": dense_projection_identities(sys_, chain_spaces(sys_).S),
            "chain": dense_chain_residuals(sys_),
            "commutativity": dense_commutativity(sys_),
            **dense_structure_residuals(sys_)}
