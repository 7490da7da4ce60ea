"""Wandering subspaces and coranks of a tensor system's compressions, from its slots.

In the coordinates of (x)_s U_s (``tensorized``), U_j^H T_j U_j is block lower
triangular in [Q_j | S_j], as S_j is invariant, so (T~_j - lam_j)^H keeps a
vector's kind-block on slot j's S part and maps it there by
(S_j^H T_j S_j - lam_j)^H alone.  So in each kind-block of L = S or F, the
wandering subspace W_lam = L (-) sum_j (T~_j - lam_j) L has each S slot s in
K_s = S_s (-) (T_s - lam_s) S_s (``TensorFactor.kernel_frame``), and
W_lam = Phi null(Z): Phi is the columns of (x)_s [e_1 .. e_{q_s} | K_s] in L's
blocks at L's rows, Z the stacked P_L (T~_j - lam_j)^H Phi, both gathered from
slot matrices like mode products (Kolda & Bader, SIAM Rev. 2009) a block of L's
rows at a time.  Z's nonzero rows go into one R of Phi's width, at most
prod (q_s + c_s) - prod q_s for c_s = dim K_s (``SlotTuple.null``), so no array
but W has dim L rows.  ``slot_coranks`` counts dim W_lam from m x m slot ranks;
``compressed_at`` builds the compression on demand; ``shifted_slot_check`` reads
the shift lemma off shifted slot matrices.
"""

import functools
import math

import numpy as np

from .multiplicity import OperatorTuple
from .subspaces import _svd, _svds, numerical_rank, rank_margin

# L's rows per slot-gather block; each shipped, criterion-4 and benchmark L is one block
_ROWS = 256


def slot_frame(A, K, q, z):
    """(K, V, B) of ``TensorFactor.kernel_frame`` from A = U^H T U and K; A, K and z
    may share leading axes (draws), as V and B then do."""
    V = np.zeros(K.shape[:-2] + (A.shape[-1], q + K.shape[-1]), dtype=complex)
    V[..., range(q), range(q)] = 1
    V[..., q:, q:] = K
    return K, V, np.conj(np.swapaxes(A, -1, -2)) @ V - np.conj(z)[..., None, None] * V


def compressed_at(sys, at):
    """``sys``'s tuple compressed to the unit vectors at positions ``at`` of (x)_s U_s:
    T~_j is I (x) .. U_j^H T_j U_j .. (x) I, so C_j[p, q] is U_j^H T_j U_j's entry at
    slot j's indices of p and q if they agree off slot j, found among p's m_j such
    partners, else 0."""
    col = np.full(sys.N, -1)
    col[at] = np.arange(at.size)
    ops = tuple(np.zeros((at.size, at.size), dtype=complex) for _ in sys.factors)
    for j, (f, C) in enumerate(zip(sys.factors, ops)):
        stride = math.prod(sys.dims[j + 1:])
        idx = at // stride % sys.dims[j]
        partner = col[(at - idx * stride)[:, None] + stride * np.arange(sys.dims[j])]
        p, v = np.nonzero(partner >= 0)
        C[p, partner[p, v]] = f.adapted[idx[p], v]
    return ops


class SlotTuple(OperatorTuple):
    """A tensor system ``sys``'s tuple compressed to L = S or F, at L's positions ``at``
    in (x)_s U_s, with ``cokernel`` read from the slots and ``ops`` built on first read
    (``compressed_at``); its ``shifted`` and ``compressed`` copies are plain tuples."""

    def __init__(self, sys, at):
        self.sys, self.at, self.dim, self.n, self._cols = sys, at, at.size, sys.n, {}
        # L's positions as a mask over (x)_s U_s, and their slot indices, a column per slot
        self.in_L = np.bincount(at, minlength=sys.N) > 0
        self.rows = [r[:, None] for r in np.unravel_index(at, sys.dims)]

    ops = functools.cached_property(lambda self: compressed_at(self.sys, self.at))

    def gather(self, frames):
        """(rows, G, Bs) per block ``rows`` of _ROWS rows of L, for (K, V, B) per slot whose V
        and B may share leading axes (draws): Phi's slot factors G there ((x)_s G[s] is Phi),
        and lazily the B_j there (Z's block j is G[:j] B_j G[j + 1:] multiplied out)."""
        widths = tuple(V.shape[-1] for _, V, _ in frames)
        if widths not in self._cols:  # Phi's columns, once per frame widths
            grid = np.indices(widths).reshape(self.n, -1)
            # a column's block holds its position with each K slot's index set to q_s
            block = np.minimum(grid, [[f.Q.dim] for f in self.sys.factors])
            self._cols[widths] = grid[:, self.in_L[np.ravel_multi_index(block, self.sys.dims)]]
        for lo in range(0, self.dim, _ROWS):  # holding no block between yields
            parts = list(zip(frames, [r[lo:lo + _ROWS] for r in self.rows], self._cols[widths]))
            yield (slice(lo, lo + _ROWS), [V[..., r, c] for (_, V, _), r, c in parts],
                   (B[..., r, c] for (_, _, B), r, c in parts))

    def null(self, frames, G=None):
        """Per draw (s, Vh) of the SVD of Z's R factor, Vh square, so W = Phi Vh[rank:]^H
        at rank = numerical_rank(s); and Phi^H G for G in L's coordinates, so W^H G is
        Vh[rank:] Phi^H G.  Rows of Z that are 0 in every draw add nothing and are not
        kept; once the kept rows pass twice max(_ROWS, Phi's width), they are folded as
        qr([R; rows]) (TSQR; Demmel et al., SIAM J. Sci. Comput. 2012)."""
        kept, PhiG = [], 0
        for rows, Gs, Bs in self.gather(frames):
            if G is not None:
                PhiG = PhiG + np.conj(np.swapaxes(math.prod(Gs), -1, -2)) @ G[rows]
            for j, B in enumerate(Bs):
                Z = math.prod(Gs[:j] + [B] + Gs[j + 1:])
                kept.append(Z[..., Z.any(axis=(*range(Z.ndim - 2), -1)), :])
            del Gs, B, Z  # before the QR
            if rows.stop >= self.dim or sum(z.shape[-2] for z in kept) > 2 * max(
                    _ROWS, kept[0].shape[-1]):  # the last block, or too many kept rows
                kept = [np.concatenate(kept, axis=-2)]  # frees the pieces before the QR
                kept = [np.linalg.qr(kept[0], mode="r")]
        return [(s, Vh) for _, s, Vh in _svds(kept[0], full_matrices=True)], PhiG

    def cokernel(self, lam, tol):
        """W_lam as the one-draw case of ``null``: W = Phi Vh[rank:]^H, block by block."""
        frames = [f.kernel_frame(z, tol) for f, z in zip(self.sys.factors, lam)]
        if not self.dim or not any(K.shape[1] for K, _, _ in frames):
            return np.zeros((self.dim, 0), dtype=complex)
        frames = [(K, V[None], B[None]) for K, V, B in frames]
        ((s, Vh),), _ = self.null(frames)
        N = Vh[numerical_rank(s, tol):].conj().T
        return np.vstack([math.prod(G)[0] @ N for _, G, _ in self.gather(frames)])

    def commutes(self, tol):
        """True: S is invariant and F semi-invariant (Sarason 1965), so both compressions
        commute, up to the co-invariance residual that ``tensor_factor`` bounds by tol."""
        return True


def slot_coranks(sys, tol):
    """{lam: (corank_lam(S), corank_lam(F))} on the joint spectrum from m x m slot ranks:
    the Tor sequence of 0 -> S -> H -> (x)_s Q_s with Kunneth (Weibel, Thm 3.6.3) gives
    prod cH - prod cQ + sum_t (cQ_t - r_t) prod_{s != t} cQ_s, and F's block diagonal
    compression sum_i cS_i prod_{j != i} cQ_j, for cH, cQ and cS the coranks of T - z,
    Q^H T Q - z and S^H T S - z at each slot's z, and r = rank Q^H ker(T - z) = cH - cS,
    as the kernel of Q^H on ker(T - z) is ker(T - z) in S."""
    def corank(M):
        return len(M) - numerical_rank(_svd(M, compute_uv=False), tol)

    def counts(f, z):
        q = f.Q.dim
        return (corank(f.T - z * np.eye(len(f.T))), corank(f.adapted[:q, :q] - z * np.eye(q)),
                f.kernel_frame(z, tol)[0].shape[1])

    per_slot = [{z: counts(f, z) for z in f.spectrum} for f in sys.factors]
    out = {}
    for lam in sys.joint_spectrum():
        cH, cQ, cS = zip(*(c[z] for c, z in zip(per_slot, lam)))
        rest = [math.prod(cQ[:t] + cQ[t + 1:]) for t in range(sys.n)]
        out[lam] = (math.prod(cH) - math.prod(cQ)
                    + sum((q - h + c) * p for h, q, c, p in zip(cH, cQ, cS, rest)),
                    sum(c * p for c, p in zip(cS, rest)))
    return out


def shifted_slot_check(L, G, coranks, points, tol):
    """The shift lemma from the slots: one ``(agree, margin)`` per point lam, as from
    ``shifted_closure_check``, for a ``SlotTuple`` L with exact slot spectra, generators
    G of its tuple and their ``coranks`` {mu: dim W_mu}.  L - lam is L in the system
    with slots T_s - lam_s and joint spectrum sigma - lam, so W_{mu - lam} comes from
    frames of each draw's own shifted slot matrices at mu_s - lam_s.  A draw agrees
    when every dim W_{mu - lam} is coranks[mu] (a shift of T_s alone, or of its
    spectrum alone, makes them 0, which passes the local test vacuously) and G passes
    the local test there, and each slot frame keeps the unshifted frame's width; its
    margin is the smallest ``rank_margin`` of its SVDs.  The draws run in lockstep,
    each factorization stacked over them."""
    lams = np.array(points, dtype=complex)
    agree, margin = [True] * len(lams), [math.inf] * len(lams)

    def cut(d, s):  # numerical_rank, keeping draw d's smallest rank_margin
        rank = numerical_rank(s, tol)
        margin[d] = min(margin[d], rank_margin(s, rank, tol))
        return rank

    @functools.cache
    def frame(s, z):  # slot s's (K, V, B) at z - lam_s, stacked over the draws
        f, q = L.sys.factors[s], L.sys.factors[s].Q.dim
        A, zs = f.adapted - lams[:, s, None, None] * np.eye(len(f.T)), z - lams[:, s]
        svds = _svds(A[:, q:, q:] - zs[:, None, None] * np.eye(len(f.T) - q))
        rank = f.S.dim - f.kernel_frame(z, tol)[0].shape[1]  # K's width moves with the shift
        for d, (_, sv, _) in enumerate(svds):
            agree[d] &= cut(d, sv) == rank
        return slot_frame(A, np.array([U[:, rank:] for U, _, _ in svds]), q, zs)

    def judge(frames, c):  # W_{mu - lam} for every draw and its tests, from Phi^H G
        nulls, PhiG = L.null(frames, G)
        WG = [Vh[cut(d, s):] @ PhiG[d] for d, (s, Vh) in enumerate(nulls)]  # W^H G per draw
        agree[:] = [a and len(M) == c for a, M in zip(agree, WG)]
        if ok := [d for d in range(len(lams)) if agree[d] and c]:
            for d, s in zip(ok, _svds([WG[d] for d in ok], compute_uv=False)):
                agree[d] &= cut(d, s) == c

    for mu, c in coranks.items():
        judge([frame(s, z) for s, z in enumerate(mu)], c)
    return list(zip(agree, margin))
