"""Wandering subspaces and coranks of a tensor system's compressions, from its slots.

In the coordinates of (x)_s U_s (``tensorized``), A_s = U_s^H T_s U_s = [[a_s, 0], [c_s, b_s]]
in [Q_s | S_s], as S_s is invariant.  F's compression is block diagonal along the M_t
and acts on M_t slot by slot, so by Kunneth (Eisenbud, Commutative Algebra, ch. 17;
Weibel, Thm 3.6.3) W_lam(F) = (+)_t ker (b_t - lam_t)^H (x) (x)_{s != t} ker (a_s - lam_s)^H,
orthonormal as built.  Cut down to S by 0 -> S -> H -> (x)_s Q_s, W_lam(S) is W_lam(F)
+ P_S (x)_s ker (A_s - lam_s)^H: each (A_j - lam_j)^H maps Q_j's coordinates into
themselves, so P_S (T~_j - lam_j)^H kills both terms, and their dimensions add up to
``slot_coranks``' Tor count.  ``SlotTuple.cokernel`` builds them from ``slot_kernels`` as
Kronecker rows at L's positions, with one thin SVD for S, and checks their inclusion from
``slot_grams``; ``shifted_slot_check`` does so for shifted slots; ``compressed_at`` compresses.
"""

import functools
import math

import numpy as np

from .multiplicity import OperatorTuple
from .subspaces import _svd, _svds, numerical_rank, rank_margin


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


def slot_kernels(f, z, tol):
    """(K, kQ, kH) of a ``TensorFactor`` f at z: ker (M - z)^H ranked at ``tol`` for
    M = S^H T S (K = S (-) (T - z) S), Q^H T Q and U^H T U, in [Q | S] coordinates,
    each the left singular vectors of M - z past its rank, from one SVD per block."""
    q, A = f.Q.dim, f.adapted
    K, kQ, kH = (U[:, numerical_rank(s, tol):] for U, s, _ in (
        _svd(M - z * np.eye(len(M))) for M in (A[q:, q:], A[:q, :q], A)))
    return np.pad(K, ((q, 0), (0, 0))), np.pad(kQ, ((0, len(A) - q), (0, 0))), kH


def slot_grams(f, z, tol):
    """The Grams of the Q and S rows of V = [K | kQ | kH] (``slot_kernels`` at z) and of
    D = (A - z)^H V, A = U^H T U, stacked: V_Q^H V_Q, V_S^H V_S, D_Q^H D_Q, D_S^H D_S."""
    V = np.hstack(f.kernels(z, tol))
    q, D = f.Q.dim, f.adapted.conj().T @ V - np.conj(z) * V
    return np.array([B.conj().T @ B for B in (V[:q], V[q:], D[:q], D[q:])])


@functools.cache
def _columns(widths, is_S):
    """Per slot s, the column of [K | kQ | kH]_s at each column of W_lam's spanning set X,
    for kernel ``widths`` (cS, cQ, cH): summand t is K_t (x) kQ.., then S's (x)_s kH_s."""
    groups = [[(c[0], 0) if s == t else (c[1], c[0]) for s, c in enumerate(widths)]
              for t in range(len(widths))] + [[(c[2], c[0] + c[1]) for c in widths]] * is_S
    return np.concatenate([np.indices([w for w, _ in g]).reshape(len(g), -1) + [[o] for _, o in g]
                           for g in groups], axis=1)


class SlotTuple(OperatorTuple):
    """``sys``'s tuple compressed to L = S or F (S if L holds every position but Q..Q's) at
    L's positions ``at`` in (x)_s U_s, with ``cokernel`` read from the slots and ``ops``
    built on first read; its ``shifted`` copy is a plain tuple."""

    def __init__(self, sys, at):
        self.sys, self.at, self.dim, self.n, self.leaks = sys, at, at.size, sys.n, []
        self.is_S = at.size == sys.N - math.prod(f.Q.dim for f in sys.factors)
        self.rows = np.unravel_index(at, sys.dims)  # L's slot indices, an array per slot
        self.norms = np.array([np.linalg.norm(f.adapted) for f in sys.factors])  # ||A_j||_F

    ops = functools.cached_property(lambda self: compressed_at(self.sys, self.at))

    def span(self, kernels, cut):
        """(W, C) per draw from each slot's ``slot_kernels`` (which may share a leading axis):
        W = X C spans W_lam, for X the ``_columns``' (x)_s at L's positions.  For F, W = X
        (C = I); for S, X = U Sigma V^H cut at r = ``cut(d, s)``, W = U_r, C = V_r / Sigma_r."""
        idx = _columns(tuple(tuple(V.shape[-1] for V in ks) for ks in kernels), self.is_S)
        Z = [np.concatenate(ks, axis=-1)[..., i] for ks, i in zip(kernels, idx)]
        X = Z[0][..., self.rows[0], :]
        for V, r in zip(Z[1:], self.rows[1:]):
            X *= V[..., r, :]
        if not self.is_S or not X.shape[-1]:
            return [(W, np.eye(W.shape[1])) for W in X]
        return [(U[:, :r], Vh[:r].conj().T / s[:r])
                for d, (U, s, Vh) in enumerate(_svds(X)) for r in [cut(d, s)]]

    def inclusion_residual(self, lam, tol, C):
        """max_j ||P_L (T~_j - lam_j)^H X C||_2 for ``span``'s X and C at lam.  P_L sums the
        orthogonal patterns Q^i S R^(n-i-1) (R = I for S, whose kH's Q..Q part stays in Q..Q;
        Q for F), and the Gram of a pattern's (x)_s is the Hadamard product of the slots'
        ``slot_grams`` at X's columns (Van Loan 2000), (A_j - lam_j)^H's at slot j."""
        fz = list(zip(self.sys.factors, lam))
        idx = _columns(tuple(tuple(V.shape[1] for V in f.kernels(z, tol)) for f, z in fz), self.is_S)
        g = np.array([f.grams(z, tol)[:, i[:, None], i] for (f, z), i in zip(fz, idx)])
        HQ, HS = (np.where(np.eye(self.n, dtype=bool)[:, :, None, None], g[:, None, k + 2],
                           g[:, None, k]) for k in (0, 1))  # [s, j]: slot s in G_j's products
        one = np.ones((1,) + HQ.shape[1:])
        pre = np.cumprod(np.concatenate([one, HQ[:-1]]), axis=0)
        suf = np.cumprod(np.concatenate([one, (HQ + HS if self.is_S else HQ)[:0:-1]]), axis=0)
        G = C.conj().T @ (pre * HS * suf[::-1]).sum(axis=0) @ C
        return math.sqrt(max(0.0, np.linalg.eigvalsh(G)[:, -1].max())) if G.shape[-1] else 0.0

    def cokernel(self, lam, tol):
        """W_lam, the one-draw case of ``span``.  lam joins ``leaks`` when its
        ``inclusion_residual`` passes tol max(1, max_j ||A_j||_F + |lam_j|)."""
        (W, C), = self.span([[V[None] for V in f.kernels(z, tol)] for f, z in zip(
            self.sys.factors, lam)], lambda d, s: numerical_rank(s, tol))
        if self.inclusion_residual(lam, tol, C) > tol * max(1, *(self.norms + np.abs(lam))):
            self.leaks.append(lam)
        return W

    def commutes(self, tol):
        """True: S is invariant and F semi-invariant (Sarason 1965), so both compressions
        commute, up to the co-invariance residual that ``tensor_factor`` bounds by tol."""
        return True


def slot_coranks(sys, tol):
    """{lam: (corank_lam(S), corank_lam(F))} on the joint spectrum from m x m slot ranks:
    the Tor sequence of 0 -> S -> H -> (x)_s Q_s with Kunneth (Weibel, Thm 3.6.3) gives
    prod cH - prod cQ + sum_t (cQ_t - r_t) prod_{s != t} cQ_s, and F's block diagonal
    compression sum_i cS_i prod_{j != i} cQ_j, for cS, cQ and cH the widths of each slot's
    ``kernels``, and r = rank Q^H ker(T - z) = cH - cS (its kernel is ker(T - z) in S)."""
    widths = [{z: [V.shape[1] for V in f.kernels(z, tol)] for z in f.spectrum} for f in sys.factors]
    out = {}
    for lam in sys.joint_spectrum():
        cS, cQ, cH = zip(*(c[z] for c, z in zip(widths, lam)))
        rest = [math.prod(cQ[:t] + cQ[t + 1:]) for t in range(sys.n)]
        out[lam] = (math.prod(cH) - math.prod(cQ)
                    + sum((q - h + c) * p for h, q, c, p in zip(cH, cQ, cS, rest)),
                    sum(c * p for c, p in zip(cS, rest)))
    return out


def shifted_slot_check(L, G, coranks, points, tol):
    """The shift lemma from the slots: one ``(agree, margin)`` per point lam, as from
    ``shifted_closure_check``, for a ``SlotTuple`` L with exact slot spectra, generators G
    of its tuple and their ``coranks`` {mu: dim W_mu}.  L - lam is L in the system with
    slots T_s - lam_s and joint spectrum sigma - lam, so W_{mu - lam} is ``span`` of the
    kernels of each draw's own shifted slot matrices at mu_s - lam_s.  A draw agrees when
    every slot kernel keeps its unshifted width, every dim W_{mu - lam} is coranks[mu] (a
    shift of T_s or of its spectrum alone makes them 0, passing the local test vacuously)
    and G passes the local test there; its margin is the smallest ``rank_margin`` of its
    SVDs.  The draws run in lockstep, each factorization stacked over them."""
    lams = np.array(points, dtype=complex)
    agree, margin = [True] * len(lams), [math.inf] * len(lams)

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
        Ws = [W for W, _ in L.span([kernels(s, z) for s, z in enumerate(mu)], cut)]
        agree[:] = [a and W.shape[1] == c for a, W in zip(agree, Ws)]
        if ok := [d for d in range(len(lams)) if agree[d] and c]:
            for d, s in zip(ok, _svds([Ws[d].conj().T @ G for d in ok], compute_uv=False)):
                agree[d] &= cut(d, s) == c
    return list(zip(agree, margin))
