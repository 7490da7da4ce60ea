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
``slot_grams``; ``shift_bound`` reads the shift lemma's draws from those rank decisions;
``compressed_at`` compresses.
"""

import functools
import math

import numpy as np

from .multiplicity import OperatorTuple
from .subspaces import _svd, _svds, numerical_rank


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


def slot_cuts(f, z, _tol):
    """The SVDs (U, s, Vh) of M - z for the blocks M = S^H T S, Q^H T Q and U^H T U of a
    ``TensorFactor`` f's ``adapted``: the three slot cuts that ``slot_kernels`` ranks."""
    q, A = f.Q.dim, f.adapted
    return tuple(_svd(M - z * np.eye(len(M))) for M in (A[q:, q:], A[:q, :q], A))


def slot_kernels(f, z, tol):
    """(K, kQ, kH) of a ``TensorFactor`` f at z: ker (M - z)^H ranked at ``tol`` for
    M = S^H T S (K = S (-) (T - z) S), Q^H T Q and U^H T U, in [Q | S] coordinates,
    each the left singular vectors of M - z past its rank, from f's ``slot_cuts``."""
    q, m = f.Q.dim, len(f.adapted)
    K, kQ, kH = (U[:, numerical_rank(s, tol):] for U, s, _ in f.table(slot_cuts, z, tol))
    out = np.zeros((m, K.shape[1]), dtype=complex), np.zeros((m, kQ.shape[1]), dtype=complex)
    out[0][q:], out[1][:q] = K, kQ
    return (*out, kH)


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
        self.sys, self.at, self.dim, self.n = sys, at, at.size, sys.n
        self.leaks, self.floors = [], {}  # ``cokernel``'s
        self.is_S = at.size == sys.N - math.prod(f.Q.dim for f in sys.factors)
        self.rows = np.unravel_index(at, sys.dims)  # L's slot indices, an array per slot
        self.norms = np.array([np.linalg.norm(f.adapted) for f in sys.factors])  # ||A_j||_F

    ops = functools.cached_property(lambda self: compressed_at(self.sys, self.at))

    def inclusion_residual(self, lam, tol, C):
        """max_j ||P_L (T~_j - lam_j)^H X C||_2 for ``cokernel``'s X and C at lam.  P_L sums the
        orthogonal patterns Q^i S R^(n-i-1) (R = I for S, whose kH's Q..Q part stays in Q..Q;
        Q for F), and the Gram of a pattern's (x)_s is the Hadamard product of the slots'
        ``slot_grams`` at X's columns (Van Loan 2000), (A_j - lam_j)^H's at slot j."""
        fz = list(zip(self.sys.factors, lam))
        idx = _columns(tuple(tuple(V.shape[1] for V in f.kernels(z, tol)) for f, z in fz), self.is_S)
        g = np.array([f.table(slot_grams, z, tol)[:, i[:, None], i]
                      for (f, z), i in zip(fz, idx)])
        HQ, HS = (np.where(np.eye(self.n, dtype=bool)[:, :, None, None], g[:, None, k + 2],
                           g[:, None, k]) for k in (0, 1))  # [s, j]: slot s in G_j's products
        one = np.ones((1,) + HQ.shape[1:])
        pre = np.cumprod(np.concatenate([one, HQ[:-1]]), axis=0)
        suf = np.cumprod(np.concatenate([one, (HQ + HS if self.is_S else HQ)[:0:-1]]), axis=0)
        G = C.conj().T @ (pre * HS * suf[::-1]).sum(axis=0) @ C
        return math.sqrt(max(0.0, np.linalg.eigvalsh(G)[:, -1].max())) if G.shape[-1] else 0.0

    def cokernel(self, lam, tol):
        """W_lam = X C, for X the ``_columns``' (x)_s of the slots' ``slot_kernels`` at L's
        positions.  For F, W = X (C = I); for S, X = U Sigma V^H cut at r = ``numerical_rank``,
        W = U_r and C = V_r / Sigma_r.  X's smallest kept singular value (1 for F, or with
        none kept) joins ``floors``; lam joins ``leaks``, once, when its ``inclusion_residual``
        passes tol max(1, max_j ||A_j||_F + |lam_j|)."""
        kernels = [f.kernels(z, tol) for f, z in zip(self.sys.factors, lam)]
        idx = _columns(tuple(tuple(V.shape[1] for V in ks) for ks in kernels), self.is_S)
        Z = [np.concatenate(ks, axis=1)[:, i] for ks, i in zip(kernels, idx)]
        W = Z[0][self.rows[0]]
        for V, r in zip(Z[1:], self.rows[1:]):
            W *= V[r]
        C, self.floors[lam] = np.eye(W.shape[1]), 1.0
        if self.is_S and W.shape[1]:
            (U, s, Vh), = _svds(W[None])
            r = numerical_rank(s, tol)
            W, C, self.floors[lam] = U[:, :r], Vh[:r].conj().T / s[:r], s[r - 1] if r else 1.0
        if lam not in self.leaks and (self.inclusion_residual(lam, tol, C)
                                      > tol * max(1, *(self.norms + np.abs(lam)))):
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


@np.errstate(divide="ignore", invalid="ignore")
def shift_bound(L, G, coranks, ranked, points, tol):
    """The shift lemma from L's own rank decisions: one ``(agree, margin)`` per point lam
    for generators G (a list of columns).  A draw shifted by lam would factor each slot
    cut (``slot_cuts``) at z = mu_s as (A_s - lam_s) - (z - lam_s): A_s - z plus a
    diagonal of rounding, d its largest entry (0 where the two agree bitwise).  By Weyl's
    inequality no singular value moves by more than d, so the cut keeps its rank while
    kept - d and dropped + d stay on their sides of tol max(1, s_0 +- d); the draw's margin
    is the least such bound of ``rank_margin``.  By Wedin's sin theta theorem each slot
    kernel turns by at most d / (gap - d), gap the cut's smallest kept value, so the
    singular values of W_mu^H G that the local test ranked (``ranked``, at each mu with
    coranks[mu] > 0) move by at most ||G||_2 times the turns summed over the slots, over
    ``L.floors[mu]``.  A draw agrees when each local test keeps rank coranks[mu]; the first
    that falls short ends the reading, its margin read at its own rank."""
    lams, cuts, turn, agree = np.asarray(points, dtype=complex), [], {}, True
    for s, f in enumerate(L.sys.factors):
        a, lam, q = np.diag(f.adapted), lams[:, s, None], f.Q.dim
        for z in dict.fromkeys(mu[s] for mu in coranks):
            e, turn[s, z] = np.abs((a - lam) - (z - lam) - (a - z)), np.zeros(len(lams))
            for (_, sv, _), E in zip(f.table(slot_cuts, z, tol), (e[:, q:], e[:, :q], e)):
                d, r = E.max(axis=1, initial=0.0), numerical_rank(sv, tol)
                cuts.append((sv, r, d))
                if 0 < r < len(sv):
                    turn[s, z] = np.maximum(turn[s, z], d / np.maximum(sv[r - 1] - d, 0.0))
    norm = 0.0
    for mu, c in coranks.items():
        if c:
            moved, rank = sum(turn[s, z] for s, z in enumerate(mu)), numerical_rank(ranked[mu], tol)
            if not norm and moved.any():  # ||G||_2, from the Gram of G's columns
                norm = math.sqrt(np.linalg.eigvalsh([[np.vdot(g, h) for h in G] for g in G])[-1])
            cuts.append((ranked[mu], rank, norm * moved / L.floors[mu]))
            if rank != c:
                agree = False
                break
    s0, kept, drop = np.reshape([(s[0], s[r - 1] if r else np.inf, s[r] if r < len(s) else np.nan)
                                 for s, r, _ in cuts if len(s)], (-1, 3)).T[..., None]
    d = np.reshape([d for s, _, d in cuts if len(s)], (-1, len(lams)))  # no cuts when S = 0
    low = np.where(kept > d, (kept - d) / (tol * np.maximum(1.0, s0 + d)), 0.0)
    high = np.where(drop >= 0, tol * np.maximum(1.0, s0 - d) / (drop + d), np.inf)
    return [(agree, float(m)) for m in np.minimum(low, high).min(axis=0, initial=np.inf)]
