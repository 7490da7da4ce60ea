"""Wandering subspaces and coranks of a tensor system's compressions, from its slots.

In the coordinates of (x)_s U_s (``tensorized``), A_s = U_s^H T_s U_s = [[a_s, 0], [c_s, b_s]]
in [Q_s | S_s], as S_s is invariant.  F's compression is block diagonal along the M_t
and acts on M_t slot by slot, so by Kunneth (Eisenbud, Commutative Algebra, ch. 17;
Weibel, Thm 3.6.3) W_lam(F) = (+)_t ker (b_t - lam_t)^H (x) (x)_{s != t} ker (a_s - lam_s)^H,
orthonormal as built.  Cut down to S by 0 -> S -> H -> (x)_s Q_s, W_lam(S) is W_lam(F)
+ P_S (x)_s ker (A_s - lam_s)^H: each (A_j - lam_j)^H maps Q_j's coordinates into
themselves, so P_S (T~_j - lam_j)^H kills both terms, and their dimensions add up to
``slot_coranks``' Tor count.  ``SlotTuple.cokernel`` builds them from ``slot_kernels`` as
Kronecker rows at L's positions, with one thin SVD for S, and checks their inclusion;
``shifted_slot_check`` does so for shifted slots, and ``compressed_at`` compresses on demand.
"""

import functools
import math

import numpy as np

from .multiplicity import OperatorTuple
from .subspaces import _svd, _svds, numerical_rank, opnorm, rank_margin


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


class SlotTuple(OperatorTuple):
    """``sys``'s tuple compressed to L = S or F (S if L holds every position but Q..Q's) at
    L's positions ``at`` in (x)_s U_s, with ``cokernel`` read from the slots and ``ops``
    built on first read; its ``shifted`` copy is a plain tuple."""

    def __init__(self, sys, at):
        self.sys, self.at, self.dim, self.n, self.leaks = sys, at, at.size, sys.n, []
        self.is_S = at.size == sys.N - math.prod(f.Q.dim for f in sys.factors)
        self.rows = np.unravel_index(at, sys.dims)  # L's slot indices, an array per slot

    ops = functools.cached_property(lambda self: compressed_at(self.sys, self.at))

    def _kron(self, vecs):
        """The columns of (x)_s vecs[s] at L's positions; the vecs may share leading axes."""
        out = np.ones(vecs[0].shape[:-2] + (self.dim, 1), dtype=complex)
        for r, V in zip(self.rows, vecs):
            out = (out[..., None] * V[..., r, None, :]).reshape(out.shape[:-1] + (-1,))
        return out

    def span(self, kernels, cut):
        """W_lam per draw from each slot's ``slot_kernels`` (which may share a leading axis):
        W_lam(F)'s summands, or the thin SVD of them and P_S (x)_s kH_s, cut at ``cut(d, s)``."""
        K, kQ, kH = zip(*kernels)
        X = np.concatenate([self._kron(kQ[:t] + (K[t],) + kQ[t + 1:]) for t in range(self.n)]
                           + [self._kron(kH)] * self.is_S, axis=-1)
        if not self.is_S or not X.shape[-1]:
            return list(X)
        return [U[:, :cut(d, s)] for d, (U, s, _) in enumerate(_svds(X))]

    def cokernel(self, lam, tol):
        """W_lam, the one-draw case of ``span``.  lam joins ``leaks`` when the inclusion
        residual max_j ||P_L (T~_j - lam_j)^H W_lam||_2, from mode products on W_lam placed
        at L's positions, passes tol max(1, max_j ||A_j||_F + |lam_j|)."""
        sys, fz = self.sys, list(zip(self.sys.factors, lam))
        W, = self.span([[V[None] for V in f.kernels(z, tol)] for f, z in fz],
                       lambda d, s: numerical_rank(s, tol))
        Y = np.zeros((sys.N, W.shape[1]), dtype=complex)
        Y[self.at] = W
        worst = max(opnorm((f.adapted.conj().T @ Y.reshape(sys._lead[j], len(f.T), -1)).reshape(
            Y.shape)[self.at] - np.conj(z) * W) for j, (f, z) in enumerate(fz))
        if worst > tol * max(1, *(np.linalg.norm(f.adapted) + abs(z) for f, z in fz)):
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
        Ws = L.span([kernels(s, z) for s, z in enumerate(mu)], cut)
        agree[:] = [a and W.shape[1] == c for a, W in zip(agree, Ws)]
        if ok := [d for d in range(len(lams)) if agree[d] and c]:
            for d, s in zip(ok, _svds([Ws[d].conj().T @ G for d in ok], compute_uv=False)):
                agree[d] &= cut(d, s) == c
    return list(zip(agree, margin))
