"""Wandering subspaces and coranks of a tensor system's compressions, from its slots.

In the coordinates of (x)_s U_s (``tensorized``), U_j^H T_j U_j is block lower
triangular in [Q_j | S_j], as S_j is invariant, so (T~_j - lam_j)^H keeps a
vector's kind-block on slot j's S part and maps it there by
(S_j^H T_j S_j - lam_j)^H alone.  So in each kind-block of L = S or F, the
wandering subspace W_lam = L (-) sum_j (T~_j - lam_j) L has each S slot s in
K_s = S_s (-) (T_s - lam_s) S_s (``TensorFactor.kernel_frame``), and
W_lam = Phi null(Z): Phi is the columns of (x)_s [e_1 .. e_{q_s} | K_s] in L's
blocks at L's rows, Z the stacked P_L (T~_j - lam_j)^H Phi, both gathered from
slot matrices like mode products (Kolda & Bader, SIAM Rev. 2009).  One QR and
one SVD of Phi's width, at most prod (q_s + c_s) - prod q_s for c_s = dim K_s,
replace those of the n dim L x dim L stack.  ``slot_coranks`` counts dim W_lam
from m x m slot ranks alone; ``compressed_at`` builds the compression on demand.
"""

import functools
import math

import numpy as np

from .multiplicity import OperatorTuple
from .subspaces import _svd, numerical_rank


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
        self.sys, self.at, self.dim, self.n = sys, at, at.size, sys.n

    ops = functools.cached_property(lambda self: compressed_at(self.sys, self.at))

    def cokernel(self, lam, tol):
        frames = [f.kernel_frame(z, tol) for f, z in zip(self.sys.factors, lam)]
        if not any(K.shape[1] for K, _, _ in frames):
            return np.zeros((self.dim, 0), dtype=complex)
        grid = np.indices([V.shape[1] for _, V, _ in frames]).reshape(self.n, -1)
        # a column's block holds its position with each K slot's index set to q_s
        block = np.minimum(grid, [[f.Q.dim] for f in self.sys.factors])
        in_L = np.bincount(self.at, minlength=self.sys.N) > 0
        cols = grid[:, in_L[np.ravel_multi_index(block, self.sys.dims)]]  # Phi's
        rows = [r[:, None] for r in np.unravel_index(self.at, self.sys.dims)]
        G = [V[r, c] for (_, V, _), r, c in zip(frames, rows, cols)]  # (x)_s G[s] is Phi
        Z = np.vstack([math.prod(G[:j] + [B[r, c]] + G[j + 1:])
                       for j, ((_, _, B), r, c) in enumerate(zip(frames, rows, cols))])
        _, s, Vh = _svd(np.linalg.qr(Z, mode="r"))
        return math.prod(G) @ Vh[numerical_rank(s, tol):].conj().T

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
