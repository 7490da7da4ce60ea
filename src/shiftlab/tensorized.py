"""Tensor products of shift factors and their distinguished subspace chain.

Each factor contributes an operator T_i on C^{m_i} together with an
adjoint-invariant subspace Q_i (so S_i = Q_i-perp is invariant).  Embedding
T_i as I (x) ... (x) T_i (x) ... (x) I yields a doubly commuting tuple on the
tensor product, and the joint invariant subspace of interest is

    S = (Q_1 (x) ... (x) Q_n)-perp = sum_i ran(P~_i),

where P~_i projects slot i onto S_i.  The operators
X_i = P~_i Q~_{i+1} ... Q~_n are orthogonal projections with mutually
orthogonal ranges summing to P_S, and they assemble into the nested family

    S >= F_1 >= F_2 >= ... >= F_{n-1} = F,

whose final term decomposes as F = M_1 (+) ... (+) M_n with
M_i = ran(P~_i prod_{j != i} Q~_j).  Compressions of the big tuple to F are
simultaneously block diagonal along that decomposition, which is what makes
F useful for multiplicity bookkeeping.

Everything here is exact linear algebra in the slot-adapted bases
U_s = [Q_s | S_s].  They split C^N into kind-blocks, one per word k in
{Q, S}^n, with kron bases (x)_s (Q_s or S_s).  S, each F_i and each M_i is a
union of at most n slot-kind patterns, words over {Q, S, I} with I = Q (+) S,
and the chain's gaps and sums over words come from a dynamic program over the
slots, which lists none of the 2^n words.  In the coordinates of (x)_s U_s, S's
coordinates are a set of positions, and T~_j is I (x) .. U_j^H T_j U_j .. (x) I:
it maps block k into k and into k with slot j switched only, so the measured
structural residuals, the power identity and E's alignment among them, are read
from slot-block norms, and dim E is the sum of the factors' wandering dims: no
N-row array, and no E, is formed.  Four identities hold by word combinatorics
and are recorded as 0, not computed: the chain nests with S (-) F_1 =
ran(P~_{n-1} P~_n), the tuple cannot couple two M_i (one slot flip of e_i leaves
F) and its compression to F commutes, and distinct slots doubly commute.  The
compressions to S and F are ``slots.SlotTuple``s, which read their wandering
subspaces from the slots and build their operators from U_j^H T_j U_j at their
positions only when read (``slots.compressed_at``).
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import EigenError, InputError, InternalConsistencyError, ModelError
from .multiplicity import _generates
from .slots import SlotTuple, slot_kernels
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    _svd,
    _svds,
    as_operator,
    complement_within,
    numerical_rank,
    opnorm,
)


def _certified_spectrum(T, r, tol):
    """T's distinct eigenvalues: its eigvals clustered by single linkage at r, a cluster
    of k values accepted at its mean z when z's algebraic multiplicity is k at ``tol``
    and clustered again at r / 10 otherwise, down to 1e-14; ModelError when a single
    value fails.  Rounding splits a k-fold defective eigenvalue by about
    (eps ||T||)^(1/k), but their mean is accurate to O(eps ||T||) (Kato, Perturbation
    Theory for Linear Operators, ch. II 5).  The multiplicity is counted by deflation
    (Kublanovskaya 1966): T - z is block lower triangular in [V | its kernel], V its
    right singular vectors above the cut, with diagonal blocks V^H (T - z) V and 0.  So
    no power of T - z is ranked, whose rounding would hide a nearby block's eigenvalue."""
    out = []

    def multiplicity_at(z, total=0):
        A = T - z * np.eye(len(T))
        while len(A) and (rank := numerical_rank((svd := _svd(A))[1], tol)) < len(A):
            total, A = total + len(A) - rank, svd[2][:rank] @ A @ svd[2][:rank].conj().T
        return total

    def certify(values, r):
        linked = np.abs(values[:, None] - values) <= r
        for _ in range(len(values).bit_length()):  # the transitive closure, by squaring
            linked = linked @ linked
        for first in dict.fromkeys(linked.argmax(axis=1)):
            c = values[linked[first]]
            z, k = c.mean(), len(c)
            if multiplicity_at(z) == k:
                out.append(z)
            elif k > 1 and r > 1e-14:
                certify(c, r / 10)
            else:
                raise ModelError(f"no eigenvalue of T near {complex(z):.6g} passes its kernel check")

    if len(T):
        certify(np.linalg.eigvals(T), r)
    return out


@dataclass(eq=False)
class TensorFactor:
    """One tensor slot: an operator with a checked adjoint-invariant subspace.

    The facts the additive formula reads per factor are computed once, on
    first read, from ``kernels``: the adjoint eigenpair, the wandering subspace
    S (-) T S and whether it generates S; and T in the basis [Q | S].
    """

    T: np.ndarray
    Q: Subspace
    S: Subspace
    label: str
    tol: float
    coinvariance_residual: float
    spectrum: tuple  # the distinct eigenvalues of T, by modulus
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def eigenpair(self):
        """(alpha, v, ||T^H v - conj(alpha) v||): alpha is the first point where kQ =
        ker (Q^H T Q - alpha)^H (``kernels``) is nonzero, and v, a unit vector in Q with
        T^H v = conj(alpha) v, is Q's basis applied to kQ's first column; None if no point
        has one, as when Q = 0.  The points are the ``spectrum``, in order."""
        q = self.Q.dim
        for z in self.spectrum:
            if (kQ := self.kernels(z, self.tol)[1]).shape[1]:
                v = self.Q.basis @ kQ[:q, 0]
                return z, v, float(np.linalg.norm(self.T.conj().T @ v - np.conj(z) * v))
        return None

    @functools.cached_property
    def adapted(self):
        """U^H T U for U = [Q | S]; its (Q, S) block Q^H T S is 0, as S is invariant."""
        U = np.hstack([self.Q.basis, self.S.basis])
        return U.conj().T @ self.T @ U

    @functools.cached_property
    def block_norms(self):
        """(a, b) -> (||.||_2, ||.||_F^2) of the block U_a^H T U_b, for kinds a, b in 'QS'."""
        cut = {"Q": slice(0, self.Q.dim), "S": slice(self.Q.dim, None)}
        return {(a, b): (opnorm(B), float(np.vdot(B, B).real))
                for a in cut for b in cut for B in [self.adapted[cut[a], cut[b]]]}

    def kernels(self, z, tol):
        """``slots.slot_kernels`` at z, once per (z, tol); the first is ``wandering`` at 0.
        Empty (m, 0) blocks with no ``spectrum`` point within tol of z, where the SVD of
        a non-normal slot would rank pseudospectral directions (J_m + a I: |a|^m)."""
        if np.abs(np.subtract(self.spectrum, z)).min(initial=math.inf) > tol:
            return (np.zeros((len(self.T), 0), dtype=complex),) * 3
        return self.table(slot_kernels, z, tol)

    def table(self, fn, z, tol):
        """fn(self, z, tol) once per (fn, z, tol): ``slots``' slot cuts, kernels and Grams."""
        if (key := (fn, complex(z), tol)) not in self._tables:
            self._tables[key] = fn(self, z, tol)
        return self._tables[key]

    @functools.cached_property
    def wandering(self):
        """S (-) T S in S's coordinates; if it generates S, its dim is T's multiplicity on S."""
        return Subspace(self.kernels(0, self.S.tol)[0][self.Q.dim:], tol=self.S.tol, _checked=True)

    @functools.cached_property
    def wandering_generates(self):
        """Does the wandering subspace generate S?  The local test at each ``spectrum`` point."""
        q, tol = self.Q.dim, self.S.tol
        return _generates([self.kernels(z, tol)[0][q:] for z in self.spectrum],
                          self.wandering.basis, tol)


def tensor_factor(T, Q, tol=DEFAULT_TOL, label="", spectrum=None):
    """Validate co-invariance of Q under T^H and package the factor.

    The ``spectrum`` lists T's eigenvalues exactly (the factor tests and the slot
    W_lam trust it), and all of them.  A given one must hold each eigvals of T within
    r = 10 (eps max(1, ||T||_F))^(1/m), past how far rounding splits a defective
    root, else ModelError.  By default a triangular T (every weighted shift) gives
    its diagonal.  Any other T is block lower triangular in [Q | S], so its spectrum
    is Q^H T Q's and S^H T S's, each their ``_certified_spectrum`` at r, and a point
    of S's within tol of one of Q's is that one.  Raises ModelError when T^H Q
    reaches outside Q beyond tolerance.
    """
    T = as_operator(T)
    m = T.shape[0]
    if Q.ambient_dim != m:
        raise InputError(f"coinvariant subspace lives in C^{Q.ambient_dim}, operator on C^{m}")
    P_Q = Q.projector()
    eye = np.eye(m, dtype=complex)
    resid = opnorm((eye - P_Q) @ T.conj().T @ P_Q)
    if resid > tol:
        raise ModelError(
            f"subspace is not invariant under the adjoint (residual {resid:.3e} > {tol:.1e})"
        )
    S = complement_within(Subspace.full(m, tol=tol), Q)
    r = 10 * (np.finfo(float).eps * max(1.0, np.linalg.norm(T))) ** (1 / m)
    if spectrum is None and (not np.triu(T, 1).any() or not np.tril(T, -1).any()):
        spectrum = np.diag(T)
    elif spectrum is None:
        zQ, zS = (_certified_spectrum(B.basis.conj().T @ T @ B.basis, r, tol) for B in (Q, S))
        spectrum = zQ + [z for z in zS if np.abs(np.subtract(zQ, z)).min(initial=math.inf) > tol]
    elif any(np.abs(z - np.asarray(spectrum)).min(initial=math.inf) > r
             for z in np.linalg.eigvals(T)):
        raise ModelError(f"given spectrum {list(spectrum)} misses an eigenvalue of T")
    spectrum = tuple(sorted(set(map(complex, spectrum)), key=lambda z: (abs(z), z.real, z.imag)))
    return TensorFactor(T=T, Q=Q, S=S, label=label or f"factor:{m}", tol=tol,
                        coinvariance_residual=float(resid), spectrum=spectrum)


@dataclass(eq=False)
class TensorSystem:
    """The embedded commuting tuple built from a list of factors."""

    factors: tuple
    dims: tuple
    N: int
    tol: float

    @property
    def n(self):
        return len(self.factors)

    def joint_spectrum(self):
        """sigma(T_1) x ... x sigma(T_n): the joint eigenvalues of the embedded tuple."""
        return list(itertools.product(*(f.spectrum for f in self.factors)))


def build_system(factors, tol=None):
    """Embed the factors into their tensor product as a doubly commuting tuple."""
    factors = tuple(factors)
    if not factors:
        raise InputError("a tensor system needs at least one factor")
    if tol is None:
        tol = min(f.tol for f in factors)
    dims = tuple(f.T.shape[0] for f in factors)
    return TensorSystem(factors=factors, dims=dims, N=math.prod(dims), tol=tol)


@functools.cache
def _masks(patterns):
    """Per slot and kind (0 = Q, 1 = S), the bitmask of the ``patterns`` that admit it."""
    return [[sum(1 << p for p, w in enumerate(patterns) if w[s] in kinds) for kinds in ("QI", "SI")]
            for s in range(len(patterns[0]))]


@functools.cache
def _admits(tracks, r):
    """(start, need, guard, at) for ``_word_sums``: the tracks' pattern bitmasks side by
    side in one int, n bits a track and a 0 guard bit above each.  start holds every
    pattern; at[s][f][c] per track its ``_masks`` at slot s for kind c, switched where it
    flips at the f-th chosen slot (f = r: none chosen at s).  need holds the needed
    tracks' n bits, so (m & need) + need sets each of their guard bits iff their masks in
    m are all nonzero."""
    n, full = len(tracks[0][0][0]), (1 << len(tracks[0][0][0])) - 1
    needed = [t for t, (_, _, is_needed) in enumerate(tracks) if is_needed]
    return (sum(full << t * (n + 1) for t in range(len(tracks))),
            sum(full << t * (n + 1) for t in needed), sum(1 << t * (n + 1) + n for t in needed),
            [[[sum(_masks(patterns)[s][c ^ (f in flips)] << t * (n + 1)
                   for t, (patterns, flips, _) in enumerate(tracks)) for c in (0, 1)]
              for f in range(r + 1)] for s in range(n)])


def _word_sums(dims, tracks, r=0, flip_weights=None):
    """[(((s_1, c_1), .., (s_r, c_r)), masks, sum)]: by one dynamic program over the
    slots, sums over the words k in {Q, S}^n (kinds 0 = Q, 1 = S) and the slots s_1 < ..
    < s_r, c_i = k at s_i, of the product of dims[s][k_s], or flip_weights[s][k_s] at the
    s_i.  Each track (n patterns, flips, needed) follows k with its flips-th chosen slots
    switched, and its mask holds the patterns that match that word; k is dropped once a
    needed track's mask is 0."""
    n, (start, need, guard, at) = len(dims), _admits(tuple(tracks), r)
    states = {((), start): 1}
    for s, d in enumerate(dims):  # moves[k]: (choice, mask, weight) after k chosen slots
        chosen_here = [(c, v) for c, v in enumerate(flip_weights[s]) if v] if r else []
        moves = [[((), at[s][r][c], d[c]) for c in (0, 1) if d[c]]
                 + [(((s, c),), at[s][k][c], v) for c, v in chosen_here if k < r]
                 for k in range(r + 1)]
        new = collections.defaultdict(float)
        for (chosen, m), w in states.items():
            for grow, mask, v in moves[len(chosen)]:
                if (((mc := m & mask) & need) + need) & guard == guard:
                    new[chosen + grow, mc] += w * v
        states = new
    return [(chosen, [m >> t * (n + 1) & (1 << n) - 1 for t in range(len(tracks))], w)
            for (chosen, m), w in states.items() if len(chosen) == r]


@functools.cache
def _chain_patterns(n):
    """[S's patterns, F_1's, .., F_{n-1}'s]: S is Q^i S I^(n-i-1), i = n-1 .. 0 (its blocks
    in word order), and F_i the n summands Q^min(j-1, i-1) I^max(j-i, 0) S Q^(n-j), j < n,
    and Q^(i-1) I^(n-1-i) QS, so F's are the e_j.  Raises InternalConsistencyError
    unless each space's words are among the one before's (``_word_sums``)."""
    patterns = [tuple("Q" * i + "S" + "I" * (n - i - 1) for i in reversed(range(n)))] + [
        tuple("Q" * min(j - 1, i - 1) + "I" * max(j - i, 0) + "S" + "Q" * (n - j)
              for j in range(1, n)) + ("Q" * (i - 1) + "I" * (n - 1 - i) + "QS",)
        for i in range(1, n)]
    if not all(m[1] for big, small in zip(patterns, patterns[1:])
               for _, m, _ in _word_sums([(1, 1)] * n, [(small, (), True), (big, (), False)])):
        raise InternalConsistencyError("chain containment fails: a block of F_i is not in F_{i-1}")
    return patterns


def _dims(sys, patterns):
    """Each slot-kind pattern's dimension: the product of its slots' Q, S or I (= Q (+) S)."""
    sizes = [{"Q": f.Q.dim, "S": f.S.dim, "I": m} for f, m in zip(sys.factors, sys.dims)]
    return [math.prod(d[k] for d, k in zip(sizes, p)) for p in patterns]


def _positions(sys, pattern):
    """A pattern's positions in (x)_s U_s in word order: kron order within each kind-block
    it matches, the blocks by their kinds at its I slots (Q first, the first I slot most
    significant).  One sparse meshgrid gives kron order, and a stable argsort of the I
    slots' kind bits, a small unsigned key, groups it block by block."""
    grid = np.meshgrid(*(np.arange(*{"Q": (0, f.Q.dim), "S": (f.Q.dim, m), "I": (0, m)}[k])
                         for f, m, k in zip(sys.factors, sys.dims, pattern)),
                       indexing="ij", sparse=True)
    key = np.zeros((), dtype=np.min_scalar_type(2 ** pattern.count("I") - 1))
    for g, f, k in zip(grid, sys.factors, pattern):
        key = key << 1 | (g >= f.Q.dim) if k == "I" else key
    at = np.ravel_multi_index(grid, sys.dims)
    return at.ravel()[np.argsort(np.broadcast_to(key, at.shape), axis=None, kind="stable")]


@dataclass(eq=False)
class ChainDecomposition:
    """S with its nested family F_1 >= ... >= F_{n-1} = F as slot-kind patterns, words
    over 'Q', 'S' and 'I' (= Q (+) S), each the union of the kind-blocks (x)_s (Q_s or S_s)
    that it matches (``_chain_patterns``).  In the coordinates of (x)_s U_s, S's basis
    vectors are the unit vectors at the positions ``at``, and F's at ``F_at``."""

    at: np.ndarray  # per column of S, its position in (x)_s U_s: its blocks in word order
    F_at: np.ndarray  # F's positions: e_1's, .., e_n's
    x_ranks: list  # rank X_i, the dimension of the pattern I^i S Q^(n-i-1)
    patterns: list  # [S's, F_1's, .., F_{n-1}'s], each a tuple of patterns in column order
    dims: list  # [dim S, dim F_1, .., dim F], each a sum over its patterns


def f_chain(sys):
    """S's and F's positions, the ranks of the X projections, and S and the nested F_i
    family as patterns.  S's positions are its patterns' ``_positions`` in turn, and F's
    summand e_i is the first block of Q^i S I^(n-i-1).  ``_chain_patterns`` raises
    InternalConsistencyError unless they nest, which is why the report records every
    containment residual as 0."""
    if sys.n < 2:
        raise InputError("the subspace chain needs at least two tensor factors")
    patterns, n = _chain_patterns(sys.n), sys.n
    parts = [_positions(sys, p) for p in patterns[0]]
    return ChainDecomposition(
        at=np.concatenate(parts),
        F_at=np.concatenate([at[:d] for at, d in zip(parts[::-1], _dims(sys, patterns[-1]))]),
        x_ranks=_dims(sys, ["I" * i + "S" + "Q" * (n - i - 1) for i in range(n)]),
        patterns=patterns, dims=[sum(_dims(sys, ps)) for ps in patterns])


@dataclass
class StructureReport:
    """Worst-case residuals for the structural identities of a chain."""

    projection_identities: dict
    chain: dict
    semi_invariance: dict
    commutativity: dict
    block_structure: dict
    power_identity: dict
    # the tuple compressed to S and to F, for callers to reuse
    compressions: list = field(default_factory=list, repr=False, compare=False)

    def families(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "compressions"}

    def max_residual(self):
        return max((float(v) for fam in self.families().values() for v in fam.values()),
                   default=0.0)

    def ok(self, tol):
        return self.max_residual() <= tol


def _telescope(a, d, b):
    """sum_t a_1 .. a_{t-1} d_t b_{t+1} .. b_n, which bounds ||(x) A'_s - (x) A_s||_2
    when a_s >= ||A'_s||, d_s >= ||A'_s - A_s|| and b_s >= ||A_s||, by the
    telescoping sum of A'_1 (x) .. (x) (A'_t - A_t) (x) A_{t+1} (x) .. (x) A_n."""
    return sum(math.prod(a[:t]) * d[t] * math.prod(b[t + 1:]) for t in range(len(d)))


def _projection_identities(sys):
    """The projection identities from O(n) slot-matrix norms.

    Slot s of X_i holds A = I, P_{S_i} or P_{Q_s} (kinds 'I', 'S', 'Q'), and
    ``prod[s]`` maps kind pairs to ||A_a A_b||_2.  ``orthogonal_ranges``
    equals the dense N x N residual norm in exact arithmetic; the other four
    are telescoping upper bounds of theirs.
    """
    prod, idem, herm, split = [], [], [], []
    for f in sys.factors:
        P = {"I": np.eye(f.T.shape[0]), "S": f.S.projector(), "Q": f.Q.projector()}
        norms = iter(_svds([P[a] @ P[b] for a in P for b in P] + [A @ A - A for A in P.values()]
                           + [A - A.conj().T for A in P.values()] + [P["I"] - P["S"] - P["Q"]],
                           compute_uv=False)[:, 0])
        prod.append({(a, b): next(norms) for a in P for b in P})
        idem.append(dict(zip(P, norms)))
        herm.append(dict(zip(P, norms)))
        split.append(next(norms))
    kinds = [["I"] * i + ["S"] + ["Q"] * (sys.n - i - 1) for i in range(sys.n)]  # X_i's slots
    ones = ["I"] * sys.n

    def norms(ks, ls):
        return [p[a, b] for p, a, b in zip(prod, ks, ls)]

    return {
        # I - Q~_1 .. Q~_n - sum X_i = sum_i I (x) .. (x) (I - P_{S_i} - P_{Q_i}) (x) Q~ ..
        "inclusion_exclusion": _telescope([1.0] * sys.n, split, norms(["Q"] * sys.n, ones)),
        "idempotent": max(_telescope(norms(ks, ks), [d[k] for d, k in zip(idem, ks)],
                                     norms(ks, ones)) for ks in kinds),
        "hermitian": max(_telescope(norms(ks, ones), [d[k] for d, k in zip(herm, ks)],
                                    norms(ks, ones)) for ks in kinds),
        # ||(x)_s A_s||_2 = prod_s ||A_s||_2, so this one is exact
        "orthogonal_ranges": max((math.prod(norms(kp, kq))
                                  for kp, kq in itertools.permutations(kinds, 2)), default=0.0),
        # P_S is the sum of its blocks' projectors; grouped by their last S slot i,
        # sum X_i - P_S = sum_i (I - (x)_{s<i} (P_{Q_s} + P_{S_s})) (x) P_{S_i} (x) Q~ ..
        "sum_equals_PS": sum(_telescope([1.0] * i, split[:i], [1 + d for d in split[:i]])
                             * math.prod(norms(ks, ones)[i:]) for i, ks in enumerate(kinds)),
    }


def _slot_sums(sys, tracks, r, p):
    """``_word_sums`` over the nonempty kind-blocks, slot dimensions as weights, and at a
    chosen slot the block norm p (0: ||.||_2, 1: ||.||_F^2) of U_a^H T U_c, a not c."""
    return _word_sums([(f.Q.dim, f.S.dim) for f in sys.factors], tracks, r, [
        (f.block_norms["S", "Q"][p], f.block_norms["Q", "S"][p]) for f in sys.factors])


def _cross_norm(sys, big, small):
    """max_j ||small^H T~_j (big (-) small)||_2, exactly: T~_j couples block k only to k
    with slot j switched, a partial permutation of blocks I (x) .. U_a^H T_j U_b .. (x) I,
    so the norm is the largest ||U_a^H T_j U_b||_2 over the words k in big, not in small,
    whose switch at j is in small, and b = k_j (``_slot_sums``)."""
    return max((sys.factors[j].block_norms["QS"[1 - c], "QS"[c]][0] for ((j, c),), (_, ms, _), _ in
                _slot_sums(sys, [(big, (), True), (small, (), False), (small, (0,), True)], 1, 0)
                if not ms), default=0.0)


def _commutator_bound(sys, patterns):
    """max_{i<j} ||[C_i, C_j]||_F for the tuple C compressed to the union L of ``patterns``.

    Block (k2, k) of [C_i, C_j] vanishes unless k2 is k with slots i and j switched,
    when it is (1[k switched at j in L] - 1[k switched at i in L]) times one kron of slot
    blocks and identities (the two orders pass through those two blocks).  So ||.||_F^2
    is an exact sum of products of slot norms, with no cancellation, and it bounds
    ||.||_2^2: ``_slot_sums`` tracks k, k switched at i, at j and at both."""
    totals = collections.defaultdict(float)
    for ((i, _), (j, _)), (_, mi, mj, _), w in _slot_sums(sys, [
            (patterns, (), True), (patterns, (0,), False), (patterns, (1,), False),
            (patterns, (0, 1), True)], 2, 1):
        if bool(mi) != bool(mj):
            totals[i, j] += w
    return math.sqrt(max(totals.values(), default=0.0))


def _commutator_bound_S(sys):
    """``_commutator_bound`` on S, every word but Q..Q, in closed form: only k = S at i, Q
    elsewhere, and its mirror have one switch at Q..Q, so ||[C_i, C_j]||_F^2 is
    prod_{s != i, j} dim Q_s (gamma_i delta_j + delta_i gamma_j), gamma = ||S^H T Q||_F^2
    and delta = ||Q^H T S||_F^2 at each slot."""
    q = [f.Q.dim for f in sys.factors]
    gamma, delta = ([f.block_norms[ab][1] for f in sys.factors] for ab in (("S", "Q"), ("Q", "S")))
    return math.sqrt(max((math.prod(q[:i] + q[i + 1:j] + q[j + 1:])
                          * (gamma[i] * delta[j] + delta[i] * gamma[j])
                          for i, j in itertools.combinations(range(sys.n), 2)), default=0.0))


def _summandwise_powers(sys):
    """A bound of max_k ||(P_F T~ P_F)^k - sum_i P_{M_i} T~^k P_{M_i}||_2 on F over the
    multi-indices 1 <= |k| <= 3, from slot norms.  Each M_i is one kind-block e_i, S at
    slot i and Q elsewhere, and flipping one slot of e_i leaves F.  So on M_i the sides
    are (x)_s B_s^{k_s} and (x)_s (A_s^{k_s})[c_s, c_s], for A_s = U_s^H T_s U_s, c_s slot
    s's kind in e_i and B_s = A_s[c_s, c_s], block diagonal along the M_i.  Their
    difference is ``_telescope``d over the support of k from ||B^p||, ||B^p - (A^p)[c, c]||
    and ||(A^p)[c, c]||, p <= 3, one stacked SVD per slot and kind: 0 at p = 1, and at
    every p for S_s invariant and Q_s co-invariant (Sarason 1965)."""
    norms = {}  # (slot, kind) -> per p, (||B^p||, the difference, ||(A^p)[c, c]||)
    for s, f in enumerate(sys.factors):
        A, q = f.adapted, f.Q.dim
        for c, cut in (("Q", slice(0, q)), ("S", slice(q, None))):
            if (B := A[cut, cut]).size:
                Bp, Ap = [B, B @ B, B @ B @ B], [P[cut, cut] for P in (A, A @ A, A @ A @ A)]
                norms[s, c] = _svds(Bp + [X - Y for X, Y in zip(Bp, Ap)] + Ap,
                                    compute_uv=False)[:, 0].reshape(3, 3).T.tolist()
    e = _chain_patterns(sys.n)[-1]
    words = [w for w, d in zip(e, _dims(sys, e)) if d]
    worst = 0.0
    for ks in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(sys.n), r) for r in (1, 2, 3)):
        k = collections.Counter(ks)  # slot -> power, in slot order
        for w in words:
            worst = max(worst, _telescope(*zip(*(norms[s, w[s]][p - 1] for s, p in k.items()))))
    return worst


def verify_compression_structure(sys, chain):
    """Numerically re-check the structural identities behind the chain.

    Families of residuals from slot norms (exact, or upper bounds of the dense
    N x N norms where noted), and recorded facts:

    * projection_identities -- the inclusion-exclusion expansion of P_S, the
      X_i being Hermitian idempotents with orthogonal ranges, sum X_i = P_S
      (bounds but ``orthogonal_ranges``; see _projection_identities);
    * chain -- recorded 0: the containments S >= F_1 >= ... (f_chain raises
      otherwise), and S (-) F_1 = ran(P~_{n-1} P~_n), as F_1's summands are the
      words whose last S sits at a slot j < n, and those ending in QS;
    * semi_invariance -- ||small^H T~ gap||_2 for each gap G_{i-1} (-) G_i
      (G_0 = S), a set difference of patterns (see _cross_norm);
    * commutativity -- of the compressions to S and to each F_i (Frobenius
      bounds; see _commutator_bound and _commutator_bound_S), recorded 0 on F: its
      words have one S, so for k and k switched at i and j in F, neither switch is;
    * block_structure -- recorded 0: each M_i is the word e_i, and e_p and e_q
      differ in two slots, so no one-slot flip couples two M summands;
    * power_identity -- compressed powers act summand-by-summand:
      (P_F T~ P_F)^k = sum_i P_{M_i} T~^k P_{M_i} on F for 1 <= |k| <= 3 (a bound;
      see _summandwise_powers).
    """
    chain_res = dict.fromkeys([f"containment_{idx}" for idx in range(sys.n - 1)]
                              + ["head_gap_dim_match", "head_gap_sine"], 0.0)
    semi = {f"gap_{idx}": _cross_norm(sys, big, small)
            for idx, (big, small) in enumerate(zip(chain.patterns, chain.patterns[1:]))}
    comm = {"S": _commutator_bound_S(sys)} | {
        f"F_{i}": _commutator_bound(sys, ps) if i < sys.n - 1 else 0.0
        for i, ps in enumerate(chain.patterns[1:], 1)}
    block = dict.fromkeys(["off_diagonal", "diagonal_sum"], 0.0)

    comp_S, comp_F = SlotTuple(sys, chain.at), SlotTuple(sys, chain.F_at)
    families = (_projection_identities(sys), chain_res, semi, comm, block,
                {"summandwise_powers": _summandwise_powers(sys)})
    return StructureReport(*({k: float(v) for k, v in fam.items()} for fam in families),
                           compressions=[comp_S, comp_F])


@dataclass(eq=False)
class WanderingDecomposition:
    """The summands E_i = (S_i (-) T_i S_i) (x) (x)_{j != i} C v_j by their slot data (see
    ``wandering_E``): dim E = sum ``factor_wandering_dims``."""

    factor_wandering_dims: list
    eigen_data: list  # (alpha_i, v_i, residual_i) per factor
    shift_points: list  # per i, the tuple (alpha_1, .., 0 at i, .., alpha_n)
    alignment_residual: float


def wandering_E(sys):
    """The E summands' slot data, factor wandering subspaces and adjoint eigenvectors; no
    E_i is formed.

    Each factor's ``eigenpair`` T_i^H v_i = conj(alpha_i) v_i with v_i in Q_i
    is used; EigenError is raised when there is none or its residual exceeds
    sys.tol.  Also computes, for every i and j, the residual of

        E_i^H T~_j M_i - lam^{(i)}_j E_i^H M_i = 0

    (the basis form of P_{E_i} (P_{M_i} T~_j P_{M_i} - lam^{(i)}_j P_{M_i}) = 0, as E_i
    lies in M_i), where lam^{(i)} has alpha_j off slot i and 0 at slot i.  These
    ``shift_points`` go into the report only; coranks use joint_spectrum.  E_i, in M_i's
    kind-block, is (x)_s x_s: factor i's ``wandering`` coordinates at slot i, x_j = Q_j^H v_j
    at each other slot j.  The tuple compressed to M_i is I (x) .. B_j .. (x) I (B_i = b_i,
    B_j = a_j; ``slots``), so the residual is exactly ||x_j^H B_j - lam_j x_j^H||_2 prod_{s != j}
    ||x_s||_2, as ||A (x) B||_2 = ||A||_2 ||B||_2 (Van Loan 2000): 4n slot norms from one
    stacked SVD, each matrix zero-padded, which keeps its norm.
    """
    eigens = []
    for i, f in enumerate(sys.factors):
        if f.eigenpair is None:
            raise EigenError(f"factor {i}: no adjoint eigenvector in the co-invariant subspace")
        if f.eigenpair[2] > sys.tol:
            raise EigenError(f"factor {i}: best eigen residual {f.eigenpair[2]:.3e} exceeds "
                             f"tolerance {sys.tol:.1e}")
        eigens.append(f.eigenpair)

    shift_points = [tuple(0.0 + 0.0j if j == i else eigens[j][0] for j in range(sys.n))
                    for i in range(sys.n)]

    slot = []  # per slot: x^H, x^H a - alpha x^H, W^H and W^H b, W its wandering coordinates
    for f, (alpha, v, _) in zip(sys.factors, eigens):
        q, x_h, W_h = f.Q.dim, (f.Q.basis.conj().T @ v)[None].conj(), f.wandering.basis.conj().T
        slot += [x_h, x_h @ f.adapted[:q, :q] - alpha * x_h, W_h, W_h @ f.adapted[q:, q:]]
    padded = np.zeros((len(slot), *np.max([M.shape for M in slot], axis=0)), dtype=complex)
    for P, M in zip(padded, slot):
        P[:M.shape[0], :M.shape[1]] = M
    size_Q, res_Q, size_S, res_S = _svds(padded, compute_uv=False)[:, 0].reshape(sys.n, 4).T

    align = 0.0
    for i, f in enumerate(sys.factors):
        if f.wandering.dim:
            size, res = np.where(np.arange(sys.n) == i, (size_S, res_S), (size_Q, res_Q))
            align = max(align, *(r * math.prod(np.delete(size, j)) for j, r in enumerate(res)))

    return WanderingDecomposition([f.wandering.dim for f in sys.factors], eigens, shift_points,
                                  float(align))
