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
{Q, S}^n, with kron bases (x)_s (Q_s or S_s).  S is every block but Q..Q,
each F_i and M_i is a union of blocks, and the gaps of the chain are set
differences; no array bigger than S's N x dim S basis is formed.  T~_j
maps block k into k and into k with slot j switched only, through blocks of
U_j^H T_j U_j, so structural residuals are read from those slot blocks, and
E_i is built in M_i's block of S's coordinates.  The embedded operators of
distinct slots doubly commute exactly, so that residual is recorded as 0.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import EigenError, InputError, InternalConsistencyError, ModelError
from .multiplicity import OperatorTuple, krylov_closure, wandering_subspace
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    as_operator,
    complement_within,
    compress,
    opnorm,
)

# verify_compression_structure's power identity: multi-indices 1 <= |k| <= 3,
# on 4 random unit vectors of F
_POWER_DEGREE = 3
_POWER_SAMPLES = 4


def _kron_chain(mats):
    return functools.reduce(np.kron, mats, np.ones((1, 1), dtype=complex))


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


@dataclass(eq=False)
class TensorFactor:
    """One tensor slot: an operator with a checked adjoint-invariant subspace.

    The facts the additive formula reads per factor are computed once, on
    first read: the adjoint eigenpair, the wandering subspace S (-) T S and
    whether it generates S; and for the structure check, T in the basis [Q | S].
    """

    T: np.ndarray
    Q: Subspace
    S: Subspace
    label: str
    tol: float
    coinvariance_residual: float
    spectrum: tuple  # the distinct eigenvalues of T, by modulus

    @functools.cached_property
    def eigenpair(self):
        """The most reliable (alpha, v, residual) of coinvariant_eigenpairs; None when Q = 0."""
        pairs = coinvariant_eigenpairs(self.T, self.Q)
        return pairs[0] if pairs else None

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

    @functools.cached_property
    def _restriction(self):
        """T restricted to the invariant S, in S's coordinates: one compression
        for the wandering subspace and its gws test."""
        return OperatorTuple((self.T,)).compressed(self.S)

    @functools.cached_property
    def wandering(self):
        """S (-) T S in S's coordinates; if it generates S, its dim is T's multiplicity on S."""
        return wandering_subspace(self._restriction, self.S)

    @functools.cached_property
    def wandering_generates(self):
        """Does the wandering subspace generate S under T?  Closed in S's coordinates."""
        return krylov_closure(self._restriction, self.wandering.basis,
                              tol=self.S.tol).dim == self.S.dim


def tensor_factor(T, Q, tol=DEFAULT_TOL, label="", spectrum=None):
    """Validate co-invariance of Q under T^H and package the factor.

    ``spectrum`` lists T's eigenvalues when they are known exactly; by default
    a triangular T (every weighted shift) gives its diagonal and any other T
    its clustered eigvals.  Raises ModelError when T^H Q reaches outside Q
    beyond tolerance.
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
    if spectrum is None:
        triangular = not np.triu(T, 1).any() or not np.tril(T, -1).any()
        spectrum = np.diag(T) if triangular else _dedup_complex(np.linalg.eigvals(T))
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
    # Distinct slots act on distinct tensor factors, so by the mixed-product
    # property T~_p T~_q = T~_q T~_p and T~_p^H T~_q = T~_q T~_p^H hold exactly.
    doubly_commuting_residual: float = 0.0

    def __post_init__(self):  # rows before slot i, for apply
        self._lead = tuple(math.prod(self.dims[:i]) for i in range(len(self.dims)))

    @property
    def n(self):
        return len(self.factors)

    def apply(self, i, V, M=None):
        """T~_i V, or (I (x) .. M .. (x) I) V for an m_i x m_i M, for V of shape (N,)
        or (N, k), by a mode-i product: V reshaped to (m_1 .. m_{i-1}, m_i, rest)
        and one matmul, O(N k m_i) instead of O(N^2 k)."""
        M = self.factors[i].T if M is None else M
        return (M @ V.reshape(self._lead[i], self.dims[i], -1)).reshape(V.shape)

    def joint_spectrum(self):
        """sigma(T_1) x ... x sigma(T_n): the joint eigenvalues of the embedded tuple."""
        return list(itertools.product(*(f.spectrum for f in self.factors)))

    def block_dim(self, block):
        """The dimension of a kind-block, a word with one 'Q' or 'S' per slot."""
        return math.prod(f.Q.dim if k == "Q" else f.S.dim for f, k in zip(self.factors, block))

    def blocks(self, kinds):
        """The nonempty kind-blocks of slot kinds 'Q', 'S' and 'I' (= Q (+) S), in word order."""
        words = ("".join(b) for b in itertools.product(*("QS" if k == "I" else k for k in kinds)))
        return [b for b in words if self.block_dim(b)]

    def block_bases(self, blocks):
        """The kron bases (x)_s (Q_s or S_s) of kind-blocks, side by side."""
        cols = [_kron_chain([f.Q.basis if k == "Q" else f.S.basis for f, k in zip(self.factors, b)])
                for b in blocks]
        return np.hstack(cols) if cols else np.zeros((self.N, 0), dtype=complex)


def _flip(block, s):
    """``block`` with slot s switched between Q and S."""
    return block[:s] + ("S" if block[s] == "Q" else "Q") + block[s + 1:]


def build_system(factors, tol=None):
    """Embed the factors into their tensor product as a doubly commuting tuple."""
    factors = tuple(factors)
    if not factors:
        raise InputError("a tensor system needs at least one factor")
    if tol is None:
        tol = min(f.tol for f in factors)
    dims = tuple(f.T.shape[0] for f in factors)
    return TensorSystem(factors=factors, dims=dims, N=math.prod(dims), tol=tol)


def _S_blocks(sys):
    """S's kind-blocks: every block but Q..Q, in word order."""
    return [b for b in sys.blocks("I" * sys.n) if "S" in b]


def joint_invariant_S(sys):
    """S = (Q_1 (x) ... (x) Q_n)-perp: the kron bases of every kind-block but Q..Q,
    which with Q..Q form an orthonormal basis of C^N (and each has a last S
    slot, so S is also sum ran X_i, block by block)."""
    return Subspace(sys.block_bases(_S_blocks(sys)), ambient_dim=sys.N, tol=sys.tol,
                    _checked=True)


def _chain_slot_kinds(n, i, j):
    """Slot kinds of the j-th summand (1-based) of F_i, for i in 1..n-1."""
    if j < n:
        return ["Q"] * min(j - 1, i - 1) + ["I"] * max(j - i, 0) + ["S"] + ["Q"] * (n - j)
    return ["Q"] * (i - 1) + ["I"] * (n - 1 - i) + ["Q", "S"]


@dataclass(eq=False)
class ChainDecomposition:
    """S with its nested family F_1 >= ... >= F_{n-1} = F and F's block summands
    M_i; each F_i and M_i has S's columns for its kind-blocks as basis."""

    S: Subspace  # basis: the blocks of block_columns side by side
    block_columns: dict  # kind-block -> its columns of S's basis, for S's blocks in order
    x_ranks: list  # rank X_i = m_1 .. m_{i-1} dim S_i dim Q_{i+1} .. dim Q_n
    F_summands: list  # per F_i, the kind-blocks of each of its n summands, in basis order
    containment_residuals: list  # of S >= F_1, F_1 >= F_2, ..., in order

    def columns(self, blocks):
        """The columns of S's basis that hold ``blocks``, in order."""
        return np.array([c for b in blocks for c in self.block_columns[b]], dtype=int)

    def _part(self, blocks):
        return Subspace(self.S.basis[:, self.columns(blocks)], ambient_dim=self.S.ambient_dim,
                        tol=self.S.tol, _checked=True)

    @functools.cached_property
    def F_chain(self):  # [F_1, ..., F_{n-1}]
        return [self._part(sum(summands, [])) for summands in self.F_summands]

    @property
    def F(self):  # basis: the M_i bases side by side, in order
        return self.F_chain[-1]

    @functools.cached_property
    def M_summands(self):  # block subspaces M_1, ..., M_n of F
        return [self._part(blocks) for blocks in self.F_summands[-1]]


def f_chain(sys):
    """Build S, the ranks of the X projections, the nested F_i family, and F's summands.

    Each F_i is an orthogonal direct sum of n summands, each a union of
    kind-blocks, so a compression to F has the M_i blocks in order.  A
    containment residual is 0 when the smaller space's blocks are among the
    bigger one's, else 1.
    """
    if sys.n < 2:
        raise InputError("the subspace chain needs at least two tensor factors")
    S_blocks = _S_blocks(sys)
    edges = np.cumsum([0] + [sys.block_dim(b) for b in S_blocks])
    F_summands = [[sys.blocks(_chain_slot_kinds(sys.n, i, j)) for j in range(1, sys.n + 1)]
                  for i in range(1, sys.n)]
    spaces = [S_blocks] + [sum(summands, []) for summands in F_summands]
    resids = [float(not set(small) <= set(big)) for big, small in zip(spaces, spaces[1:])]
    if max(resids) > 0:
        raise InternalConsistencyError("chain containment fails: a block of F_i is not in S")
    return ChainDecomposition(
        S=joint_invariant_S(sys),
        block_columns={b: range(lo, hi) for b, lo, hi in zip(S_blocks, edges, edges[1:])},
        x_ranks=[math.prod(sys.dims[:i]) * f.S.dim * math.prod(g.Q.dim for g in sys.factors[i + 1:])
                 for i, f in enumerate(sys.factors)],
        F_summands=F_summands, containment_residuals=resids)


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
        prod.append({(a, b): opnorm(P[a] @ P[b]) for a in P for b in P})
        idem.append({a: opnorm(A @ A - A) for a, A in P.items()})
        herm.append({a: opnorm(A - A.conj().T) for a, A in P.items()})
        split.append(opnorm(P["I"] - P["S"] - P["Q"]))
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


def _cross_norm(sys, rows, cols):
    """max_j ||rows^H T~_j cols||_2 for disjoint sets of kind-blocks, exactly: T~_j
    couples k only to _flip(k, j), a partial permutation of blocks
    I (x) .. U_a^H T_j U_b .. (x) I, so the norm is their largest."""
    return max((f.block_norms[_flip(k, j)[j], k[j]][0] for k in cols
                for j, f in enumerate(sys.factors) if _flip(k, j) in rows), default=0.0)


def _commutator_bound(sys, blocks):
    """max_{i<j} ||[C_i, C_j]||_F for the tuple C compressed to the union L of ``blocks``.

    Block (k2, k) of [C_i, C_j] vanishes unless k2 is k with slots i and j
    switched, when it is (1[_flip(k, j) in L] - 1[_flip(k, i) in L]) times one
    kron of slot blocks and identities (the two orders pass through those two
    blocks).  So ||.||_F^2 is an exact sum of products of slot norms, with no
    cancellation, and it bounds ||.||_2^2."""
    dims = [{"Q": f.Q.dim, "S": f.S.dim} for f in sys.factors]
    worst = 0.0
    for i, j in itertools.combinations(range(sys.n), 2):
        total = 0.0
        for k in blocks:
            k2 = _flip(_flip(k, i), j)
            if k2 in blocks and (_flip(k, j) in blocks) != (_flip(k, i) in blocks):
                total += (sys.factors[i].block_norms[k2[i], k[i]][1]
                          * sys.factors[j].block_norms[k2[j], k[j]][1]
                          * math.prod(d[c] for s, (d, c) in enumerate(zip(dims, k))
                                      if s not in (i, j)))
        worst = max(worst, math.sqrt(total))
    return worst


def _compressed_to_S(sys, chain):
    """The tuple compressed to S, from the slot-adapted U_j^H T_j U_j: in the
    coordinates of (x)_s U_s, T~_j is I (x) .. U_j^H T_j U_j .. (x) I, and S's
    basis vectors are the unit vectors at the kron-ordered positions ``at``."""
    spans = [{"Q": (0, f.Q.dim), "S": (f.Q.dim, m)} for f, m in zip(sys.factors, sys.dims)]
    grids = (np.meshgrid(*(np.arange(*sp[k]) for sp, k in zip(spans, b)), indexing="ij")
             for b in chain.block_columns)
    at = np.concatenate([np.zeros(0, dtype=int)]
                        + [np.ravel_multi_index(g, sys.dims).ravel() for g in grids])
    E = np.zeros((sys.N, chain.S.dim), dtype=complex)
    E[at, np.arange(chain.S.dim)] = 1.0
    return OperatorTuple(tuple(sys.apply(j, E, f.adapted)[at] for j, f in enumerate(sys.factors)))


def _compressed_powers(ops, V):
    """A^k V for every k in Z_+^n with 1 <= |k| <= _POWER_DEGREE.

    Each A_i is a matrix or a map W -> A_i W.  The multi-indices come in one
    fixed order, so calls on compressed operators (with V in basis
    coordinates) and on the slot maps can be zipped term by term.
    """
    for kk in itertools.product(range(_POWER_DEGREE + 1), repeat=len(ops)):
        if not 1 <= sum(kk) <= _POWER_DEGREE:
            continue
        W = V
        for op, p in zip(ops, kk):
            for _ in range(p):
                W = op(W) if callable(op) else op @ W
        yield W


def verify_compression_structure(sys, chain=None, seed=42):
    """Numerically re-check every structural identity behind the chain.

    Families of residuals, all but the last from slot norms (exact, or upper
    bounds of the dense N x N norms where noted):

    * projection_identities -- the inclusion-exclusion expansion of P_S, the
      X_i being Hermitian idempotents with orthogonal ranges, sum X_i = P_S
      (bounds but ``orthogonal_ranges``; see _projection_identities);
    * chain -- containments S >= F_1 >= ..., as f_chain measured them, and
      F_1 = S (-) ran(P~_{n-1} P~_n), by the sine of the largest angle;
    * semi_invariance -- ||small^H T~ gap||_2 for each gap G_{i-1} (-) G_i
      (G_0 = S), a set difference of blocks (see _cross_norm);
    * commutativity -- of the compressions to S and to each F_i (Frobenius
      bounds; see _commutator_bound);
    * block_structure -- the coupling of F's M summands by the tuple;
    * power_identity -- compressed powers act summand-by-summand:
      (P_F T~ P_F)^k = sum_i P_{M_i} T~^k P_{M_i} on F for 1 <= |k| <= 3.

    The tuple is compressed to S once; F's compression is a slice of it.
    """
    if chain is None:
        chain = f_chain(sys)
    blocks = [list(chain.block_columns)] + [sum(summands, []) for summands in chain.F_summands]
    sets = [set(bs) for bs in blocks]
    chain_res = {f"containment_{idx}": r for idx, r in enumerate(chain.containment_residuals)}
    head = sets[0] - sets[1]
    tail = set(sys.blocks(["I"] * (sys.n - 2) + ["S", "S"]))
    gap_dims = [sum(map(sys.block_dim, bs)) for bs in (head, tail)]
    chain_res["head_gap_dim_match"] = float(abs(gap_dims[0] - gap_dims[1]))
    # two unions of orthogonal blocks are equal, or one misses a block of the other
    chain_res["head_gap_sine"] = float(head != tail) if gap_dims[0] == gap_dims[1] else math.inf
    semi = {f"gap_{idx}": _cross_norm(sys, small, big - small)
            for idx, (big, small) in enumerate(zip(sets, sets[1:]))}
    names = ["S"] + [f"F_{i + 1}" for i in range(len(chain.F_chain))]
    comm = {name: _commutator_bound(sys, L) for name, L in zip(names, sets)}
    # Block diagonality is a statement about the final F = M_1 (+) ... (+) M_n;
    # intermediate F_i summands carry full slots that the tuple may couple.
    # The coupled pairs of blocks form a partial permutation, so the whole
    # off-diagonal part has the norm of its largest block.
    Ms = [set(bs) for bs in chain.F_summands[-1]]
    off = max((_cross_norm(sys, p, q) for p, q in itertools.permutations(Ms, 2)), default=0.0)
    block = {"off_diagonal": off, "diagonal_sum": off}

    comp_S = _compressed_to_S(sys, chain)
    cols = chain.columns(blocks[-1])
    comp_F = OperatorTuple(tuple(C[np.ix_(cols, cols)] for C in comp_S.ops))

    # F's basis is the M_i bases side by side, so in F coordinates the right
    # side's block i is M_i^H T~^k M_i x_i.
    worst = 0.0
    rng = np.random.default_rng(seed)
    if chain.F.dim:
        edges = np.cumsum([0] + [M.dim for M in chain.M_summands])
        X = (rng.standard_normal((chain.F.dim, _POWER_SAMPLES))
             + 1j * rng.standard_normal((chain.F.dim, _POWER_SAMPLES)))
        X /= np.linalg.norm(X, axis=0)
        bases = [M.basis for M in chain.M_summands]
        slot_maps = [functools.partial(sys.apply, i) for i in range(sys.n)]
        per_summand = [_compressed_powers(slot_maps, M @ X[a:b])
                       for M, a, b in zip(bases, edges, edges[1:])]
        for lhs, *parts in zip(_compressed_powers(comp_F.ops, X), *per_summand):
            rhs = np.vstack([M.conj().T @ W for M, W in zip(bases, parts)])
            worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=0))))

    families = (_projection_identities(sys), chain_res, semi, comm, block,
                {"summandwise_powers": worst})
    return StructureReport(*({k: float(v) for k, v in fam.items()} for fam in families),
                           compressions=[comp_S, comp_F])


def coinvariant_eigenpairs(T, Q):
    """Eigenpairs of T^H restricted to a co-invariant subspace Q.

    Returns a list of (alpha, v, residual) with T^H v ~= conj(alpha) v and
    v in Q, sorted most reliable first: by residual, then by |alpha|, then
    lexicographically.  Residual is the ambient defect ||T^H v - conj(alpha) v||.
    """
    T = as_operator(T, dim=Q.ambient_dim)
    if Q.dim == 0:
        return []
    C = compress(T.conj().T, Q)
    evals, evecs = np.linalg.eig(C)
    items = []
    for mu, w in zip(evals, evecs.T):
        v = Q.basis @ w
        v = v / np.linalg.norm(v)
        resid = float(np.linalg.norm(T.conj().T @ v - mu * v))
        items.append((complex(np.conj(mu)), v, resid))
    items.sort(key=lambda it: (round(it[2], 12), abs(it[0]), it[0].real, it[0].imag))
    return items


@dataclass(eq=False)
class WanderingDecomposition:
    """The summands E_i = (S_i (-) T_i S_i) (x) (x)_{j != i} C v_j, in S's coordinates."""

    E: Subspace
    summands: list
    factor_wandering_dims: list
    eigen_data: list  # (alpha_i, v_i, residual_i) per factor
    shift_points: list  # per i, the tuple (alpha_1, .., 0 at i, .., alpha_n)
    alignment_residual: float


def wandering_E(sys, chain, comp_S):
    """Build the E summands in S's coordinates from factor wandering subspaces
    and adjoint eigenvectors.

    Each factor's ``eigenpair`` T_i^H v_i = conj(alpha_i) v_i with v_i in Q_i
    is used; EigenError is raised when there is none or its residual exceeds
    sys.tol.  E_i fills M_i's kind-block columns of S (``chain``) with the kron
    product of the factor's ``wandering`` coordinates at slot i and Q_j^H v_j
    at each other slot j.  Also computes, for every i and j, the residual of

        E_i^H T~_j M_i - lam^{(i)}_j E_i^H M_i = 0

    from M_i's block of ``comp_S``, the tuple compressed to S (the basis form of
    P_{E_i} (P_{M_i} T~_j P_{M_i} - lam^{(i)}_j P_{M_i}) = 0, as E_i lies in
    M_i), where lam^{(i)} has alpha_j off slot i and 0 at slot i.  These
    ``shift_points`` go into the report only; coranks use joint_spectrum.
    """
    eigens = []
    for i, f in enumerate(sys.factors):
        if f.eigenpair is None:
            raise EigenError(f"factor {i}: co-invariant subspace is zero, no eigenpair")
        if f.eigenpair[2] > sys.tol:
            raise EigenError(
                f"factor {i}: best eigen residual {f.eigenpair[2]:.3e} exceeds tolerance "
                f"{sys.tol:.1e}"
            )
        eigens.append(f.eigenpair)

    shift_points = [
        tuple(0.0 + 0.0j if j == i else eigens[j][0] for j in range(sys.n)) for i in range(sys.n)
    ]

    edges = np.cumsum([0] + [f.wandering.dim for f in sys.factors])
    E = np.zeros((chain.S.dim, edges[-1]), dtype=complex)
    align = 0.0
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if lo == hi:
            continue
        rows = chain.columns(["Q" * i + "S" + "Q" * (sys.n - i - 1)])
        X = _kron_chain([f.wandering.basis if j == i else (f.Q.basis.conj().T @ e[1])[:, None]
                         for j, (f, e) in enumerate(zip(sys.factors, eigens))])
        E[rows, lo:hi] = X
        X_h = X.conj().T
        for C, lam in zip(comp_S.ops, shift_points[i]):
            align = max(align, opnorm(X_h @ C[np.ix_(rows, rows)] - lam * X_h))

    return WanderingDecomposition(
        E=Subspace(E, tol=sys.tol, _checked=False),
        summands=[Subspace(E[:, lo:hi], tol=sys.tol, _checked=True)
                  for lo, hi in zip(edges, edges[1:])],
        factor_wandering_dims=[f.wandering.dim for f in sys.factors],
        eigen_data=eigens,
        shift_points=shift_points,
        alignment_residual=float(align),
    )
