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

Everything here is exact linear algebra on kron-structured bases: S is
computed once, as the orthogonal complement of the kron basis of
Q_1 (x) ... (x) Q_n.  T~_i acts by mode-i products (``TensorSystem.apply``)
and is never formed as an N x N matrix.  The embedded operators of
distinct slots doubly commute exactly, by the mixed-product property, so
that residual is recorded as 0.  The verification routine re-checks every
other claimed identity numerically and reports worst-case residuals: the
projection identities from per-slot norms, the rest from orthonormal bases
and compressions.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

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
    subspace_sine,
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
    whether it generates S.
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
    def _restriction(self):
        """T restricted to the invariant S, in S's coordinates: one compression
        for the wandering subspace and its gws test."""
        return OperatorTuple((self.T,)).compressed(self.S)

    @functools.cached_property
    def wandering(self):
        """S (-) T S; when it generates S, its dimension is the multiplicity of T on S."""
        return wandering_subspace(self._restriction, self.S)

    @functools.cached_property
    def wandering_generates(self):
        """Does the wandering subspace generate S under T?  Closed in S's coordinates."""
        G = self.S.basis.conj().T @ self.wandering.basis
        return krylov_closure(self._restriction, G, tol=self.S.tol).dim == self.S.dim


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

    def apply(self, i, V):
        """T~_i V for V of shape (N,) or (N, k), by a mode-i product: V reshaped to
        (m_1 .. m_{i-1}, m_i, rest) and one matmul, O(N k m_i) instead of O(N^2 k)."""
        W = self.factors[i].T @ V.reshape(self._lead[i], self.dims[i], -1)
        return W.reshape(V.shape)

    def compressed(self, space):
        """The tuple compressed to ``space``, in its basis coordinates, by slot products."""
        Bh = space.basis.conj().T
        return OperatorTuple(tuple(Bh @ self.apply(i, space.basis) for i in range(self.n)),
                             space=space)

    def joint_spectrum(self):
        """sigma(T_1) x ... x sigma(T_n): the joint eigenvalues of the embedded tuple."""
        return list(itertools.product(*(f.spectrum for f in self.factors)))

    def summand_subspace(self, kinds):
        """Subspace with slot content 'S', 'Q' or 'I' per factor, via kron bases."""
        if not set(kinds) <= {"S", "Q", "I"}:
            raise InputError(f"unknown slot kinds in {kinds!r}")
        cols = [f.S.basis if k == "S" else f.Q.basis if k == "Q"
                else np.eye(f.T.shape[0], dtype=complex) for f, k in zip(self.factors, kinds)]
        return Subspace(_kron_chain(cols), tol=self.tol, _checked=True)


def build_system(factors, tol=None):
    """Embed the factors into their tensor product as a doubly commuting tuple."""
    factors = tuple(factors)
    if not factors:
        raise InputError("a tensor system needs at least one factor")
    if tol is None:
        tol = min(f.tol for f in factors)
    dims = tuple(f.T.shape[0] for f in factors)
    return TensorSystem(factors=factors, dims=dims, N=math.prod(dims), tol=tol)


def joint_invariant_S(sys):
    """S = (Q_1 (x) ... (x) Q_n)-perp, the complement of the kron basis of the Q_i.

    A kron product of orthonormal bases is orthonormal, and by the
    mixed-product property its range is the range of Q~_1 ... Q~_n, so this
    is also ran(I - Q~_1 ... Q~_n); verify_compression_structure re-checks
    that S is the range of sum X_i.  The one step with N x N arrays, kept bit
    for bit (the shift lemma draws in this basis, and signed zeros steer SVDs).
    """
    big_Q = sys.summand_subspace(["Q"] * sys.n)
    return complement_within(Subspace.full(sys.N, tol=sys.tol), big_Q)


def _chain_slot_kinds(n, i, j):
    """Slot kinds of the j-th summand (1-based) of F_i, for i in 1..n-1."""
    kinds = ["I"] * n
    if j < n:
        p = min(j - 1, i - 1)
        for t in range(p):
            kinds[t] = "Q"
        kinds[j - 1] = "S"
        for t in range(j, n):
            kinds[t] = "Q"
    else:
        for t in range(i - 1):
            kinds[t] = "Q"
        kinds[n - 2] = "Q"
        kinds[n - 1] = "S"
    return kinds


@dataclass(eq=False)
class ChainDecomposition:
    """S with its nested family F_1 >= ... >= F_{n-1} = F and F's block summands."""

    S: Subspace
    x_ranks: list  # rank X_i = m_1 .. m_{i-1} dim S_i dim Q_{i+1} .. dim Q_n
    F_chain: list  # [F_1, ..., F_{n-1}]
    F: Subspace  # basis: the M_i bases side by side, in order
    M_summands: list  # block subspaces M_1, ..., M_n of F
    containment_residuals: list  # of S >= F_1, F_1 >= F_2, ..., in order


def f_chain(sys):
    """Build S, the ranks of the X projections, the nested F_i family, and F's summands.

    Each F_i is an orthogonal direct sum of n kron-structured summands, and
    its basis is their bases side by side, so a compression to F has the
    M_i blocks in order (verify_compression_structure reads them off); the
    containments S >= F_1 >= ... >= F_{n-1} are re-verified numerically.
    """
    if sys.n < 2:
        raise InputError("the subspace chain needs at least two tensor factors")
    S = joint_invariant_S(sys)
    x_ranks = [math.prod(sys.dims[:i]) * f.S.dim * math.prod(g.Q.dim for g in sys.factors[i + 1:])
               for i, f in enumerate(sys.factors)]
    chain = []
    for i in range(1, sys.n):
        summands = [sys.summand_subspace(_chain_slot_kinds(sys.n, i, j))
                    for j in range(1, sys.n + 1)]
        basis = np.hstack([sub.basis for sub in summands])
        F_i = Subspace(basis, tol=sys.tol, _checked=False)  # re-checks orthonormality
        chain.append((F_i, summands))
    spaces = [S] + [fi for fi, _ in chain]
    resids = [big.containment_residual(small) for big, small in zip(spaces, spaces[1:])]
    if max(resids) > max(sys.tol, 1e-12):
        raise InternalConsistencyError(f"chain containment fails (residual {max(resids):.3e})")
    F, M_summands = chain[-1]
    return ChainDecomposition(S=S, x_ranks=x_ranks, F_chain=spaces[1:], F=F,
                              M_summands=M_summands, containment_residuals=resids)


@dataclass
class StructureReport:
    """Worst-case residuals for the structural identities of a chain."""

    projection_identities: dict
    chain: dict
    semi_invariance: dict
    commutativity: dict
    block_structure: dict
    power_identity: dict
    # the tuple compressed to S, F_1, ..., F_{n-1}, for callers to reuse
    compressions: list = field(default_factory=list, repr=False, compare=False)

    def families(self):
        return {
            "projection_identities": self.projection_identities,
            "chain": self.chain,
            "semi_invariance": self.semi_invariance,
            "commutativity": self.commutativity,
            "block_structure": self.block_structure,
            "power_identity": self.power_identity,
        }

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


def _projection_identities(sys, S):
    """The projection identities from O(n) slot-matrix norms and one subspace sine.

    Slot s of X_i holds A = I, P_{S_i} or P_{Q_s} (kinds 'I', 'S', 'Q'), and
    ``prod[s]`` maps kind pairs to ||A_a A_b||_2.  ``orthogonal_ranges`` and
    ``sum_equals_PS`` equal the dense N x N residual norms in exact
    arithmetic; the other three are telescoping upper bounds of them.
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

    proj = {
        # I - Q~_1 .. Q~_n - sum X_i = sum_i I (x) .. (x) (I - P_{S_i} - P_{Q_i}) (x) Q~ ..
        "inclusion_exclusion": _telescope([1.0] * sys.n, split, norms(["Q"] * sys.n, ones)),
        "idempotent": max(_telescope(norms(ks, ks), [d[k] for d, k in zip(idem, ks)],
                                     norms(ks, ones)) for ks in kinds),
        "hermitian": max(_telescope(norms(ks, ones), [d[k] for d, k in zip(herm, ks)],
                                    norms(ks, ones)) for ks in kinds),
        # ||(x)_s A_s||_2 = prod_s ||A_s||_2, so this one is exact
        "orthogonal_ranges": max((math.prod(norms(kp, kq))
                                  for kp, kq in itertools.permutations(kinds, 2)), default=0.0),
    }
    K = Subspace(np.hstack([sys.summand_subspace(ks).basis for ks in kinds]), tol=sys.tol,
                 _checked=True)
    # ||sum X_i - P_S||_2 = ||P_K - P_S||_2, the two-sided sine
    proj["sum_equals_PS"] = max(subspace_sine(K, S), subspace_sine(S, K))
    return proj


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

    Families of residuals:

    * projection_identities -- the inclusion-exclusion expansion of P_S, the
      X_i being Hermitian idempotents with orthogonal ranges, sum X_i = P_S;
      from slot norms, so ``inclusion_exclusion``, ``idempotent`` and
      ``hermitian`` are upper bounds of the dense N x N residual norms
      (see _projection_identities);
    * chain -- containments S >= F_1 >= ..., as f_chain measured them, and
      the identity F_1 = S (-) ran(P~_{n-1} P~_n), by the sine of the
      largest angle;
    * semi_invariance -- each gap G_{i-1} (-) G_i (with G_0 = S) is invariant
      under the tuple compressed to the bigger space (small^H T~ G = 0 on
      the gap's basis G);
    * commutativity -- compressions to S and to each F_i pairwise commute;
    * block_structure -- compressions to F are block diagonal along the
      M summands;
    * power_identity -- compressed powers act summand-by-summand:
      (P_F T~ P_F)^k = sum_i P_{M_i} T~^k P_{M_i} on F for 1 <= |k| <= 3.

    The tuple acts by slot products and is compressed to S and each F_i once.
    """
    if chain is None:
        chain = f_chain(sys)
    proj = _projection_identities(sys, chain.S)
    slot_maps = [functools.partial(sys.apply, i) for i in range(sys.n)]

    spaces = [chain.S] + chain.F_chain
    pairs = list(zip(spaces, spaces[1:]))
    chain_res = {f"containment_{idx}": r for idx, r in enumerate(chain.containment_residuals)}
    gaps = [complement_within(big, small) for big, small in pairs]
    tail = sys.summand_subspace(["I"] * (sys.n - 2) + ["S", "S"])
    chain_res["head_gap_dim_match"] = float(abs(gaps[0].dim - tail.dim))
    chain_res["head_gap_sine"] = (
        subspace_sine(gaps[0], tail) if gaps[0].dim == tail.dim else float("inf")
    )

    # P_big - P_gap = P_small, so P_big T G - P_gap T G = P_small T G
    semi = {f"gap_{idx}": max(opnorm(small.basis.conj().T @ T(gap.basis)) for T in slot_maps)
            for idx, (small, gap) in enumerate(zip(spaces[1:], gaps))}

    comps = [sys.compressed(space) for space in spaces]
    names = ["S"] + [f"F_{i + 1}" for i in range(len(chain.F_chain))]
    comm = {
        name: max((opnorm(a @ b - b @ a) for a, b in itertools.combinations(cs.ops, 2)),
                  default=0.0)
        for name, cs in zip(names, comps)
    }

    # Block diagonality is a statement about the final F = M_1 (+) ... (+) M_n;
    # intermediate F_i summands carry full slots that the tuple may couple.
    # F's basis is the M_i bases side by side, so its M blocks are the
    # diagonal blocks of each compression to F, the chain's last space.
    comp_F = comps[-1].ops
    edges = np.cumsum([0] + [M.dim for M in chain.M_summands])
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    off_diagonal = diagonal_sum = 0.0
    for C in comp_F:
        off_diagonal = max(off_diagonal, max(
            opnorm(C[blocks[p], blocks[q]]) for p in range(sys.n) for q in range(sys.n) if p != q
        ))
        D = C.copy()
        for b in blocks:
            D[b, b] = 0.0
        diagonal_sum = max(diagonal_sum, opnorm(D))
    block = {"off_diagonal": off_diagonal, "diagonal_sum": diagonal_sum}

    # In F coordinates the right side's block i is M_i^H T~^k M_i x_i.
    worst = 0.0
    rng = np.random.default_rng(seed)
    if chain.F.dim:
        X = (rng.standard_normal((chain.F.dim, _POWER_SAMPLES))
             + 1j * rng.standard_normal((chain.F.dim, _POWER_SAMPLES)))
        X /= np.linalg.norm(X, axis=0)
        Ms = [M.basis for M in chain.M_summands]
        per_summand = [_compressed_powers(slot_maps, M @ X[b]) for M, b in zip(Ms, blocks)]
        for lhs, *parts in zip(_compressed_powers(comp_F, X), *per_summand):
            rhs = np.vstack([M.conj().T @ W for M, W in zip(Ms, parts)])
            worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=0))))
    power = {"summandwise_powers": worst}

    return StructureReport(
        projection_identities={k: float(v) for k, v in proj.items()},
        chain={k: float(v) for k, v in chain_res.items()},
        semi_invariance={k: float(v) for k, v in semi.items()},
        commutativity={k: float(v) for k, v in comm.items()},
        block_structure={k: float(v) for k, v in block.items()},
        power_identity={k: float(v) for k, v in power.items()},
        compressions=comps,
    )


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
    """The distinguished summands E_i = (S_i (-) T_i S_i) (x) (x)_{j != i} C v_j."""

    E: Subspace
    summands: list
    factor_wandering_dims: list
    eigen_data: list  # (alpha_i, v_i, residual_i) per factor
    shift_points: list  # per i, the tuple (alpha_1, .., 0 at i, .., alpha_n)
    alignment_residual: float


def wandering_E(sys):
    """Build the E summands from factor wandering subspaces and kernel eigenvectors.

    Each factor's ``eigenpair`` T_i^H v_i = conj(alpha_i) v_i with v_i in Q_i
    is used; EigenError is raised when there is none or its residual exceeds
    sys.tol.  S_i (-) T_i S_i is the factor's ``wandering`` subspace.  Also
    computes, for every i and j, the residual of

        E_i^H T~_j M_i - lam^{(i)}_j E_i^H M_i = 0

    on the bases of E_i and M_i (the basis form of
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

    summands = []
    for i in range(sys.n):
        cols = [sys.factors[i].wandering.basis if j == i else eigens[j][1].reshape(-1, 1)
                for j in range(sys.n)]
        summands.append(Subspace(_kron_chain(cols), ambient_dim=sys.N, tol=sys.tol,
                                 _checked=True))
    E = Subspace(np.hstack([s.basis for s in summands]), tol=sys.tol, _checked=False)

    shift_points = [
        tuple(0.0 + 0.0j if j == i else eigens[j][0] for j in range(sys.n)) for i in range(sys.n)
    ]

    align = 0.0
    for i in range(sys.n):
        kinds = ["Q"] * sys.n
        kinds[i] = "S"
        M_i = sys.summand_subspace(kinds).basis
        E_h = summands[i].basis.conj().T
        EM = E_h @ M_i
        for j, lam in enumerate(shift_points[i]):
            align = max(align, opnorm(E_h @ sys.apply(j, M_i) - lam * EM))

    return WanderingDecomposition(
        E=E,
        summands=summands,
        factor_wandering_dims=[f.wandering.dim for f in sys.factors],
        eigen_data=eigens,
        shift_points=shift_points,
        alignment_residual=float(align),
    )
