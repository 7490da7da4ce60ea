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

Everything here is exact linear algebra on kron-structured bases; the
verification routine re-checks each claimed identity numerically and reports
worst-case residuals.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EigenError, InputError, InternalConsistencyError, ModelError
from .multiplicity import OperatorTuple, _compressed_powers
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    as_operator,
    complement_within,
    compress,
    image,
    max_principal_angle,
    opnorm,
)


def _kron_chain(mats):
    out = np.ones((1, 1), dtype=complex)
    for M in mats:
        out = np.kron(out, M)
    return out


@dataclass(eq=False)
class TensorFactor:
    """One tensor slot: an operator with a checked adjoint-invariant subspace."""

    T: np.ndarray
    Q: Subspace
    S: Subspace
    label: str
    tol: float
    coinvariance_residual: float


def tensor_factor(T, Q, tol=DEFAULT_TOL, label=""):
    """Validate co-invariance of Q under T^H and package the factor.

    Raises ModelError when T^H Q reaches outside Q beyond tolerance.
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
    return TensorFactor(T=T, Q=Q, S=S, label=label or f"factor:{m}", tol=tol,
                        coinvariance_residual=float(resid))


@dataclass(eq=False)
class TensorSystem:
    """The embedded commuting tuple built from a list of factors."""

    factors: tuple
    dims: tuple
    N: int
    ops: tuple  # embedded operators T~_i
    P: tuple    # embedded projectors P~_i onto S_i in slot i
    Qp: tuple   # embedded projectors Q~_i = I - P~_i
    tol: float
    doubly_commuting_residual: float

    @property
    def n(self):
        return len(self.factors)

    def op_tuple(self):
        return OperatorTuple(self.ops)

    def slot_matrix(self, i, M):
        """Embed an m_i x m_i matrix into slot i of the tensor product."""
        mats = [np.eye(d, dtype=complex) for d in self.dims]
        mats[i] = as_operator(M, dim=self.dims[i])
        return _kron_chain(mats)

    def summand_subspace(self, kinds):
        """Subspace with slot content 'S', 'Q' or 'I' per factor, via kron bases."""
        cols = []
        for f, kind in zip(self.factors, kinds):
            if kind == "S":
                cols.append(f.S.basis)
            elif kind == "Q":
                cols.append(f.Q.basis)
            elif kind == "I":
                cols.append(np.eye(f.T.shape[0], dtype=complex))
            else:
                raise InputError(f"unknown slot kind {kind!r}")
        return Subspace(_kron_chain(cols), tol=self.tol, _checked=True)


def build_system(factors, tol=None):
    """Embed the factors into their tensor product and certify double commutation."""
    factors = tuple(factors)
    if not factors:
        raise InputError("a tensor system needs at least one factor")
    if tol is None:
        tol = min(f.tol for f in factors)
    dims = tuple(f.T.shape[0] for f in factors)
    N = int(np.prod(dims))
    ops, P, Qp = [], [], []
    for i, f in enumerate(factors):
        mats = [np.eye(d, dtype=complex) for d in dims]
        mats[i] = f.T
        ops.append(_kron_chain(mats))
        mats[i] = f.S.projector()
        P.append(_kron_chain(mats))
        mats[i] = f.Q.projector()
        Qp.append(_kron_chain(mats))
    resid = 0.0
    for p in range(len(factors)):
        for q in range(p + 1, len(factors)):
            resid = max(resid, opnorm(ops[p] @ ops[q] - ops[q] @ ops[p]))
            resid = max(resid, opnorm(ops[p].conj().T @ ops[q] - ops[q] @ ops[p].conj().T))
            resid = max(resid, opnorm(ops[q].conj().T @ ops[p] - ops[p] @ ops[q].conj().T))
    return TensorSystem(
        factors=factors,
        dims=dims,
        N=N,
        ops=tuple(ops),
        P=tuple(P),
        Qp=tuple(Qp),
        tol=tol,
        doubly_commuting_residual=float(resid),
    )


def joint_invariant_S(sys):
    """S = (Q_1 (x) ... (x) Q_n)-perp, computed two independent ways.

    Route one: spectral basis of the projector I - Q~_1 ... Q~_n.  Route two:
    orthogonal complement of the kron basis of Q_1 (x) ... (x) Q_n.  The two
    must agree within tolerance or InternalConsistencyError is raised.
    """
    N = sys.N
    prod = np.eye(N, dtype=complex)
    for Qt in sys.Qp:
        prod = prod @ Qt
    P_S = np.eye(N, dtype=complex) - prod
    w, V = np.linalg.eigh((P_S + P_S.conj().T) / 2)
    route_a = Subspace(V[:, w > 0.5], tol=sys.tol, _checked=True)

    big_Q = sys.summand_subspace(["Q"] * sys.n)
    route_b = complement_within(Subspace.full(N, tol=sys.tol), big_Q)

    if route_a.dim != route_b.dim:
        raise InternalConsistencyError(
            f"joint invariant subspace dimensions disagree: {route_a.dim} vs {route_b.dim}"
        )
    angle = max_principal_angle(route_a, route_b)
    if angle > max(sys.tol, 1e-12):
        raise InternalConsistencyError(
            f"joint invariant subspace routes disagree (principal angle {angle:.3e})"
        )
    return route_b


def x_projections(sys):
    """X_i = P~_i Q~_{i+1} ... Q~_n: commuting projections with orthogonal ranges."""
    out = []
    for i in range(sys.n):
        X = sys.P[i].copy()
        for t in range(i + 1, sys.n):
            X = X @ sys.Qp[t]
        out.append(X)
    return out


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
    X: list
    F_chain: list  # [F_1, ..., F_{n-1}]
    F: Subspace
    M_summands: list  # block subspaces M_1, ..., M_n of F


def f_chain(sys):
    """Build S, the X projections, the nested F_i family, and F's summands.

    Each F_i is an orthogonal direct sum of n kron-structured summands; the
    containments S >= F_1 >= ... >= F_{n-1} are re-verified numerically.
    """
    if sys.n < 2:
        raise InputError("the subspace chain needs at least two tensor factors")
    S = joint_invariant_S(sys)
    X = x_projections(sys)
    chain = []
    for i in range(1, sys.n):
        summands = [sys.summand_subspace(_chain_slot_kinds(sys.n, i, j))
                    for j in range(1, sys.n + 1)]
        basis = np.hstack([sub.basis for sub in summands])
        F_i = Subspace(basis, tol=sys.tol, _checked=False)  # re-checks orthonormality
        chain.append((F_i, summands))
    spaces = [S] + [fi for fi, _ in chain]
    for big, small in zip(spaces, spaces[1:]):
        resid = big.containment_residual(small)
        if resid > max(sys.tol, 1e-12):
            raise InternalConsistencyError(
                f"chain containment fails (residual {resid:.3e})"
            )
    F, M_summands = chain[-1]
    return ChainDecomposition(S=S, X=X, F_chain=[fi for fi, _ in chain], F=F,
                              M_summands=M_summands)


@dataclass
class StructureReport:
    """Worst-case residuals for the structural identities of a chain."""

    projection_identities: dict
    chain: dict
    semi_invariance: dict
    commutativity: dict
    block_structure: dict
    power_identity: dict

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


def verify_compression_structure(sys, chain=None, seed=42, max_degree=3, samples=4):
    """Numerically re-check every structural identity behind the chain.

    Families of residuals:

    * projection_identities -- the inclusion-exclusion expansion of P_S, the
      X_i being Hermitian idempotents with orthogonal ranges, sum X_i = P_S;
    * chain -- containments S >= F_1 >= ... and the identity
      F_1 = S (-) ran(P~_{n-1} P~_n);
    * semi_invariance -- each gap G_{i-1} (-) G_i (with G_0 = S) is invariant
      under the tuple compressed to the bigger space;
    * commutativity -- compressions to S and to each F_i pairwise commute;
    * block_structure -- compressions to F are block diagonal along the
      M summands;
    * power_identity -- compressed powers act summand-by-summand:
      (P_F T~ P_F)^k = sum_i P_{M_i} T~^k P_{M_i} on F for 1 <= |k| <= 3.
    """
    if chain is None:
        chain = f_chain(sys)
    N = sys.N
    eye = np.eye(N, dtype=complex)

    proj = {}
    prod = eye.copy()
    for Qt in sys.Qp:
        prod = prod @ Qt
    sumX = sum(chain.X)
    P_S = chain.S.projector()
    proj["inclusion_exclusion"] = opnorm((eye - prod) - sumX)
    proj["sum_equals_PS"] = opnorm(sumX - P_S)
    proj["idempotent"] = max(opnorm(X @ X - X) for X in chain.X)
    proj["hermitian"] = max(opnorm(X - X.conj().T) for X in chain.X)
    proj["orthogonal_ranges"] = max(
        (opnorm(chain.X[p] @ chain.X[q]) for p in range(sys.n) for q in range(sys.n) if p != q),
        default=0.0,
    )

    chain_res = {}
    spaces = [chain.S] + chain.F_chain
    for idx, (big, small) in enumerate(zip(spaces, spaces[1:])):
        chain_res[f"containment_{idx}"] = big.containment_residual(small)
    head_gap = complement_within(chain.S, chain.F_chain[0])
    tail_kinds = ["I"] * sys.n
    tail_kinds[sys.n - 2] = "S"
    tail_kinds[sys.n - 1] = "S"
    tail = sys.summand_subspace(tail_kinds)
    chain_res["head_gap_dim_match"] = float(abs(head_gap.dim - tail.dim))
    chain_res["head_gap_angle"] = (
        max_principal_angle(head_gap, tail) if head_gap.dim == tail.dim else float("inf")
    )

    semi = {}
    for idx, (big, small) in enumerate(zip(spaces, spaces[1:])):
        gap = complement_within(big, small)
        if gap.dim == 0:
            semi[f"gap_{idx}"] = 0.0
            continue
        P_big = big.projector()
        P_gap = gap.projector()
        semi[f"gap_{idx}"] = max(
            opnorm(P_big @ T @ gap.basis - P_gap @ T @ gap.basis) for T in sys.ops
        )

    comm = {}
    for name, space in [("S", chain.S)] + [
        (f"F_{i + 1}", Fi) for i, Fi in enumerate(chain.F_chain)
    ]:
        comps = [compress(T, space) for T in sys.ops]
        comm[name] = max(
            (opnorm(a @ b - b @ a) for a, b in itertools.combinations(comps, 2)),
            default=0.0,
        )

    # Block diagonality is a statement about the final F = M_1 (+) ... (+) M_n;
    # intermediate F_i summands carry full slots that the tuple may couple.
    block = {}
    P_F = chain.F.projector()
    M_projs = [M.projector() for M in chain.M_summands]
    cross = 0.0
    for p in range(sys.n):
        for q in range(sys.n):
            if p == q:
                continue
            cross = max(cross, max(opnorm(M_projs[p] @ T @ M_projs[q]) for T in sys.ops))
    block["off_diagonal"] = cross
    block["diagonal_sum"] = max(
        opnorm(P_F @ T @ P_F - sum(Pm @ T @ Pm for Pm in M_projs)) for T in sys.ops
    )

    power = {}
    rng = np.random.default_rng(seed)
    if chain.F.dim:
        V = chain.F.basis @ (
            rng.standard_normal((chain.F.dim, samples))
            + 1j * rng.standard_normal((chain.F.dim, samples))
        )
        V /= np.linalg.norm(V, axis=0)
        comp_ops = [P_F @ T @ P_F for T in sys.ops]
        worst = 0.0
        for lhs, mono in _compressed_powers(comp_ops, sys.ops, max_degree):
            rhs = sum(Pm @ mono @ Pm for Pm in M_projs)
            worst = max(worst, float(np.max(np.linalg.norm(lhs @ V - rhs @ V, axis=0))))
        power["summandwise_powers"] = worst
    else:
        power["summandwise_powers"] = 0.0

    return StructureReport(
        projection_identities={k: float(v) for k, v in proj.items()},
        chain={k: float(v) for k, v in chain_res.items()},
        semi_invariance={k: float(v) for k, v in semi.items()},
        commutativity={k: float(v) for k, v in comm.items()},
        block_structure={k: float(v) for k, v in block.items()},
        power_identity={k: float(v) for k, v in power.items()},
    )


def coinvariant_eigenpairs(T, Q, tol=DEFAULT_TOL):
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


def wandering_E(sys, eigen_choices=None, tol=None):
    """Build the E summands from factor wandering subspaces and kernel eigenvectors.

    For each factor an eigenpair T_i^H v_i = conj(alpha_i) v_i with v_i in Q_i
    is required; by default the most stable one from coinvariant_eigenpairs is
    used.  Supplying ``eigen_choices`` as a list of (alpha, v) overrides the
    default.  EigenError is raised when the best available residual exceeds
    tolerance.  Also computes, for every i and j, the residual of

        P_{E_i} (P_{M_i} T~_j P_{M_i} - lam^{(i)}_j P_{M_i}) = 0,

    where lam^{(i)} has alpha_j off slot i and 0 at slot i.
    """
    if tol is None:
        tol = sys.tol
    eigens = []
    for i, f in enumerate(sys.factors):
        if eigen_choices is not None and eigen_choices[i] is not None:
            alpha, v = eigen_choices[i]
            alpha = complex(alpha)
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.shape[0] != f.T.shape[0]:
                raise InputError(f"eigenvector for factor {i} has the wrong dimension")
            nrm = np.linalg.norm(v)
            if nrm == 0:
                raise InputError(f"eigenvector for factor {i} is zero")
            v = v / nrm
            in_Q = float(np.linalg.norm(v - f.Q.project(v)))
            resid = float(np.linalg.norm(f.T.conj().T @ v - np.conj(alpha) * v))
            if in_Q > tol:
                raise EigenError(
                    f"factor {i}: eigenvector lies outside Q (residual {in_Q:.3e})"
                )
        else:
            pairs = coinvariant_eigenpairs(f.T, f.Q, tol=tol)
            if not pairs:
                raise EigenError(f"factor {i}: co-invariant subspace is zero, no eigenpair")
            alpha, v, resid = pairs[0]
        if resid > tol:
            raise EigenError(
                f"factor {i}: best eigen residual {resid:.3e} exceeds tolerance {tol:.1e}"
            )
        eigens.append((alpha, v, resid))

    wanderers = []
    for f in sys.factors:
        TS = image(f.T, f.S, tol=sys.tol)
        wanderers.append(complement_within(f.S, TS))

    summands = []
    for i in range(sys.n):
        cols = [wanderers[i].basis if j == i else eigens[j][1].reshape(-1, 1)
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
        M_i = sys.summand_subspace(kinds)
        P_M = M_i.projector()
        P_E = summands[i].projector()
        for j, lam in enumerate(shift_points[i]):
            align = max(align, opnorm(P_E @ (P_M @ sys.ops[j] @ P_M - lam * P_M)))

    return WanderingDecomposition(
        E=E,
        summands=summands,
        factor_wandering_dims=[w.dim for w in wanderers],
        eigen_data=eigens,
        shift_points=shift_points,
        alignment_residual=float(align),
    )
