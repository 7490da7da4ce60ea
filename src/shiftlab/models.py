"""Finite shift models on function-space-flavored bases.

Two families are supported:

* ``ShiftModel`` -- the truncation of a weighted unilateral shift to the
  first ``m`` basis vectors.  The weight sequence is determined by a space
  kind (Hardy, Bergman, Dirichlet, weighted Bergman of integer order, or a
  custom positive weight list).  The truncated operator drops the top weight,
  so it is nilpotent by construction.
* ``QuotientModel`` -- multiplication by z on C[z]/(p) for a monic
  polynomial p with prescribed roots inside the unit disc, written in the
  monomial basis with the monomial-orthonormal inner product (a companion
  matrix).  Ideals (q)/(p) for divisors q of p give invariant subspaces
  whose members vanish at the roots of q.

Matrices cross the process boundary as JSON with complex entries encoded as
``[re, im]`` pairs, row-major.
"""

import cmath
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .subspaces import DEFAULT_TOL, Subspace, orthonormalize

_KINDS = ("hardy", "bergman", "dirichlet", "weighted_bergman", "custom")


@dataclass(frozen=True)
class SpaceKind:
    """Which weight sequence a shift model uses."""

    name: str
    alpha: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name not in _KINDS:
            raise InputError(f"unknown space kind {self.name!r}")
        if self.name == "weighted_bergman":
            if (
                not isinstance(self.alpha, (int, float))
                or isinstance(self.alpha, bool)
                or not math.isfinite(self.alpha)
                or self.alpha <= 0
            ):
                raise InputError("weighted_bergman needs a finite order alpha > 0")
        if self.name == "custom":
            if not self.weights:
                raise InputError("custom kind needs a non-empty weight tuple")
            if any((not math.isfinite(w)) or w <= 0 for w in self.weights):
                raise InputError("custom weights must be finite and positive")

    @classmethod
    def hardy(cls):
        return cls("hardy")

    @classmethod
    def bergman(cls):
        return cls("bergman")

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def weighted_bergman(cls, alpha):
        return cls("weighted_bergman", alpha=float(alpha))

    @classmethod
    def custom(cls, weights):
        return cls("custom", weights=tuple(float(w) for w in weights))

    def label(self):
        if self.name == "weighted_bergman":
            return f"weighted_bergman({self.alpha:g})"
        return self.name


def shift_weights(kind, m):
    """The first m-1 shift weights w_0 .. w_{m-2} for a space kind.

    Hardy has w_k = 1, Bergman w_k = sqrt((k+1)/(k+2)), Dirichlet
    w_k = sqrt((k+2)/(k+1)).  Weighted Bergman of order alpha takes its
    weights from the Taylor coefficients c_k = C(k+alpha-1, k) of the kernel
    (1-x)^(-alpha): w_k = sqrt(c_k / c_{k+1}); alpha = 1 and 2 reproduce
    Hardy and Bergman.
    """
    if not isinstance(m, int) or m < 1:
        raise InputError(f"model dimension must be a positive integer, got {m!r}")
    k = np.arange(m - 1, dtype=float)
    if kind.name == "hardy":
        return np.ones(m - 1)
    if kind.name == "bergman":
        return np.sqrt((k + 1) / (k + 2))
    if kind.name == "dirichlet":
        return np.sqrt((k + 2) / (k + 1))
    if kind.name == "weighted_bergman":
        # kernel coefficients c_k = C(k + alpha - 1, k) give
        # c_k / c_{k+1} = (k + 1) / (k + alpha), valid for any real alpha > 0
        return np.sqrt((k + 1) / (k + kind.alpha))
    if kind.name == "custom":
        if len(kind.weights) != m - 1:
            raise InputError(
                f"custom kind has {len(kind.weights)} weights, model of dimension {m} needs {m - 1}"
            )
        return np.array(kind.weights, dtype=float)
    raise InputError(f"unknown space kind {kind.name!r}")


@dataclass(eq=False)
class ShiftModel:
    """Truncated weighted shift: T e_k = w_k e_{k+1}, T e_{m-1} = 0."""

    kind: SpaceKind
    m: int
    weights: np.ndarray
    operator: np.ndarray

    def label(self):
        return f"{self.kind.label()}:{self.m}"


def make_shift(kind, m):
    """Build the m-dimensional truncation of the weighted shift of a space kind."""
    w = shift_weights(kind, m)
    T = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        T[j + 1, j] = w[j]
    return ShiftModel(kind=kind, m=m, weights=w, operator=T)


def prefix_coinvariant(model, k):
    """The span of e_0 .. e_{k-1}; for a shift model this is adjoint-invariant."""
    m = model if isinstance(model, int) else model.m
    if not isinstance(k, int) or not 0 < k < m:
        raise InputError(f"prefix length must satisfy 0 < k < {m}, got {k!r}")
    return Subspace(np.eye(m, dtype=complex)[:, :k], tol=DEFAULT_TOL, _checked=True)


def kernel_vector(model, lam, tol=DEFAULT_TOL):
    """Unit reproducing-kernel-style vector at a point of the open unit disc.

    For a shift model the coefficients follow the adjoint eigenvector
    recursion v_{k+1} = conj(lam) v_k / w_k; truncation leaves a defect
    ``|| (T^H - conj(lam) I) v ||`` which is returned alongside the vector.
    For a quotient model the vector has monomial coefficients conj(lam)^k,
    and the defect vanishes when lam is a root of p.
    """
    lam = complex(lam)
    if abs(lam) >= 1:
        raise InputError(f"kernel point must lie in the open unit disc, got |lam| = {abs(lam):.4f}")
    if isinstance(model, QuotientModel):
        v = np.conj(lam) ** np.arange(model.m)
    elif isinstance(model, ShiftModel):
        v = np.ones(model.m, dtype=complex)
        for j in range(model.m - 1):
            v[j + 1] = np.conj(lam) * v[j] / model.weights[j]
    else:
        raise InputError(f"unsupported model type {type(model).__name__}")
    v = v / np.linalg.norm(v)
    defect = float(np.linalg.norm(model.operator.conj().T @ v - np.conj(lam) * v))
    return v, defect


def _root_value(x):
    """A number or an [re, im] pair of reals as a complex value; None otherwise."""
    if isinstance(x, numbers.Number) and not isinstance(x, bool):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in x
    ):
        return complex(x[0], x[1])
    return None


def parse_roots(obj):
    """Read a root list into (complex value, multiplicity) pairs.

    Each entry is a number (complex included), an [re, im] pair of reals, or
    [value, mult] with value a number or an [re, im] pair and mult an integer
    >= 1.  A pair of two reals is always a complex value, never a value with
    a multiplicity.  The library and the JSON scenario format both read roots
    through this function.
    """
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InputError(f"expected a non-empty list of roots, got {obj!r}")
    out = []
    for entry in obj:
        lam, mult = _root_value(entry), 1
        if lam is None and isinstance(entry, (list, tuple)) and len(entry) == 2:
            lam, mult = _root_value(entry[0]), entry[1]
        if lam is None or not isinstance(mult, numbers.Integral) or isinstance(mult, bool):
            raise InputError(
                f"cannot parse root entry {entry!r}: use a number, [re, im], or [value, mult]"
            )
        if mult < 1:
            raise InputError(f"root multiplicity must be >= 1, got {mult}")
        out.append((lam, int(mult)))
    return out


@dataclass(eq=False)
class QuotientModel:
    """Multiplication by z on C[z]/(p), monomial basis, companion-matrix form."""

    roots: tuple
    m: int
    coefficients: np.ndarray  # monic p, lowest degree first, length m + 1
    operator: np.ndarray

    def label(self):
        pts = ",".join(f"{lam:g}^{mult}" if mult > 1 else f"{lam:g}" for lam, mult in self.roots)
        return f"quotient[{pts}]"


def _poly_from_roots(roots_with_mult):
    flat = []
    for lam, mult in roots_with_mult:
        flat.extend([lam] * mult)
    # np.poly gives monic coefficients, highest degree first
    coeffs_high_first = np.atleast_1d(np.poly(np.array(flat, dtype=complex)))
    return coeffs_high_first[::-1].astype(complex)  # lowest degree first


def make_quotient(p_roots):
    """Build the quotient model for p(z) = prod (z - lam_j)^{mult_j}, |lam_j| < 1.

    ``p_roots`` is a root list in the forms ``parse_roots`` reads.
    """
    roots = parse_roots(p_roots)
    for lam, _ in roots:
        if abs(lam) >= 1:
            raise InputError(f"quotient roots must lie in the open unit disc, got |{lam}| >= 1; an "
                             "[re, im] entry is one complex root, and [[re, im], mult] a repeated one")
    m = sum(mult for _, mult in roots)
    coeffs = _poly_from_roots(roots)  # length m + 1, coeffs[m] == 1
    T = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        T[j + 1, j] = 1.0
    T[:, m - 1] -= coeffs[:m]
    return QuotientModel(roots=tuple(roots), m=m, coefficients=coeffs, operator=T)


def _match_roots(p_roots, q_roots, match_tol=1e-9):
    """q's roots as the roots of p they match: each the nearest root of p within
    ``match_tol`` that has the multiplicity left; InputError if none has."""
    remaining = [[lam, mult] for lam, mult in p_roots]
    matched = []
    for lam, mult in q_roots:
        near = [slot for slot in remaining if abs(slot[0] - lam) <= match_tol and slot[1] >= mult]
        if not near:
            raise InputError(f"root {lam} (multiplicity {mult}) does not divide p")
        hit = min(near, key=lambda slot: abs(slot[0] - lam))
        hit[1] -= mult
        matched.append((hit[0], mult))
    return matched


def ideal_subspace(model, q_roots, tol=DEFAULT_TOL):
    """The ideal (q)/(p) inside a quotient model, as a subspace.

    q is given by its roots in the forms ``parse_roots`` reads; they must
    form a proper sub-multiset of p's, each within 1e-9 of its root of p, which
    q takes so that it divides p exactly.
    The basis consists of the coefficient vectors of q(z) z^j for
    j = 0 .. deg(p) - deg(q) - 1; the resulting subspace is exactly
    invariant under the companion operator and its members vanish at the
    roots of q.
    """
    if not isinstance(model, QuotientModel):
        raise InputError("ideal_subspace needs a QuotientModel")
    q = parse_roots(q_roots)
    deg_q = sum(mult for _, mult in q)
    if deg_q >= model.m:
        raise InputError("q must be a proper divisor of p")
    q_coeffs = _poly_from_roots(_match_roots(model.roots, q))  # length deg_q + 1, q | p
    cols = []
    for j in range(model.m - deg_q):
        col = np.zeros(model.m, dtype=complex)
        col[j:j + deg_q + 1] = q_coeffs
        cols.append(col)
    return orthonormalize(cols, tol=tol, ambient_dim=model.m)


# ---------------------------------------------------------------------------
# JSON interchange: complex scalars as [re, im] pairs, matrices row-major.
# ---------------------------------------------------------------------------

def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(obj):
    """A finite real number or [re, im] pair as a complex; booleans are not numbers."""
    if not _is_scalar_entry(obj):
        raise InputError(f"expected a real number or an [re, im] pair, got {obj!r}")
    z = complex(*obj) if isinstance(obj, (list, tuple)) else complex(obj)
    if not cmath.isfinite(z):
        raise InputError(f"matrix entry {obj!r} is not finite")
    return z


def _is_scalar_entry(x):
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, float)):
        return True
    return (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    )


def matrix_to_json(A):
    """Encode a complex matrix as {rows, cols, entries} with row-major [re, im] pairs."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {A.ndim}")
    return {
        "rows": A.shape[0],
        "cols": A.shape[1],
        "entries": [complex_to_pair(z) for z in A.reshape(-1)],
    }


def matrix_from_json(obj):
    """Decode a matrix from the interchange dict (or a plain nested list)."""
    if isinstance(obj, list):
        rows = [[pair_to_complex(z) for z in row] for row in obj]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise InputError("nested matrix rows have inconsistent lengths")
        return np.array(rows, dtype=complex)
    if not isinstance(obj, dict):
        raise InputError(f"cannot decode a matrix from {type(obj).__name__}")
    if "dim" in obj and "rows" not in obj:
        r = c = obj["dim"]
    else:
        try:
            r, c = obj["rows"], obj["cols"]
        except KeyError as exc:
            raise InputError(f"matrix object is missing key {exc}") from exc
    entries = obj.get("entries")
    if entries is None:
        raise InputError("matrix object is missing 'entries'")
    if all(_is_scalar_entry(e) for e in entries):
        flat = entries
    elif len(entries) == r and all(isinstance(row, list) and len(row) == c for row in entries):
        flat = [z for row in entries for z in row]
    else:
        raise InputError("matrix entries are neither a flat [re, im] list nor nested rows")
    if len(flat) != r * c:
        raise InputError(f"matrix claims {r} x {c} = {r * c} entries, found {len(flat)}")
    data = np.array([pair_to_complex(z) for z in flat], dtype=complex)
    return data.reshape(r, c)


def load_matrix(path):
    """Read a matrix file written by ``dump_matrix``; InputError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_json(obj)


def dump_matrix(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(A), fh, indent=2)
        fh.write("\n")
