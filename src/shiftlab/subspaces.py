"""Orthonormal-basis arithmetic for subspaces of complex coordinate space.

A subspace of C^N is carried around as an N x k matrix with orthonormal
columns.  Every rank decision in the package funnels through one rule,
``numerical_rank``: after a singular value decomposition, a direction
survives when its singular value exceeds ``tol * max(1, sigma_max)``.  The
zero subspace (k = 0), also of the zero space (N = 0), is a first-class
value, so downstream code never special-cases empty bases.

Every SVD goes through ``_svd``, which survives LAPACK non-convergence, and every
stack of SVDs through ``_svds``, which falls back to ``_svd`` matrix by matrix.

Krylov closures grow a basis B block by block and apply that rule to the
residual of the newest block's images after projecting them against B twice.
Each rank decision has a margin, ``rank_margin``: how many times the nearest
singular value on either side lies from the cutoff; a closure carries the
smallest of its own.
Subspaces of equal dimension are compared by ``subspace_sine``,
``||B - A(A^H B)||_2``, the sine of their largest principal angle; they are
equal when it is at most ``sin(tol)``.
"""

import math

import numpy as np

from .errors import ContainmentError, InputError

DEFAULT_TOL = 1e-10


def as_operator(A, dim=None):
    """Validate a square complex matrix and return it as a complex ndarray."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("operator has non-finite entries")
    if dim is not None and A.shape[0] != dim:
        raise InputError(f"expected a {dim} x {dim} matrix, got {A.shape[0]} x {A.shape[1]}")
    return A


def as_columns(vectors, ambient_dim=None):
    """Stack a vector sequence (or pass through a 2-d array) as matrix columns."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        M = np.asarray(vectors, dtype=complex)
    else:
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not cols:
            if ambient_dim is None:
                raise InputError("cannot infer ambient dimension from an empty vector list")
            return np.zeros((ambient_dim, 0), dtype=complex)
        M = np.column_stack(cols)
    if not np.all(np.isfinite(M)):
        raise InputError("vectors have non-finite entries")
    if ambient_dim is not None and M.shape[0] != ambient_dim:
        raise InputError(f"vectors live in C^{M.shape[0]}, expected C^{ambient_dim}")
    return M


class Subspace:
    """A subspace of C^N, stored as an orthonormal column basis.

    Attributes
    ----------
    basis : (N, k) complex ndarray with orthonormal columns
    ambient_dim : N
    tol : the rank/containment tolerance this subspace was built with
    margin : the smallest ``rank_margin`` of the rank decisions that built the
        basis (``orthonormalize``'s or a Krylov closure's); None otherwise
    """

    def __init__(self, basis, ambient_dim=None, tol=DEFAULT_TOL, _checked=False, margin=None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.size == 0:
            n = ambient_dim if ambient_dim is not None else basis.shape[0]
            if n < 0:
                raise InputError("zero subspace needs a non-negative ambient dimension")
            basis = np.zeros((n, 0), dtype=complex)
        if ambient_dim is not None and basis.shape[0] != ambient_dim:
            raise InputError(f"basis lives in C^{basis.shape[0]}, expected C^{ambient_dim}")
        if not np.all(np.isfinite(basis)):
            raise InputError("basis has non-finite entries")
        if not _checked and basis.shape[1] > 0:
            gram = basis.conj().T @ basis
            defect = np.abs(gram - np.eye(basis.shape[1])).max()
            if defect > 10 * tol:
                raise InputError(f"basis columns are not orthonormal (defect {defect:.3e})")
        self.basis = basis
        self.ambient_dim = basis.shape[0]
        self.tol = tol
        self.margin = margin

    @classmethod
    def full(cls, ambient_dim, tol=DEFAULT_TOL):
        return cls(np.eye(ambient_dim, dtype=complex), tol=tol, _checked=True)

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """The orthogonal projection onto this subspace, as an N x N matrix."""
        return self.basis @ self.basis.conj().T

    def containment_residual(self, other):
        """Worst residual norm of ``other``'s basis vectors outside ``self``."""
        if other.dim == 0:
            return 0.0
        R = other.basis - self.basis @ (self.basis.conj().T @ other.basis)
        return float(np.linalg.norm(R, axis=0).max())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def numerical_rank(s, tol):
    """How many of the descending singular values ``s`` exceed ``tol * max(1, s[0])``.

    A value exactly at the cutoff counts as zero; an empty ``s`` has rank 0.
    Raises InputError unless ``0 < tol < inf``: no other tolerance cuts.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"rank tolerance must be positive and finite, got {tol!r}")
    if len(s) == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def rank_margin(s, rank, tol):
    """How far the split of the descending singular values ``s`` at ``rank``
    sits from the cutoff ``cut = tol * max(1, s[0])``: the smaller of
    ``kept / cut`` (the smallest kept value) and ``cut / dropped`` (the largest
    dropped one), an empty side counting as inf.

    A value just above or just below the cutoff gives a margin near 1 however
    far the other side is, and a value exactly at it (dropped) gives 1.
    Dropping only exact zeros, or an empty ``s``, which decides nothing, gives
    inf.
    """
    if len(s) == 0:
        return math.inf
    cut = tol * max(1.0, float(s[0]))
    kept = float(s[rank - 1]) / cut if rank > 0 else math.inf
    dropped = float(s[rank]) if rank < len(s) else 0.0
    return min(kept, cut / dropped if dropped > 0 else math.inf)


def _svd(M, full_matrices=False, compute_uv=True):
    """``np.linalg.svd``, retried if it does not converge as M = QR (M^H = QR
    when M is wide) and the SVD of R = U s Vh: M = (QU) s Vh, the complete Q
    supplying the remaining left singular vectors for ``full_matrices``."""
    try:
        return np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    wide = M.shape[0] < M.shape[1]
    Q, R = np.linalg.qr(M.conj().T if wide else M, mode="complete" if full_matrices else "reduced")
    n = R.shape[1]
    if not compute_uv:
        return np.linalg.svd(R[:n], compute_uv=False)
    U, s, Vh = np.linalg.svd(R[:n])
    U = np.hstack([Q[:, :n] @ U, Q[:, n:]])
    return (Vh.conj().T, s, U.conj().T) if wide else (U, s, Vh)


def _svds(mats, compute_uv=True, full_matrices=False):
    """``_svd`` of each same-shape matrix in one stacked ``np.linalg.svd``, or if LAPACK
    does not converge one ``_svd`` each, which retries: (U, s, Vh) per matrix, or the
    stacked singular values."""
    mats = np.asarray(mats, dtype=complex)
    try:
        out = np.linalg.svd(mats, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = [_svd(M, full_matrices, compute_uv) for M in mats]
        return out if compute_uv else np.array(out)
    return list(zip(*out)) if compute_uv else out


def orthonormalize(vectors, tol=DEFAULT_TOL, ambient_dim=None):
    """Rank-revealing orthonormalization of a spanning set.

    ``numerical_rank`` decides how many left singular vectors survive; they
    get one re-orthogonalization pass before they are returned as the basis,
    whose ``margin`` is that decision's ``rank_margin``.
    """
    M = as_columns(vectors, ambient_dim)
    B = np.zeros((M.shape[0], 0), dtype=complex)
    s = np.zeros(0)
    if M.shape[1]:
        U, s, _ = _svd(M)
        rank = numerical_rank(s, tol)
        if rank:
            B, _ = np.linalg.qr(U[:, :rank])
    return Subspace(B, tol=tol, _checked=True, margin=rank_margin(s, B.shape[1], tol))


def complement_within(ambient, sub):
    """The orthogonal complement of ``sub`` inside ``ambient``, at ``ambient.tol``.

    Raises ContainmentError (carrying the max residual) if ``sub`` is not
    contained in ``ambient`` within tolerance.
    """
    if ambient.ambient_dim != sub.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    tol = ambient.tol
    resid = ambient.containment_residual(sub)
    if resid > tol:
        raise ContainmentError(
            f"subspace of dim {sub.dim} is not contained in ambient of dim "
            f"{ambient.dim} (max residual {resid:.3e})",
            residual=resid,
        )
    if sub.dim == 0:
        return Subspace(ambient.basis.copy(), tol=tol, _checked=True)
    coords = ambient.basis.conj().T @ sub.basis
    U, _, _ = _svd(coords, full_matrices=True)
    B = ambient.basis @ U[:, sub.dim:]
    return Subspace(B, tol=tol, _checked=True)


def compress(T, s):
    """The compression P_s T|_s of an operator to a subspace, in basis coordinates."""
    T = as_operator(T, dim=s.ambient_dim)
    return s.basis.conj().T @ T @ s.basis


def subspace_sine(a, b):
    """||B - A(A^H B)||_2: for subspaces of equal dimension, the sine of their
    largest principal angle."""
    return opnorm(b.basis - a.basis @ (a.basis.conj().T @ b.basis))


def same_subspace(a, b, tol=None):
    """Same dimension and ``subspace_sine`` at most sin(tol); two zero or two
    full subspaces are equal outright."""
    if tol is None:
        tol = min(a.tol, b.tol)
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    if a.dim == a.ambient_dim:
        return True
    return subspace_sine(a, b) <= np.sin(tol)


def opnorm(A):
    """Spectral (operator 2-) norm."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(_svd(A, compute_uv=False)[0])
