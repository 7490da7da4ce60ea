"""Orthonormal-basis arithmetic for subspaces of complex coordinate space.

A subspace of C^N is carried around as an N x k matrix with orthonormal
columns.  Every rank decision in the package funnels through one rule,
``numerical_rank``: after a singular value decomposition, a direction
survives when its singular value exceeds ``tol * max(1, sigma_max)``.  The
zero subspace (k = 0) is a first-class value, so downstream code never
special-cases empty bases.

Krylov closures grow a basis B block by block and apply that rule to the
residual of the newest block's images after projecting them against B twice.
Subspaces of equal dimension are equal when ``||B - A(A^H B)||_2``, the sine
of their largest principal angle, is at most ``sin(tol)``.
"""

import numpy as np
import scipy.linalg

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
    """

    def __init__(self, basis, ambient_dim=None, tol=DEFAULT_TOL, _checked=False):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.size == 0:
            n = ambient_dim if ambient_dim is not None else basis.shape[0]
            if n is None or n <= 0:
                raise InputError("zero subspace needs a positive ambient dimension")
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

    @classmethod
    def zero(cls, ambient_dim, tol=DEFAULT_TOL):
        return cls(np.zeros((ambient_dim, 0), dtype=complex), tol=tol, _checked=True)

    @classmethod
    def full(cls, ambient_dim, tol=DEFAULT_TOL):
        return cls(np.eye(ambient_dim, dtype=complex), tol=tol, _checked=True)

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """The orthogonal projection onto this subspace, as an N x N matrix."""
        return self.basis @ self.basis.conj().T

    def project(self, v):
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise InputError(f"vector lives in C^{v.shape[0]}, expected C^{self.ambient_dim}")
        return self.basis @ (self.basis.conj().T @ v)

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
    """
    if len(s) == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def orthonormalize(vectors, tol=DEFAULT_TOL, ambient_dim=None):
    """Rank-revealing orthonormalization of a spanning set.

    ``numerical_rank`` decides how many left singular vectors survive; they
    get one re-orthogonalization pass before they are returned as the basis.
    """
    M = as_columns(vectors, ambient_dim)
    if M.shape[1] == 0:
        return Subspace.zero(M.shape[0], tol=tol)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = numerical_rank(s, tol)
    if rank == 0:
        return Subspace.zero(M.shape[0], tol=tol)
    B, _ = np.linalg.qr(U[:, :rank])
    return Subspace(B, tol=tol, _checked=True)


def complement_within(ambient, sub, tol=None):
    """The orthogonal complement of ``sub`` inside ``ambient``.

    Raises ContainmentError (carrying the max residual) if ``sub`` is not
    contained in ``ambient`` within tolerance.
    """
    if ambient.ambient_dim != sub.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    if tol is None:
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
    U, _, _ = np.linalg.svd(coords, full_matrices=True)
    B = ambient.basis @ U[:, sub.dim:]
    return Subspace(B, tol=tol, _checked=True)


def sum_subspaces(a, b, tol=None):
    """Closed span of the union of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    if tol is None:
        tol = min(a.tol, b.tol)
    return orthonormalize(np.hstack([a.basis, b.basis]), tol=tol, ambient_dim=a.ambient_dim)


def image(T, s, tol=None):
    """The image T(s) = closure of {T v : v in s} as a subspace."""
    T = as_operator(T, dim=s.ambient_dim)
    if tol is None:
        tol = s.tol
    return orthonormalize(T @ s.basis, tol=tol, ambient_dim=s.ambient_dim)


def compress(T, s):
    """The compression P_s T|_s of an operator to a subspace, in basis coordinates."""
    T = as_operator(T, dim=s.ambient_dim)
    return s.basis.conj().T @ T @ s.basis


def principal_angles(a, b):
    """Principal angles (radians, ascending) between two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    return np.sort(scipy.linalg.subspace_angles(a.basis, b.basis))


def max_principal_angle(a, b):
    """Largest principal angle; 0 for two zero subspaces, pi/2 if only one is zero."""
    if a.dim == 0 and b.dim == 0:
        return 0.0
    if a.dim == 0 or b.dim == 0:
        return float(np.pi / 2)
    return float(principal_angles(a, b).max())


def same_subspace(a, b, tol=None):
    """Same dimension and ||B - A(A^H B)||_2, the sine of the largest principal
    angle, at most sin(tol); two zero or two full subspaces are equal outright."""
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
    return opnorm(b.basis - a.basis @ (a.basis.conj().T @ b.basis)) <= np.sin(tol)


def opnorm(A):
    """Spectral (operator 2-) norm."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))
