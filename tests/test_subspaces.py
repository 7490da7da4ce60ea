import numpy as np
import pytest

from shiftlab import (
    ContainmentError,
    InputError,
    Subspace,
    complement_within,
    compress,
    image,
    max_principal_angle,
    opnorm,
    orthonormalize,
    principal_angles,
    same_subspace,
    sum_subspaces,
)
from shiftlab.subspaces import as_columns, as_operator, numerical_rank


def test_as_operator_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InputError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(InputError):
        as_operator(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(InputError):
        as_operator(np.eye(3), dim=4)


def test_as_columns_accepts_vector_lists_and_empty():
    A = as_columns([np.ones(3), np.arange(3.0)])
    assert A.shape == (3, 2)
    empty = as_columns([], ambient_dim=5)
    assert empty.shape == (5, 0)
    with pytest.raises(InputError):
        as_columns([])  # ambient dimension unknown


def test_subspace_requires_orthonormal_basis():
    with pytest.raises(InputError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1e-3]]))
    s = Subspace(np.eye(4)[:, :2])
    assert s.dim == 2 and s.ambient_dim == 4


def test_zero_and_full_subspaces():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert np.allclose(f.projector(), np.eye(3))
    assert np.allclose(z.projector(), np.zeros((3, 3)))


def test_projector_is_hermitian_idempotent():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    s = orthonormalize(B)
    P = s.projector()
    assert opnorm(P @ P - P) < 1e-12
    assert opnorm(P - P.conj().T) < 1e-12


def test_orthonormalize_detects_rank():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    stacked = np.hstack([B, B @ rng.standard_normal((3, 2))])  # rank still 3
    s = orthonormalize(stacked)
    assert s.dim == 3
    # perturbations below tolerance don't create dimensions
    noisy = np.hstack([B, B[:, :1] + 1e-13 * rng.standard_normal((8, 1))])
    assert orthonormalize(noisy).dim == 3
    # ...but genuinely new directions do
    extra = np.hstack([B, rng.standard_normal((8, 1))])
    assert orthonormalize(extra).dim == 4


def test_orthonormalize_zero_input():
    s = orthonormalize(np.zeros((5, 2)))
    assert s.dim == 0 and s.ambient_dim == 5


def test_numerical_rank_cuts_at_tol_times_max_one_sigma_max():
    # the cutoff 0.25 * 2 = 0.5 is exact in binary; a value at it is dropped
    assert numerical_rank(np.array([2.0, 0.75, 0.5, 0.25]), 0.25) == 2
    # below sigma_max = 1 the cutoff is tol itself
    assert numerical_rank(np.array([0.5, 0.25, 0.125]), 0.25) == 1
    assert numerical_rank(np.zeros(0), 0.25) == 0


def test_complement_within_dimensions_and_orthogonality():
    rng = np.random.default_rng(3)
    big = orthonormalize(rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5)))
    sub = Subspace(big.basis[:, :2], _checked=True)
    comp = complement_within(big, sub)
    assert comp.dim == 3
    assert opnorm(sub.basis.conj().T @ comp.basis) < 1e-12
    assert big.containment_residual(comp) < 1e-12


def test_complement_within_rejects_noncontained():
    big = Subspace(np.eye(5)[:, :2], _checked=True)
    outside = Subspace(np.eye(5)[:, 3:4], _checked=True)
    with pytest.raises(ContainmentError) as exc:
        complement_within(big, outside)
    assert exc.value.residual is not None and exc.value.residual > 0.5


def test_sum_subspaces_and_image():
    a = Subspace(np.eye(4)[:, :1], _checked=True)
    b = Subspace(np.eye(4)[:, 1:2], _checked=True)
    assert sum_subspaces(a, b).dim == 2
    T = np.diag([1.0, 2.0, 3.0, 4.0])
    img = image(T, sum_subspaces(a, b))
    assert same_subspace(img, sum_subspaces(a, b))


def test_compress_matches_matrix_block():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = Subspace(np.eye(6)[:, 2:5], _checked=True)
    C = compress(T, s)
    assert C.shape == (3, 3)
    assert np.allclose(C, T[2:5, 2:5])


def test_principal_angles_known_rotation():
    th = 0.3
    a = Subspace(np.array([[1.0], [0.0], [0.0]]), _checked=True)
    b = Subspace(np.array([[np.cos(th)], [np.sin(th)], [0.0]]), _checked=True)
    ang = principal_angles(a, b)
    assert ang.shape == (1,)
    assert abs(ang[0] - th) < 1e-12
    assert abs(max_principal_angle(a, b) - th) < 1e-12


def test_max_principal_angle_degenerate_cases():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert max_principal_angle(z, z) == 0.0
    assert max_principal_angle(z, f) == pytest.approx(np.pi / 2)


def test_same_subspace_invariant_under_basis_change():
    rng = np.random.default_rng(13)
    B = orthonormalize(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    # re-mix the basis by a random unitary
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    remixed = Subspace(B.basis @ U, _checked=True)
    assert same_subspace(B, remixed)
    other = orthonormalize(rng.standard_normal((6, 3)))
    assert not same_subspace(B, other)


def test_same_subspace_agrees_with_largest_principal_angle():
    """Rotate one basis direction by theta just under or over tol, re-mix the
    basis, and compare the sine test with the principal-angle test."""
    rng = np.random.default_rng(43)
    tol = 1e-8
    thetas = (0.0, 0.5 * tol, 0.9 * tol, 1.1 * tol, 2 * tol, 1e-3, 0.7)
    for trial in range(42):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(1, N))
        a = orthonormalize(rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k)))
        out = complement_within(Subspace.full(N), a).basis[:, 0]
        theta = thetas[trial % len(thetas)]
        B = a.basis.copy()
        B[:, 0] = np.cos(theta) * B[:, 0] + np.sin(theta) * out
        U, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        b = Subspace(B @ U, _checked=True)
        same = same_subspace(a, b, tol=tol)
        assert same == (max_principal_angle(a, b) <= tol)
        assert same == (theta <= tol)
        other = orthonormalize(rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k)))
        assert same_subspace(a, other, tol=tol) == (max_principal_angle(a, other) <= tol)


def test_same_subspace_zero_and_full():
    rng = np.random.default_rng(47)
    U, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    zero, full = Subspace.zero(5), Subspace.full(5)
    line = orthonormalize(rng.standard_normal((5, 1)))
    assert same_subspace(zero, Subspace.zero(5))
    assert same_subspace(full, Subspace(U, _checked=True))
    assert not same_subspace(zero, full)
    assert not same_subspace(zero, line)
    assert not same_subspace(line, full)


def test_containment_residual_scales_with_leakage():
    big = Subspace(np.eye(4)[:, :2], _checked=True)
    v = np.array([1.0, 0.0, 1e-3, 0.0])
    inside = Subspace(np.array([[1.0], [0.0], [0.0], [0.0]]), _checked=True)
    tilted = orthonormalize(v.reshape(-1, 1))
    assert big.containment_residual(inside) < 1e-14
    assert 5e-4 < big.containment_residual(tilted) < 2e-3
