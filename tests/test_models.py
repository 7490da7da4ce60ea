import json

import numpy as np
import pytest

from shiftlab import (
    InputError,
    SpaceKind,
    dump_matrix,
    ideal_subspace,
    kernel_vector,
    load_matrix,
    make_quotient,
    make_shift,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    prefix_coinvariant,
    shift_weights,
)


def kernel_taylor_coefficients(alpha, count, radius=0.5, samples=4096):
    """Taylor coefficients of (1 - z)^(-alpha) by contour integration (FFT)."""
    th = 2 * np.pi * np.arange(samples) / samples
    z = radius * np.exp(1j * th)
    vals = (1 - z) ** (-alpha)
    coeff = np.fft.fft(vals) / samples
    return (coeff[:count] / radius ** np.arange(count)).real


def test_hardy_weights_are_ones():
    assert np.allclose(shift_weights(SpaceKind.hardy(), 7), np.ones(6))


def test_bergman_and_dirichlet_weight_formulas():
    k = np.arange(5, dtype=float)
    assert np.allclose(shift_weights(SpaceKind.bergman(), 6), np.sqrt((k + 1) / (k + 2)))
    assert np.allclose(shift_weights(SpaceKind.dirichlet(), 6), np.sqrt((k + 2) / (k + 1)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 3.7])
def test_weighted_bergman_weights_match_kernel_coefficients(alpha):
    """w_k = sqrt(c_k / c_{k+1}) with c_k the Taylor coefficients of (1-z)^(-alpha)."""
    m = 9
    c = kernel_taylor_coefficients(alpha, m)
    expected = np.sqrt(c[:-1] / c[1:])
    got = shift_weights(SpaceKind.weighted_bergman(alpha), m)
    assert np.allclose(got, expected, atol=1e-10)


def test_weighted_bergman_special_orders():
    assert np.allclose(
        shift_weights(SpaceKind.weighted_bergman(1), 8), shift_weights(SpaceKind.hardy(), 8)
    )
    assert np.allclose(
        shift_weights(SpaceKind.weighted_bergman(2), 8), shift_weights(SpaceKind.bergman(), 8)
    )


def test_space_kind_validation():
    with pytest.raises(InputError):
        SpaceKind("fourier")
    with pytest.raises(InputError):
        SpaceKind.weighted_bergman(0)
    with pytest.raises(InputError):
        SpaceKind.weighted_bergman(float("inf"))
    with pytest.raises(InputError):
        SpaceKind.custom([])
    with pytest.raises(InputError):
        SpaceKind.custom([1.0, -0.5])


def test_custom_weights_length_must_match():
    kind = SpaceKind.custom([0.5, 0.25])
    assert np.allclose(shift_weights(kind, 3), [0.5, 0.25])
    with pytest.raises(InputError):
        shift_weights(kind, 5)


def test_make_shift_structure():
    model = make_shift(SpaceKind.bergman(), 5)
    T = model.operator
    # single nonzero subdiagonal, nilpotent of order exactly m
    assert np.allclose(np.diag(T, -1), model.weights)
    assert opnorm(T - np.diag(np.diag(T, -1), -1)) == 0
    assert opnorm(np.linalg.matrix_power(T, 5)) < 1e-15
    assert opnorm(np.linalg.matrix_power(T, 4)) > 1e-3


def test_prefix_coinvariant_validation_and_coinvariance():
    model = make_shift(SpaceKind.hardy(), 5)
    Q = prefix_coinvariant(model, 2)
    assert Q.dim == 2
    P = Q.projector()
    leak = opnorm((np.eye(5) - P) @ model.operator.conj().T @ P)
    assert leak < 1e-15
    for bad in (0, 5, -1, 2.5):
        with pytest.raises(InputError):
            prefix_coinvariant(model, bad)


def test_kernel_vector_shift_model():
    model = make_shift(SpaceKind.bergman(), 6)
    lam = 0.4 - 0.2j
    v, defect = kernel_vector(model, lam)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    resid = np.linalg.norm(model.operator.conj().T @ v - np.conj(lam) * v)
    assert abs(resid - defect) < 1e-12
    # the defect is exactly the truncated tail |lam| |v_{m-1}|
    assert abs(defect - abs(lam) * abs(v[-1])) < 1e-12
    with pytest.raises(InputError):
        kernel_vector(model, 1.0)


def test_kernel_vector_quotient_model():
    model = make_quotient([0.3, -0.5])
    v, defect = kernel_vector(model, 0.3)
    assert defect < 1e-12  # roots of p are exact adjoint eigenvalues
    _, defect_off = kernel_vector(model, 0.1)
    assert defect_off > 1e-3


def test_make_quotient_companion_matrix():
    roots = [(0.3 + 0.1j, 2), -0.5]
    model = make_quotient(roots)
    assert model.m == 3
    # characteristic polynomial reproduces p
    char = np.poly(model.operator)[::-1]  # lowest degree first
    assert np.allclose(char, model.coefficients, atol=1e-12)
    evs = np.sort_complex(np.linalg.eigvals(model.operator))
    expected = np.sort_complex(np.array([0.3 + 0.1j, 0.3 + 0.1j, -0.5]))
    assert np.allclose(evs, expected, atol=1e-7)


def test_make_quotient_rejects_roots_outside_disc():
    with pytest.raises(InputError):
        make_quotient([1.0])
    with pytest.raises(InputError):
        make_quotient([0.5, 2.0j])
    with pytest.raises(InputError):
        make_quotient([])


def test_ideal_subspace_invariance_and_vanishing():
    model = make_quotient([0.3, -0.5, (0.2j, 1)])
    S = ideal_subspace(model, [0.3])
    assert S.dim == 2  # deg p - deg q
    P = S.projector()
    leak = opnorm((np.eye(model.m) - P) @ model.operator @ P)
    assert leak < 1e-12
    # members vanish at the root of q: evaluate coefficient vectors at 0.3
    powers = 0.3 ** np.arange(model.m)
    assert np.max(np.abs(powers @ S.basis)) < 1e-12


def test_ideal_subspace_rejects_bad_divisors():
    model = make_quotient([0.3, -0.5])
    with pytest.raises(InputError):
        ideal_subspace(model, [0.7])  # not a root of p
    with pytest.raises(InputError):
        ideal_subspace(model, [0.3, -0.5])  # not a proper divisor
    with pytest.raises(InputError):
        ideal_subspace(model, [([0.3, 0.0], 2)])  # multiplicity too high


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = matrix_to_json(A)
    assert obj["rows"] == 3 and obj["cols"] == 4
    back = matrix_from_json(obj)
    assert np.array_equal(back, A)
    # JSON text roundtrip too
    back2 = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back2, A)


def test_matrix_from_json_accepts_plain_nested_lists():
    A = matrix_from_json([[1, [0, 2]], [[3, -1], 0]])
    assert A.shape == (2, 2)
    assert A[0, 1] == 2j and A[1, 0] == 3 - 1j


def test_matrix_from_json_flat_pairs_not_mistaken_for_rows():
    # 2 x 2 with flat [re, im] entries: each entry looks like a list of two
    obj = {"rows": 2, "cols": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]}
    A = matrix_from_json(obj)
    assert np.array_equal(A, np.array([[1, 2], [3, 4]], dtype=complex))


def test_matrix_from_json_dim_shorthand_and_errors():
    A = matrix_from_json({"dim": 2, "entries": [1, 0, 0, 1]})
    assert np.array_equal(A, np.eye(2))
    with pytest.raises(InputError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [1, 2, 3]})
    with pytest.raises(InputError):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(InputError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InputError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [float("nan")]})


def test_matrix_file_roundtrip(tmp_path):
    A = np.array([[0, 1], [1j, 0]], dtype=complex)
    path = tmp_path / "mat.json"
    dump_matrix(A, path)
    assert np.array_equal(load_matrix(path), A)
