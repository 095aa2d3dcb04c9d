import numpy as np
import pytest

from odolab.errors import BoundaryZeroSuspected
from odolab.numerics import (
    Tolerance,
    as_cmatrix,
    least_squares,
    numerical_rank,
    operator_norm,
    orthocomplement_basis,
    sigma_min,
    winding_number,
)


def rand_matrix(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def power_iteration_sigma1(a, iters=5000):
    # independent route to the top singular value: power method on A*A
    a = np.asarray(a, dtype=complex)
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = a.conj().T @ (a @ x)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0
        x = y / nrm
    return float(np.sqrt(np.real(np.vdot(x, a.conj().T @ (a @ x)))))


def test_tolerance_validation():
    t = Tolerance()
    assert t.eps_exact == 1e-10
    assert t.eps_rank == 1e-8
    with pytest.raises(ValueError):
        Tolerance(eps_exact=1e-6, eps_rank=1e-8)
    with pytest.raises(ValueError):
        Tolerance(eps_exact=0.0)


def test_as_cmatrix_rejects_nan():
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.nan, 0.0]]))


def test_sigma1_matches_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rand_matrix(rng, 12, 9)
        s1 = operator_norm(a)
        oracle = power_iteration_sigma1(a)
        assert abs(s1 - oracle) <= 1e-10 * max(1.0, s1)


def test_numerical_rank_constructed_gap():
    # build a matrix with singular values exactly (1, 1e-12) from known
    # unitary factors, then ask for its rank
    theta = 0.3
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    v = np.array([[1.0, 0.0], [0.0, np.exp(0.7j)]], dtype=complex)
    a = u @ np.diag([1.0, 1e-12]) @ v.conj().T
    assert numerical_rank(a) == 1


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((4, 3))) == 0
    # tiny uniform matrix: top singular value below the absolute floor
    assert numerical_rank(1e-12 * np.ones((3, 3))) == 0


def test_numerical_rank_is_scale_invariant():
    # the cut is relative to the largest singular value: a gap of 1e-6
    # stays above eps_rank = 1e-8 at every scale
    for c in (1e-3, 1.0, 1e3):
        assert numerical_rank(c * np.diag([1.0, 1e-6])) == 2


def test_sigma_min_values():
    assert sigma_min(np.diag([3.0, 0.5, 2.0])) == pytest.approx(0.5)
    assert sigma_min(np.zeros((0, 3))) == 0.0
    rng = np.random.default_rng(23)
    a = rand_matrix(rng, 6, 4)
    s = np.linalg.svd(a, compute_uv=False)
    assert sigma_min(a) == pytest.approx(s[-1], abs=1e-14)


def test_rank_and_orthocomplement_share_the_cut():
    # singular values 1, 1e-7, 1e-9 straddle eps_rank = 1e-8: the rank
    # decision and the complement dimension must split them the same way
    rng = np.random.default_rng(29)
    u = np.linalg.qr(rand_matrix(rng, 5, 5))[0]
    v = np.linalg.qr(rand_matrix(rng, 3, 3))[0]
    a = u[:, :3] @ np.diag([1.0, 1e-7, 1e-9]) @ v.conj().T
    for tol in (Tolerance(), Tolerance(eps_rank=1e-6), Tolerance(eps_exact=1e-12, eps_rank=1e-10)):
        assert numerical_rank(a, tol) + orthocomplement_basis(a, tol).shape[1] == 5
    assert numerical_rank(a) == 2


def test_least_squares_orthogonal_residual():
    b = np.array([[1.0], [0.0]], dtype=complex)
    a = np.array([[0.0], [1.0]], dtype=complex)
    x, res = least_squares(b, a)
    assert abs(res - 1.0) <= 1e-12
    assert np.max(np.abs(x)) <= 1e-12


def test_least_squares_exact_solve():
    rng = np.random.default_rng(3)
    b = rand_matrix(rng, 8, 3)
    x_true = rand_matrix(rng, 3, 2)
    a = b @ x_true
    x, res = least_squares(b, a)
    assert res <= 1e-10
    assert np.max(np.abs(x - x_true)) <= 1e-8


def test_orthocomplement_empty_input():
    q = orthocomplement_basis(np.zeros((3, 0)))
    assert q.shape == (3, 3)
    assert np.max(np.abs(q.conj().T @ q - np.eye(3))) <= 1e-12


def test_orthocomplement_properties():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ambient = int(rng.integers(2, 12))
        k = int(rng.integers(1, ambient + 1))
        vecs = [rand_matrix(rng, ambient, 1).ravel() for _ in range(k)]
        m = np.column_stack(vecs)
        q = orthocomplement_basis(m)
        r = np.linalg.matrix_rank(m, tol=1e-10)
        assert q.shape == (ambient, ambient - r)
        if q.shape[1]:
            assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-10
            assert np.max(np.abs(m.conj().T @ q)) <= 1e-9


def test_winding_basic_values():
    assert winding_number([0.0, 1.0]) == 1  # p(z) = z
    assert winding_number([1.0, 0.5]) == 0  # root at -2, outside
    assert winding_number([1.0]) == 0
    # root at -1/2, inside
    assert winding_number([0.5, 1.0]) == 1


def test_winding_refuses_boundary_zero():
    with pytest.raises(BoundaryZeroSuspected):
        winding_number([1.0, 1.0])  # p(z) = 1 + z, root on the circle


def test_winding_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        winding_number([0.0, 0.0])


def test_winding_multiplicative_under_product():
    rng = np.random.default_rng(23)
    for _ in range(12):
        # random polynomials with roots kept off the circle
        def poly_from_roots(roots):
            c = np.array([1.0 + 0j])
            for r in roots:
                c = np.convolve(c, np.array([-r, 1.0]))
            return c

        n_in = int(rng.integers(0, 3))
        n_out = int(rng.integers(0, 3))
        inside = 0.6 * (rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)) / 2
        outside = 1.8 + rng.random(n_out) + 1j * rng.standard_normal(n_out) * 0.2
        p = poly_from_roots(inside)
        q = poly_from_roots(outside)
        wp = winding_number(p)
        wq = winding_number(q)
        assert wp == n_in
        assert wq == 0
        assert winding_number(np.convolve(p, q)) == wp + wq
