"""Dense complex linear algebra kernel plus a certified winding count.

The matrix routines are thin contract-carrying wrappers over numpy.linalg;
winding_number is hand-rolled because it must refuse (rather than guess)
when a root may sit on the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryZeroSuspected

DEFAULT_EPS_EXACT = 1e-10
DEFAULT_EPS_RANK = 1e-8
DEFAULT_WINDING_GRID = 8192


@dataclass(frozen=True)
class Tolerance:
    """Threshold bundle.

    eps_exact guards identities expected to hold at machine precision,
    eps_rank drives rank decisions.
    """

    eps_exact: float = DEFAULT_EPS_EXACT
    eps_rank: float = DEFAULT_EPS_RANK

    def __post_init__(self):
        if not 0.0 < self.eps_exact <= self.eps_rank:
            raise ValueError(
                "need 0 < eps_exact <= eps_rank, got %g and %g"
                % (self.eps_exact, self.eps_rank)
            )


DEFAULT_TOL = Tolerance()


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-D array; 1-D input becomes a column."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("expected a vector or matrix, got ndim=%d" % m.ndim)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries in matrix")
    return m


def svd(a):
    """Reduced SVD, A = u @ diag(s) @ vh with s descending."""
    return np.linalg.svd(as_cmatrix(a), full_matrices=False)


def operator_norm(a) -> float:
    m = as_cmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def sigma_min(a) -> float:
    """Smallest singular value; 0.0 for an empty matrix."""
    s = np.linalg.svd(as_cmatrix(a), compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def _rank_cut(s: np.ndarray, tol: Tolerance) -> int:
    # singular values above eps_rank relative to the largest; none when
    # the largest is itself at or below eps_rank
    if s.size == 0 or s[0] <= tol.eps_rank:
        return 0
    return int(np.sum(s > tol.eps_rank * s[0]))


def numerical_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above eps_rank relative to the largest.

    The zero matrix (largest singular value <= eps_rank absolutely) has
    rank 0.
    """
    return _rank_cut(np.linalg.svd(as_cmatrix(a), compute_uv=False), tol)


def least_squares(b, a):
    """Minimize ||b @ x - a||_F; returns (x, residual).

    The residual is recomputed explicitly, lstsq's own residual output is
    empty in the rank-deficient case.
    """
    bm, am = as_cmatrix(b), as_cmatrix(a)
    x, _, _, _ = np.linalg.lstsq(bm, am, rcond=None)
    residual = float(np.linalg.norm(bm @ x - am))
    return x, residual


def orthocomplement_basis(vectors, ambient: int, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis of the orthogonal complement of span(vectors).

    Parameters
    ----------
    vectors : sequence of 1-D arrays, or a 2-D array of columns; may be
        empty, in which case the full standard basis comes back.
    ambient : dimension of the surrounding coordinate space.

    Returns an (ambient, ambient - rank) array with orthonormal columns.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = np.asarray(vectors, dtype=complex)
    else:
        vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        if not vecs:
            return np.eye(ambient, dtype=complex)
        cols = np.column_stack(vecs)
    if cols.shape[0] != ambient:
        raise ValueError("vector length %d != ambient %d" % (cols.shape[0], ambient))
    if cols.shape[1] == 0:
        return np.eye(ambient, dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    return u[:, _rank_cut(s, tol):]


def winding_number(coeffs, grid_size: int = DEFAULT_WINDING_GRID) -> int:
    """Number of roots of sum_r coeffs[r] z^r strictly inside the unit disk.

    Argument principle on a uniform grid over the circle.  Safe only when
    the polynomial stays away from zero there; the check compares the
    minimum grid modulus against the Lipschitz bound sum_r r |c_r| times
    the grid step and raises BoundaryZeroSuspected when it fails, instead
    of returning a possibly wrong integer.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0 or not np.any(c != 0):
        raise ValueError("identically zero polynomial has no winding number")
    if grid_size < 16:
        raise ValueError("grid_size too small")
    k = np.arange(grid_size)
    z = np.exp(2j * np.pi * k / grid_size)
    vals = np.polyval(c[::-1], z)
    lip = float(np.sum(np.arange(len(c)) * np.abs(c)))
    margin = lip * (2.0 * np.pi / grid_size)
    min_mod = float(np.min(np.abs(vals)))
    if min_mod <= margin:
        raise BoundaryZeroSuspected(
            "min grid modulus %.3e <= safety margin %.3e; "
            "a root may lie on or near the unit circle" % (min_mod, margin)
        )
    # margin < |p| on the whole grid forces each step's argument change
    # below pi/2, so the principal branch accumulates the true argument.
    ratios = np.append(vals[1:], vals[0]) / vals
    total = float(np.sum(np.angle(ratios)))
    wind = int(round(total / (2.0 * np.pi)))
    return wind
