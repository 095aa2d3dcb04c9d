"""Dense complex linear algebra kernel plus certified winding and sparse
singular-value floors.

The matrix routines are thin contract-carrying wrappers over numpy.linalg;
winding_number and sparse_sigma_min are hand-rolled because they must
refuse (rather than guess) when their certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryZeroSuspected, SpectralUncertified

DEFAULT_EPS_EXACT = 1e-10
DEFAULT_EPS_RANK = 1e-8
DEFAULT_BOUNDARY_GRID = 4096
GRAM_SHIFT = -1e-3


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


def operator_norm(a) -> float:
    m = as_cmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def sigma_min(a) -> float:
    """Smallest singular value; 0.0 for an empty matrix."""
    s = np.linalg.svd(as_cmatrix(a), compute_uv=False)
    return float(s[-1]) if s.size else 0.0


@dataclass(frozen=True)
class SparseFloor:
    """Smallest singular value with its certificate: no singular value
    lies below lower, and residual is ||G x - value^2 x|| for the unit
    Ritz vector x of the Gram matrix G."""

    value: float
    lower: float
    residual: float


def sparse_sigma_min(a, tol: Tolerance = DEFAULT_TOL, floor: float = 0.0) -> SparseFloor:
    """Certified smallest singular value of a sparse matrix, never densified.

    ARPACK finds the smallest eigenvalue of G = a* a in shift-invert mode;
    theta is the Rayleigh quotient of the Ritz vector.  floor is a hint
    that no singular value of a lies below it (Coburn's 1 - |lambda| for
    an isometry minus lambda).  The shift is max(floor, 0)^2 + GRAM_SHIFT,
    just below the hinted bottom of the spectrum of G, so shift-invert
    separates the wanted eigenvalue from a cluster right above it.  With
    the default floor 0 the shift is GRAM_SHIFT < 0, below the spectrum of
    the positive semidefinite G even when a is singular.

    Stopping rule: ARPACK stops at tol = eps_exact / 2 rather than at
    machine precision.  In shift-invert mode it accepts a Ritz pair
    (nu, x) of OP = (G - shift I)^-1 once ||OP x - nu x|| <= tol |nu|;
    multiplying by G - shift I gives ||G x - (shift + 1/nu) x|| <=
    tol ||G - shift I||.  With the shift below the spectrum,
    ||G - shift I|| is at most ||G|| - GRAM_SHIFT, so that bound is below
    delta, the residual the certificate checks; the Rayleigh quotient
    theta only lowers it.

    Certificate: with delta = eps_exact times a norm bound of G (its
    largest column sum), the residual must stay below delta, and an
    unpivoted symmetric LU of G - (theta - delta) I (perm_r == perm_c)
    must have only positive pivots: by Sylvester's law of inertia no
    eigenvalue of G lies below theta - delta, which gives lower.  A failed
    check or a solver failure raises SpectralUncertified.  Neither check
    reads the hint, so a wrong floor can cost a refusal, never a wrong
    value.

    Accuracy: the early stop leaves theta off the bottom eigenvalue by up
    to about tol (theta - shift) inside a tight cluster.  When the shift
    did not land within 2 |GRAM_SHIFT| below theta - delta (the hint was
    too low, or above the spectrum), the solve is repeated once from
    theta - delta itself, which the inertia check has placed below the
    spectrum and within delta of its bottom; it reuses that LU and its
    residual is checked the same way.
    """
    from scipy import sparse
    from scipy.sparse import linalg  # lazy: adds about 0.13 s to import odolab

    g = sparse.csc_matrix(a.conj().T @ a)
    size = g.shape[0]
    delta = tol.eps_exact * max(1.0, float(abs(g).sum(axis=0).max()))
    shift = max(floor, 0.0) ** 2 + GRAM_SHIFT
    v0 = np.random.default_rng(0).standard_normal(size).astype(complex)
    try:
        x, theta, residual = _bottom_pair(g, shift, v0, tol, delta)
        lower = theta - delta
        lu = linalg.splu(sparse.csc_matrix(g - lower * sparse.identity(size)), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal().real <= 0):
            raise SpectralUncertified("inertia check failed below %.6e" % lower)
        if not 0.0 < lower - shift <= -2 * GRAM_SHIFT:
            opinv = linalg.LinearOperator(g.shape, matvec=lu.solve, dtype=complex)
            x, theta, residual = _bottom_pair(g, lower, x, tol, delta, opinv)
    except RuntimeError as exc:  # ArpackNoConvergence, ArpackError, singular factor
        raise SpectralUncertified("sparse eigensolver failed: %s" % exc) from exc
    return SparseFloor(float(np.sqrt(max(theta, 0.0))), float(np.sqrt(max(lower, 0.0))), residual)


def _bottom_pair(g, shift, v0, tol, delta, opinv=None):
    # unit Ritz vector of G nearest the shift, its Rayleigh quotient and its
    # residual, which must stay below delta; a Gram matrix of size <= 2 is
    # below what ARPACK accepts for k = 1 and is solved exactly
    from scipy.sparse import linalg

    if g.shape[0] <= 2:
        vec = np.linalg.eigh(g.toarray())[1][:, 0]
    else:
        vec = linalg.eigsh(g, k=1, sigma=shift, which="LM", v0=v0, tol=tol.eps_exact / 2, OPinv=opinv)[1][:, 0]
    x = vec / np.linalg.norm(vec)
    gx = g @ x
    theta = float(np.vdot(x, gx).real)
    residual = float(np.linalg.norm(gx - theta * x))
    if residual > delta:
        raise SpectralUncertified("Ritz residual %.3e > %.3e" % (residual, delta))
    return x, theta, residual


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


def orthocomplement_basis(cols, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal basis of the orthogonal complement of the column span.

    cols is an (ambient, k) array; with k = 0 the full standard basis
    comes back.  Returns an (ambient, ambient - rank) array with
    orthonormal columns.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("columns of shape %r, need a 2-D array" % (cols.shape,))
    if cols.shape[1] == 0:
        return np.eye(cols.shape[0], dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    return u[:, _rank_cut(s, tol):]


def _orthocomplement_at(cols: np.ndarray, count: int) -> np.ndarray:
    # the trailing count left singular vectors of one full SVD of cols: the
    # orthocomplement basis of the same SVD, cut at a count decided elsewhere
    if cols.shape[1] == 0:
        return np.eye(cols.shape[0], dtype=complex)
    return np.linalg.svd(cols, full_matrices=True)[0][:, cols.shape[0] - count:]


def winding_number(coeffs, grid_size: int = DEFAULT_BOUNDARY_GRID) -> int:
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
