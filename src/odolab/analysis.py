"""Structural verdicts for an odometer map, computed from its symbol.

Everything here reduces to finite linear algebra over the truncated
basis, with the truncation chosen so the reductions are exact where the
theory says they can be:

* the defect space sits inside the 1-chain sector, and for a depth-D
  ambient the stacked annihilation conditions are complete, so the
  computed space is exactly (true defect) intersect (depth <= D);
* the interior carry block is a permutation, so isometry/unitarity
  reduce to support conditions on the symbol plus the algebraic inner
  test on its analytic side;
* rectangular builds (codomain depth = domain depth + symbol depth)
  never lose image mass, which keeps Coburn floors and norm bounds
  honest lower-side truncations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

from . import fock
from .errors import DefectUnstable, IdenticallySingular, NotIsometric, RangeNotContained
from .numerics import (
    DEFAULT_BOUNDARY_GRID, DEFAULT_TOL, Tolerance, least_squares, numerical_rank, operator_norm,
    orthocomplement_basis, sigma_min, sparse_sigma_min,
)
from .operator import (
    FockOperator,
    SubspaceSelector,
    _symbol_arrays,
    build_wl,
    build_wl_adjoint,
    carry_singular_values,
    toeplitz_truncation,
)
from .symbol import (
    Symbol,
    is_inner_exact,
    is_invertible_hinf,
    sup_norm,
)

DEFAULT_COBURN_POINTS = (0.0, 0.3, 0.5 * np.exp(1j * np.pi / 4), 0.9j)


def isometry_deviation(sym: Symbol, tol: Tolerance = DEFAULT_TOL) -> float:
    """Distance from the isometry criterion: interior support mass plus
    the inner defect of the analytic symbol, as a single worst entry."""
    inner = is_inner_exact(sym.theta(), tol)
    return max(sym.m_mass(), inner.deviation)


def _require_isometric(sym: Symbol, tol: Tolerance) -> None:
    dev = isometry_deviation(sym, tol)
    if dev > tol.eps_exact:
        raise NotIsometric("symbol misses the isometry criterion by %.3e" % dev)


# ---------------------------------------------------------------------------
# defect space


@dataclass
class DefectBasis:
    """Defect data inside the 1-chain sector at one truncation depth.

    The operator side (route one) scatters the 1-chain entries of L over
    every shift.  Columns of el_basis span the orthocomplement of the
    shifted range (shifts p >= 1); columns of defect_basis also quotient
    out the range itself (shifts p >= 0), which is the adjoint kernel in
    general.  Each comes from one full SVD of its column block.
    el_minus_range_dim is the literal orthogonal difference, the rank of
    the range projected onto el_basis (a value-only SVD), which only has
    to match defect_dim when the map is isometric.
    The analytic side (route two) is stacked_matrix, the adjoint T_Theta*
    of the block Toeplitz truncation of the symbol; stacked_kernel_dim
    recomputes the defect dimension as its kernel dimension (a value-only
    SVD).  el_dim minus d is the defect dimension one depth below, which
    defect_with_stability reads.
    """

    depth: int
    d: int
    el_basis: np.ndarray
    defect_basis: np.ndarray
    stacked_kernel_dim: int
    el_minus_range_dim: int
    stacked_matrix: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.defect_basis.shape[1]

    @property
    def el_dim(self) -> int:
        return self.el_basis.shape[1]


def _chain_sector(sym: Symbol, depth: int) -> np.ndarray:
    # 1-chain part of L h_q shifted by p, truncated at depth: an entry on
    # the 1-chain word 1^r (word value 0) lands on row (p + r, s) of
    # column (p, q)
    d = sym.d
    length, value, s, q, coeff = _symbol_arrays(sym)
    p = np.arange(depth + 1)[:, None]
    fits = (value == 0) & (p + length <= depth)
    p, length, s, q, coeff = (np.broadcast_to(a, fits.shape)[fits] for a in (p, length, s, q, coeff))
    out = np.zeros(((depth + 1) * d, (depth + 1) * d), dtype=complex)
    out[(p + length) * d + s, p * d + q] = coeff
    return out


def defect(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL) -> DefectBasis:
    """Two-route defect computation inside the depth-truncated 1-chain sector.

    Route one, the operator side: the 1-chain entries of L scattered over
    every shift p, then the orthocomplement of the shifted columns.
    Route two, the analytic side: the kernel of the stacked map
    f -> (L* applied to every backward shift of f), which is T_Theta*.
    Neither route reads the other's assembly.  Both are exact reductions
    of the infinite-space conditions at this depth; they are compared by
    the caller or by wold_multiplicity.
    """
    d = sym.d
    chain = _chain_sector(sym, depth)
    shifted, range_cols = chain[:, d:], chain[:, :d]
    el_basis = orthocomplement_basis(shifted, tol)
    defect_basis = orthocomplement_basis(np.hstack([shifted, range_cols]), tol)

    stacked = toeplitz_truncation(sym.theta(), depth + 1).conj().T
    stacked_kernel_dim = chain.shape[0] - numerical_rank(stacked, tol)

    # literal E_L minus closure(L E): project the range onto E_L first
    el_minus_range = el_basis.shape[1]
    if el_minus_range:
        el_minus_range -= numerical_rank(el_basis.conj().T @ range_cols, tol)

    return DefectBasis(
        depth=depth,
        d=d,
        el_basis=el_basis,
        defect_basis=defect_basis,
        stacked_kernel_dim=stacked_kernel_dim,
        el_minus_range_dim=el_minus_range,
        stacked_matrix=stacked,
    )


def defect_with_stability(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL):
    """Defect at the requested depth plus the one-step stability flag.

    Returns (defect(sym, depth), whether its dim equals the dim one depth
    below, that dim).  The depth - 1 dimension comes from the same pass:
    the shifted columns (p >= 1) at depth D are the whole depth D - 1
    chain sector moved down one degree, with zero degree-0 rows, so E_L at
    depth D is the d degree-0 slots plus the depth D - 1 defect space, and
    the lower dim is el_dim - d.  The full SVD behind el_basis feeds the
    depth D - 1 dim; the one behind defect_basis feeds the depth-D dim.
    """
    if depth < 1:
        raise ValueError("stability heuristic needs depth >= 1")
    here = defect(sym, depth, tol)
    # _chain_sector(sym, D)[d:, d:] == _chain_sector(sym, D - 1) entry for
    # entry and its top d rows vanish: E_L(D) = degree-0 slots + defect(D - 1)
    below = here.el_dim - sym.d
    return here, here.dim == below, below


def fredholm_index(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL):
    """Index of the isometric odometer map, or None when the defect has
    not stabilized at this depth (the map is then not certified Fredholm).
    Depth 0 runs the stability pass at depth 1, as classify does.
    """
    _require_isometric(sym, tol)
    here, stable, _ = defect_with_stability(sym, max(depth, 1), tol)
    if not stable:
        return None
    return -here.dim


def _mtheta_multiplicity(sym: Symbol, depth: int, basis: DefectBasis, tol: Tolerance) -> int:
    # the symbol side of wold_multiplicity, see there; basis comes from a
    # defect pass at depth >= this one, and the leading (depth + 1) d rows
    # of its T_Theta* hold T_Theta* at this depth, cut to its columns
    keep_cols = (depth - sym.K + 1) * sym.d
    return keep_cols - numerical_rank(basis.stacked_matrix[: (depth + 1) * sym.d, :keep_cols], tol)


def wold_multiplicity(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL):
    """(shift multiplicity of the map, shift multiplicity of its analytic
    symbol), each from its own side of the unitary equivalence.

    The map side is the defect dimension of the operator-side route, from
    the one chain-sector pass of defect_with_stability (its stability
    flag comes from the same pass).  The symbol side counts the kernel of
    T_Theta*, read off that pass's stacked_matrix, on degrees <= depth - K
    with one value-only SVD; that cut keeps every image degree inside the
    truncation, so the kernel found is exactly the model space H^2 minus
    Theta H^2 cut to those degrees.
    For an inner polynomial Theta of degree K the model space lies in
    degrees < K, so the count is complete only from depth 2K - 1 on, and
    lower depths raise ValueError.  Depth 0 (reachable only at K = 0) runs
    the stability pass at depth 1, as classify does.
    """
    _require_isometric(sym, tol)
    if depth < 2 * sym.K - 1:
        raise ValueError("depth %d below 2K - 1 = %d for symbol depth %d" % (depth, 2 * sym.K - 1, sym.K))
    here, stable, below = defect_with_stability(sym, max(depth, 1), tol)
    if not stable:
        raise DefectUnstable(
            "defect dimension moved %d -> %d between depths" % (below, here.dim)
        )
    return here.dim, _mtheta_multiplicity(sym, depth, here, tol)


# ---------------------------------------------------------------------------
# norms


@dataclass
class NormReport:
    depth: int
    sigma_max: float
    bracket_lower: float
    bracket_upper: float
    formula_value: float | None
    applicable: bool
    sigma_l: float

    def to_dict(self):
        return asdict(self)


def norm_report(
    sym: Symbol,
    depth: int,
    grid: int = DEFAULT_BOUNDARY_GRID,
    tol: Tolerance = DEFAULT_TOL,
) -> NormReport:
    """Truncated operator norm next to the closed-form value.

    The closed form max(1, boundary sup of the symbol) applies when the
    symbol has no interior support; otherwise formula_value is None and
    only the truncated sigma_max and the symbol bracket are reported.

    Route: sigma_max is FockOperator.sigma_max, the largest singular value
    of the carry/chain core (operator.carry_singular_values).  Its
    certificate is structural: the build's carry columns are checked to
    be distinct unit columns before the core is formed, so the value is
    an exact reduction, not an iterate.
    """
    return _norm_report(sym, build_wl(sym, depth), grid, tol)


def _norm_report(sym: Symbol, w: FockOperator, grid: int, tol: Tolerance) -> NormReport:
    # norm_report on a map already built, which classify shares
    sigma = w.sigma_max()
    lo, hi = sup_norm(sym.theta(), grid)
    applicable = sym.m_mass() <= tol.eps_exact
    formula = max(1.0, hi) if applicable else None
    sigma_l = operator_norm(sym.matrix())
    return NormReport(
        depth=w.domain.depth,
        sigma_max=sigma,
        bracket_lower=lo,
        bracket_upper=hi,
        formula_value=formula,
        applicable=applicable,
        sigma_l=sigma_l,
    )


# ---------------------------------------------------------------------------
# Douglas factorization


@dataclass
class DouglasResult:
    factor: np.ndarray
    residual: float
    wl_gap: float
    theta_gap: float | None

    def to_dict(self):
        return {
            "factor_re": self.factor.real.tolist(),
            "factor_im": self.factor.imag.tolist(),
            "residual": self.residual,
            "wl_gap": self.wl_gap,
            "theta_gap": self.theta_gap,
        }


def _gamma_operator(c: np.ndarray, basis: fock.BasisIndex):
    # identity on the interior, C on every all-n chain level: block diagonal
    chain = SubspaceSelector.N_PERP.mask(basis)[:: basis.d].astype(float)
    return sparse.kron(sparse.diags(1.0 - chain), np.eye(basis.d)) + sparse.kron(sparse.diags(chain), c)


def douglas_factor(
    l1: Symbol,
    l2: Symbol,
    depth: int,
    tol: Tolerance = DEFAULT_TOL,
    grid: int = DEFAULT_BOUNDARY_GRID,
) -> DouglasResult:
    """Solve L1 = L2 C and verify the induced factorization of the maps.

    Raises RangeNotContained when the least-squares residual exceeds
    eps_rank, the range condition is the whole content of the
    factorization.  When it holds, W_{L1} = W_{L2} Gamma_C entrywise,
    with Gamma_C acting as C level by level on the all-n chain and as
    the identity elsewhere; that product identity is verified on the
    truncation, along with the symbol-side identity Theta_1 = Theta_2 C
    on a boundary grid of grid points when both symbols live on the
    1-chain sector.
    """
    if l1.n != l2.n or l1.d != l2.d:
        raise ValueError("symbols must share alphabet and slot count")
    k = max(l1.K, l2.K)
    basis = fock.enumerate_basis(l1.n, k, l1.d)
    b = l2.as_matrix(basis)
    a = l1.as_matrix(basis)
    c, residual = least_squares(b, a)
    if residual > tol.eps_rank:
        raise RangeNotContained(
            "range condition fails, residual %.3e > %.1e" % (residual, tol.eps_rank),
            residual=residual,
        )
    w1 = build_wl(l1, depth, codomain_depth=depth + k)
    w2 = build_wl(l2, depth, codomain_depth=depth + k)
    gamma = _gamma_operator(c, w1.domain)
    wl_gap = w1.max_abs_diff(FockOperator(w1.domain, w1.codomain, w2.to_csr() @ gamma))

    theta_gap = None
    if l1.m_mass() <= tol.eps_exact and l2.m_mass() <= tol.eps_exact:
        theta_gap = float(np.max(np.abs(l1.theta().eval_grid(grid) - l2.theta().eval_grid(grid) @ c)))
    return DouglasResult(factor=c, residual=residual, wl_gap=wl_gap, theta_gap=theta_gap)


# ---------------------------------------------------------------------------
# Coburn floor and hyponormality


@dataclass
class CoburnPoint:
    lam: complex
    sigma_min: float
    floor: float
    lower: float
    residual: float


def coburn_bound(
    sym: Symbol,
    depth: int,
    lambdas=DEFAULT_COBURN_POINTS,
    tol: Tolerance = DEFAULT_TOL,
) -> list:
    """Smallest singular value of (W - lambda I) against the floor 1 - |lambda|.

    Only meaningful for isometric symbols, where the rectangular build is
    the exact restriction of the infinite map and the floor holds for
    every |lambda| < 1: an isometry cannot pull a unit vector closer to
    lambda times itself than the triangle inequality allows.

    Route: numerics.sparse_sigma_min on the sparse W - lambda I, which
    never densifies the map.  The floor is passed as its hint: the
    shift-invert shift sits at (1 - |lambda|)^2 just below the bottom of
    the Gram spectrum, whose carry paths cluster right above it, and
    ARPACK stops at the certificate's own residual bound (see
    sparse_sigma_min).  For |lambda| >= 1 the hint is 0 and the shift
    stays below zero.  Each point carries its certificate: lower is a
    bound no singular value goes below (inertia of the Gram matrix) and
    residual the Ritz residual; neither reads the hint, so a floor that
    fails to hold costs a refusal, not a wrong value.  A failed
    certificate or a solver that does not converge raises
    SpectralUncertified.
    """
    _require_isometric(sym, tol)
    w = build_wl(sym, depth)
    a, inc = w.to_csr(), sparse.eye(*w.shape, dtype=complex, format="csr")
    out = []
    for lam in lambdas:
        lam = complex(lam)
        floor = 1.0 - abs(lam)
        cert = sparse_sigma_min(a - lam * inc, tol, floor)
        out.append(CoburnPoint(lam, cert.value, floor, cert.lower, cert.residual))
    return out


@dataclass
class HypoProbe:
    necessary_condition: bool
    sigma_min_l: float
    witness_word: tuple | None
    witness_slot: int | None
    witness_gap: float

    def to_dict(self):
        return asdict(self)


def hyponormality_probe(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL) -> HypoProbe:
    """Necessary expansivity condition plus a basis-vector witness search.

    Hyponormality forces ||L eta|| >= ||eta|| once n >= 2, so
    sigma_min(L) < 1 already refutes it.  The witness search maximizes
    ||W* x||^2 - ||W x||^2 over canonical basis vectors x; both norms are
    exact at this truncation (images of depth-m vectors stay within
    depth m plus symbol depth, adjoint images within depth m).
    """
    if sym.n < 2:
        raise ValueError("the expansivity obstruction needs n >= 2")
    return _hyponormality_probe(sym, build_wl(sym, depth), tol)


def _hyponormality_probe(sym: Symbol, w: FockOperator, tol: Tolerance) -> HypoProbe:
    # hyponormality_probe on a map already built, which classify shares
    sigma_min_l = sigma_min(sym.matrix())
    necessary = sigma_min_l >= 1.0 - tol.eps_exact

    star = build_wl_adjoint(sym, w.domain.depth)
    fwd = w.column_norms()
    back = star.column_norms()
    gaps = back**2 - fwd**2
    j = int(np.argmax(gaps))
    word, slot = w.domain.pair(j)
    return HypoProbe(
        necessary_condition=necessary,
        sigma_min_l=sigma_min_l,
        witness_word=word,
        witness_slot=slot,
        witness_gap=float(gaps[j]),
    )


def _square_sigma_min(w: FockOperator) -> float:
    # smallest singular value of the square compression, from the carry core
    s, ones = carry_singular_values(w.restrict_rows(w.domain.size))
    return float(min(s[-1], 1.0) if ones else s[-1])


def defect_projection_rank(sym: Symbol, depth: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of I - W W* compressed to the domain window.

    For an isometric symbol with a stabilized defect this is the defect
    dimension again (the compression of the defect projection), computed
    here from the forward build alone.
    """
    w = build_wl(sym, depth)
    rows = w.restrict_rows(w.domain.size).toarray()
    p = np.eye(rows.shape[0]) - rows @ rows.conj().T
    return numerical_rank(p, tol)


# ---------------------------------------------------------------------------
# aggregate classification


@dataclass
class ClassificationReport:
    n: int
    d: int
    k: int
    depth: int
    isometric: bool
    isometry_dev: float
    unitary: bool
    unitary_dev: float
    invertible: bool | None
    invertible_checked: bool
    sigma_min_square: dict | None
    defect_dim: int | None
    defect_stable: bool | None
    el_dim: int
    kernel_dim: int
    el_minus_range_dim: int
    fredholm: int | None
    mult_wl: int | None
    mult_mtheta: int | None
    norm: NormReport
    hypo_necessary: bool | None
    hypo_gap: float | None
    criteria: dict

    def to_dict(self):
        renamed = {"k": "K", "fredholm": "fredholm_index"}
        return {renamed.get(key, key): value for key, value in asdict(self).items()}


def classify(
    sym: Symbol,
    depth: int,
    tol: Tolerance = DEFAULT_TOL,
    grid: int = DEFAULT_BOUNDARY_GRID,
    invertibility: bool = True,
) -> ClassificationReport:
    """Full structural report at one truncation depth.

    Certificate refusals from the invertibility test (boundary zeros of
    det) propagate; pass invertibility=False to skip that part.  Each
    verdict is tagged with the criterion it instantiates.
    """
    iso_dev = isometry_deviation(sym, tol)
    isometric = iso_dev <= tol.eps_exact

    off_vacuum = max((abs(value) for (word, _, _), value in sym.entries.items() if word), default=0.0)
    l0 = sym.coefficient_operator(0)
    eye = np.eye(sym.d)
    unitary_dev = max(
        off_vacuum,
        float(np.max(np.abs(l0.conj().T @ l0 - eye))),
        float(np.max(np.abs(l0 @ l0.conj().T - eye))),
    )
    unitary = unitary_dev <= tol.eps_exact

    # the depth-D map serves the norm, the square floors at depths D - 1
    # and D and the hyponormality probe
    w = build_wl(sym, depth)
    invertible = None
    sigma_min_square = None
    if invertibility:
        try:
            invertible = is_invertible_hinf(sym.theta(), grid)
        except IdenticallySingular:
            invertible = False
        sigma_min_square = {}
        for m in range(max(depth - 1, 0), depth + 1):
            # deeper bases extend shallower ones by index, so the leading
            # block of w is the depth-m map
            basis = fock.enumerate_basis(sym.n, m, sym.d)
            square = FockOperator(basis, basis, w.data[: basis.size, : basis.size])
            sigma_min_square[m] = _square_sigma_min(square)

    basis_defect, stable, _ = defect_with_stability(sym, max(depth, 1), tol)
    defect_dim = basis_defect.dim if isometric else None
    fredholm = None
    mult_wl = None
    mult_mtheta = None
    if isometric and stable:
        fredholm = -basis_defect.dim
        if depth >= 2 * sym.K - 1:  # the floor of wold_multiplicity
            mult_wl, mult_mtheta = basis_defect.dim, _mtheta_multiplicity(sym, depth, basis_defect, tol)

    norm = _norm_report(sym, w, grid, tol)

    hypo_necessary = None
    hypo_gap = None
    if sym.n >= 2:
        probe = _hyponormality_probe(sym, w, tol)
        hypo_necessary = probe.necessary_condition
        hypo_gap = probe.witness_gap

    criteria = {
        "isometric": "interior-support-free + inner-symbol",
        "unitary": "vacuum-supported + unitary-constant-block",
        "invertible": "det-winding-zero + boundary-margin",
        "fredholm_index": "minus-defect-dimension",
        "wold": "defect-dim vs analytic-kernel-dim",
        "norm": "max(1, symbol-boundary-sup) when interior-support-free",
    }

    return ClassificationReport(
        n=sym.n,
        d=sym.d,
        k=sym.K,
        depth=depth,
        isometric=isometric,
        isometry_dev=iso_dev,
        unitary=unitary,
        unitary_dev=unitary_dev,
        invertible=invertible,
        invertible_checked=invertibility,
        sigma_min_square=sigma_min_square,
        defect_dim=defect_dim,
        defect_stable=stable,
        el_dim=basis_defect.el_dim,
        kernel_dim=basis_defect.stacked_kernel_dim,
        el_minus_range_dim=basis_defect.el_minus_range_dim,
        fredholm=fredholm,
        mult_wl=mult_wl,
        mult_mtheta=mult_mtheta,
        norm=norm,
        hypo_necessary=hypo_necessary,
        hypo_gap=hypo_gap,
        criteria=criteria,
    )
