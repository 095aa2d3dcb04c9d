"""Property tests of the spectral and chain-sector routes over random symbols.

Symbols use words up to length 3 with n and d from 1 to 3.  Route one
(the carry/chain core) must reproduce the extreme singular values of the
map and of its square compression; route two (the certified sparse Coburn
floor) must reproduce the smallest singular value of W - lambda I on
random inner symbols away from the circle.  Both are checked against a
dense SVD of the whole map, also when its shift hint is wrong.  The
forward build's conjugate transpose must equal the closed-form adjoint
build, and its [1-chain rows, all-n chain columns] block cut to degrees
<= D must be the block Toeplitz truncation of the analytic symbol.  The
one-pass stability check of defect_with_stability is checked against two defect passes, and the Wold
pair and Fredholm index against the closed form on inner symbols.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from odolab import fock
from odolab.analysis import (
    _square_sigma_min, coburn_bound, defect, defect_with_stability, fredholm_index, wold_multiplicity,
)
from odolab.errors import SpectralUncertified
from odolab.numerics import sparse_sigma_min
from odolab.operator import (
    SubspaceSelector, block, build_wl, build_wl_adjoint, carry_singular_values, hardy_block_matrix,
    toeplitz_truncation,
)
from odolab.symbol import Symbol

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FINITE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def symbols(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    key = st.tuples(word, st.integers(1, d), st.integers(1, d))
    entries = draw(st.dictionaries(key, st.complex_numbers(max_magnitude=2.0, allow_nan=False), min_size=1, max_size=6))
    return Symbol(n, d, entries)


def unitary(elements, d):
    # Cayley transform of a Hermitian matrix: always unitary
    z = np.asarray(elements).reshape(2, d, d)
    h = (z[0] + 1j * z[1]) + (z[0] + 1j * z[1]).conj().T
    return np.linalg.solve(np.eye(d) + 1j * h, np.eye(d) - 1j * h)


@st.composite
def inner_cases(draw):
    # Theta(z) = U diag(z^k_1, ..., z^k_d) V on the 1-chain: inner, isometric
    # map with defect, multiplicity and minus the index all sum(ks)
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    u = unitary(draw(st.lists(FINITE, min_size=2 * d * d, max_size=2 * d * d)), d)
    v = unitary(draw(st.lists(FINITE, min_size=2 * d * d, max_size=2 * d * d)), d)
    entries = {}
    for r in sorted(set(ks)):
        theta_r = u @ np.diag([1.0 if k == r else 0.0 for k in ks]) @ v
        for s in range(d):
            for q in range(d):
                if theta_r[s, q] != 0:
                    entries[((1,) * r, s + 1, q + 1)] = complex(theta_r[s, q])
    return Symbol(n, d, entries), sum(ks)


def inner_symbols():
    return inner_cases().map(lambda case: case[0])


@st.composite
def z_minus_a(draw):
    # Theta(z) = z - a with |a| near 1: ill-conditioned chain sector
    a = draw(st.floats(0.9, 1.1)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    return Symbol(1, 1, {((1,), 1, 1): 1.0, ((), 1, 1): -a})


def depth_for(sym, cells):
    # deepest truncation whose dense map stays below the given cell count
    depth = 0
    while depth < 6 and (sym.d * fock.word_count(sym.n, depth + 1)) * (
            sym.d * fock.word_count(sym.n, depth + 1 + sym.K)) <= cells:
        depth += 1
    return depth


@SETTINGS
@given(symbols(), st.integers(0, 6))
def test_core_extremes_match_dense_svd(sym, want_depth):
    depth = min(want_depth, depth_for(sym, 400_000))
    w = build_wl(sym, depth)
    square = w.restrict_rows(w.domain.size)
    for op in (w, square):
        s, ones = carry_singular_values(op)
        full = np.concatenate([s, np.ones(ones)])
        dense = np.linalg.svd(op.toarray(), compute_uv=False)
        scale = 1e-12 * max(1.0, dense[0])
        assert abs(full.max() - dense[0]) <= scale
        assert abs(full.min() - dense[-1]) <= scale
        assert abs(op.sigma_max() - dense[0]) <= scale
    # classify's sigma_min_square reads the same square floor
    assert abs(_square_sigma_min(w) - dense[-1]) <= scale


@SETTINGS
@given(inner_symbols(), st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi), st.integers(0, 6))
def test_coburn_floor_matches_dense_svd(sym, radius, angle, want_depth):
    lam = radius * np.exp(1j * angle)
    depth = min(want_depth, depth_for(sym, 300_000))
    (point,) = coburn_bound(sym, depth, (lam,))
    w = build_wl(sym, depth)
    dense = np.linalg.svd(w.toarray() - lam * np.eye(*w.shape), compute_uv=False)[-1]
    assert abs(point.sigma_min - dense) <= 1e-12
    assert point.lower <= dense + 1e-15
    assert point.sigma_min >= point.floor - 1e-10


@SETTINGS
@given(inner_symbols(), st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2.0), st.integers(0, 6))
def test_sparse_floor_with_any_hint_matches_dense_or_refuses(sym, radius, angle, hint, want_depth):
    # the hint only places the shift: a wrong one may refuse, never mislead
    lam = radius * np.exp(1j * angle)
    depth = min(want_depth, depth_for(sym, 300_000))
    w = build_wl(sym, depth)
    dense = np.linalg.svd(w.toarray() - lam * np.eye(*w.shape), compute_uv=False)[-1]
    try:
        floor = sparse_sigma_min(w.to_csr() - lam * sparse.eye(*w.shape, dtype=complex, format="csr"), floor=hint)
    except SpectralUncertified:
        return
    assert abs(floor.value - dense) <= 1e-12
    assert floor.lower <= dense + 1e-15


@SETTINGS
@given(symbols(), st.integers(0, 4))
def test_adjoint_build_is_the_conjugate_transpose(sym, want_depth):
    # W_L* from the paper's formula, restricted to the domain rows
    depth = min(want_depth, depth_for(sym, 400_000))
    w = build_wl(sym, depth)
    star = build_wl_adjoint(sym, depth + sym.K).restrict_rows(w.domain.size)
    assert np.max(np.abs(w.toarray().conj().T - star.toarray()), initial=0.0) <= 1e-12


@SETTINGS
@given(symbols(), st.integers(0, 6))
def test_chain_block_is_the_toeplitz_truncation(sym, want_depth):
    # the Toeplitz realisation: W_L maps the all-n chain copy of H^2 onto
    # the 1-chain copy as T_Theta, whatever L holds off the 1-chain
    depth = min(want_depth, depth_for(sym, 400_000))
    chain = block(build_wl(sym, depth), SubspaceSelector.M_PERP, SubspaceSelector.N_PERP)
    rows = hardy_block_matrix(chain)[: (depth + 1) * sym.d]
    assert np.max(np.abs(rows - toeplitz_truncation(sym.theta(), depth + 1))) <= 1e-12


def projector(basis):
    return basis @ basis.conj().T


@SETTINGS
@given(st.one_of(symbols(), z_minus_a()), st.integers(1, 40))
def test_stability_matches_two_defect_passes(sym, want_depth):
    # reference: the defect recomputed one depth below
    depth = min(want_depth, 60 // sym.d)
    here, stable, below = defect_with_stability(sym, depth)
    ref_here, ref_below = defect(sym, depth), defect(sym, depth - 1)
    assert (here.dim, stable, below) == (ref_here.dim, ref_here.dim == ref_below.dim, ref_below.dim)
    # E_L at depth D is the degree-0 slots plus the depth D - 1 defect space
    lifted = np.zeros((here.el_basis.shape[0], sym.d + ref_below.dim), dtype=complex)
    lifted[: sym.d, : sym.d] = np.eye(sym.d)
    lifted[sym.d:, sym.d:] = ref_below.defect_basis
    assert np.max(np.abs(projector(here.el_basis) - projector(lifted))) <= 1e-8


@SETTINGS
@given(inner_cases(), st.integers(0, 4))
def test_wold_and_index_on_inner_symbols(case, extra):
    sym, total = case
    depth = max(1, 2 * sym.K - 1) + extra
    assert wold_multiplicity(sym, depth) == (total, total)
    assert fredholm_index(sym, depth) == -total
