"""Property tests of the spectral routes over random symbols.

Symbols use words up to length 3 with n and d from 1 to 3.  Route one
(the carry/chain core) must reproduce the extreme singular values of the
map and of its square compression; route two (the certified sparse Coburn
floor) must reproduce the smallest singular value of W - lambda I on
random inner symbols away from the circle.  Both are checked against a
dense SVD of the whole map.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odolab import fock
from odolab.analysis import _square_sigma_min, coburn_bound
from odolab.operator import build_wl, carry_singular_values
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
def inner_symbols(draw):
    # Theta(z) = U diag(z^k_1, ..., z^k_d) V on the 1-chain: inner, isometric map
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
    return Symbol(n, d, entries)


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
    assert abs(_square_sigma_min(sym, depth) - dense[-1]) <= scale


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
