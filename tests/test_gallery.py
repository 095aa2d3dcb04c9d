import numpy as np
import pytest

from odolab.errors import NotAProjection
from odolab.gallery import (
    GOLDEN_MOEBIUS_POINT,
    blaschke_symbol,
    build_entry,
    constant_plus_shift_symbol,
    diagonal_symbol,
    gallery_names,
    hypo_counterexample_symbol,
    moebius_symbol,
    projection_symbol,
    resolvent_shift_symbol,
    shift_symbol,
    vacuum_symbol,
)
from odolab.symbol import is_inner_exact


def test_shift_symbol_entries():
    sym = shift_symbol(2, n=3, d=2)
    assert sym.entry((1, 1), 1, 1) == 1.0
    assert sym.entry((1, 1), 2, 2) == 1.0
    assert sym.entry((1, 1), 1, 2) == 0.0
    assert sym.K == 2


def test_vacuum_symbol_matches_matrix():
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    sym = vacuum_symbol(u, n=2)
    assert sym.entry((), 1, 2) == 1.0
    assert sym.entry((), 2, 1) == 1.0
    assert sym.entry((), 1, 1) == 0.0
    assert sym.K == 0


def test_diagonal_symbol_degrees():
    sym = diagonal_symbol(3)
    assert sym.entry((), 1, 1) == 1.0
    assert sym.entry((1,), 2, 2) == 1.0
    assert sym.entry((1, 1), 3, 3) == 1.0
    assert sym.K == 2


def test_moebius_golden_constant_coefficient():
    entry = moebius_symbol()
    c0 = entry.symbol.entry((), 1, 1)
    # -a at the golden point, and the closed radical form of the same number
    assert abs(c0 - (-GOLDEN_MOEBIUS_POINT)) < 1e-15
    assert abs(c0 - entry.expected["c0_golden"]) < 1e-12
    assert abs(c0 - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_moebius_tail_bound_value():
    entry = moebius_symbol(r_trunc=40)
    assert entry.tail_bound == pytest.approx(abs(GOLDEN_MOEBIUS_POINT) ** 40)
    assert entry.tail_bound < 5e-9


def test_moebius_truncation_nearly_inner():
    entry = moebius_symbol(r_trunc=40)
    res = is_inner_exact(entry.symbol.theta())
    assert not res.is_inner
    assert res.deviation <= 10.0 * entry.tail_bound
    assert res.deviation <= 1e-7


def test_blaschke_single_factor_matches_moebius():
    a = 0.37 - 0.21j
    ent_b = blaschke_symbol([a], 15)
    ent_m = moebius_symbol(a, 15)
    for r in range(16):
        word = (1,) * r
        assert ent_b.symbol.entry(word, 1, 1) == pytest.approx(ent_m.symbol.entry(word, 1, 1))


def test_blaschke_pure_zero_is_exact_shift():
    entry = blaschke_symbol([0.0, 0.0], 8)
    assert entry.tail_bound == 0.0
    assert entry.expected["isometric_exact"]
    # (z - 0)^2 = z^2
    assert entry.symbol.entry((1, 1), 1, 1) == pytest.approx(1.0)
    assert entry.symbol.entry((1,), 1, 1) == 0.0


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke_symbol([1.0], 8)


def test_resolvent_first_column_norm():
    entry = resolvent_shift_symbol(d=4, r_trunc=12)
    sym = entry.symbol
    col = [sym.entry((1,) * r, 1 + r, 1) for r in range(4)]
    norm_sq = sum(abs(c) ** 2 for c in col)
    assert norm_sq == pytest.approx(85.0 / 256.0)
    assert entry.expected["first_column_norm_sq"] == pytest.approx(85.0 / 256.0)
    assert entry.tail_bound == 0.0


def test_resolvent_last_column_weight():
    entry = resolvent_shift_symbol(d=3, r_trunc=6)
    sym = entry.symbol
    assert sym.entry((), 3, 3) == pytest.approx(0.5)
    assert sym.entry((1,), 3, 3) == 0.0  # slot cap: nothing above d


def test_resolvent_requires_room():
    with pytest.raises(ValueError):
        resolvent_shift_symbol(d=1)


def test_projection_validates_input():
    with pytest.raises(NotAProjection):
        projection_symbol(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotAProjection):
        projection_symbol(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projection_entry_split():
    entry = projection_symbol(np.diag([1.0, 0.0, 1.0]))
    sym = entry.symbol
    assert sym.entry((1,), 1, 1) == 1.0
    assert sym.entry((), 2, 2) == 1.0
    assert sym.entry((1,), 2, 2) == 0.0
    assert entry.expected["defect_dim"] == 2


def test_constant_plus_shift_rejects_degenerate():
    with pytest.raises(ValueError):
        constant_plus_shift_symbol(0.0)
    with pytest.raises(ValueError):
        constant_plus_shift_symbol(1.0)


def test_hypo_counterexample_needs_branching():
    with pytest.raises(ValueError):
        hypo_counterexample_symbol(n=1)
    entry = hypo_counterexample_symbol(n=2)
    assert entry.expected["witness_gap"] == 1.0


def test_registry_round_trip():
    names = gallery_names()
    assert "shift" in names and "moebius" in names
    for name in names:
        entry = build_entry(name)
        assert entry.symbol.support_words() is not None
    with pytest.raises(KeyError):
        build_entry("no_such_entry")


def test_registry_respects_params():
    entry = build_entry("shift", k=3, d=2)
    assert entry.expected["defect_dim"] == 6
    assert entry.expected["fredholm_index"] == -6
    entry = build_entry("projection", d=4, rank=1)
    assert entry.expected["defect_dim"] == 1


def test_registry_rejects_unknown_params():
    with pytest.raises(ValueError, match="no parameter foo .accepted: k, n, d."):
        build_entry("shift", foo=1)
    with pytest.raises(ValueError, match="accepted: zeros, R, n"):
        build_entry("blaschke", R=4, d=2)
