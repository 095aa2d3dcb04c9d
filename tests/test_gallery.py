from functools import cached_property

import numpy as np
import pytest

from odolab.analysis import classify, hyponormality_probe
from odolab.errors import NotAProjection
from odolab.gallery import (
    GOLDEN_MOEBIUS_POINT,
    blaschke,
    build_entry,
    constant_plus_shift,
    diagonal,
    gallery_names,
    hypo_counterexample,
    moebius,
    projection_symbol,
    resolvent_shift,
    shift_symbol,
    vacuum_symbol,
)
from odolab.operator import build_wl
from odolab.symbol import is_inner_exact, sup_norm


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
    sym = diagonal(3).symbol
    assert sym.entry((), 1, 1) == 1.0
    assert sym.entry((1,), 2, 2) == 1.0
    assert sym.entry((1, 1), 3, 3) == 1.0
    assert sym.K == 2


def test_moebius_golden_constant_coefficient():
    entry = moebius()
    c0 = entry.symbol.entry((), 1, 1)
    # -a at the golden point, and the closed radical form of the same number
    assert abs(c0 - (-GOLDEN_MOEBIUS_POINT)) < 1e-15
    assert abs(c0 - entry.expected["c0_golden"]) < 1e-12
    assert abs(c0 - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_moebius_tail_bound_value():
    entry = moebius(R=40)
    assert entry.tail_bound == pytest.approx(abs(GOLDEN_MOEBIUS_POINT) ** 40)
    assert entry.tail_bound < 5e-9


def test_moebius_truncation_nearly_inner():
    entry = moebius(R=40)
    res = is_inner_exact(entry.symbol.theta())
    assert not res.is_inner
    assert res.deviation <= 10.0 * entry.tail_bound
    assert res.deviation <= 1e-7


def test_blaschke_single_factor_matches_moebius():
    a = 0.37 - 0.21j
    ent_b = blaschke([a], 15)
    ent_m = moebius(a, 15)
    for r in range(16):
        word = (1,) * r
        assert ent_b.symbol.entry(word, 1, 1) == pytest.approx(ent_m.symbol.entry(word, 1, 1))


def test_blaschke_pure_zero_is_exact_shift():
    entry = blaschke([0.0, 0.0], 8)
    assert entry.tail_bound == 0.0
    assert entry.expected["isometric_exact"]
    # (z - 0)^2 = z^2
    assert entry.symbol.entry((1, 1), 1, 1) == pytest.approx(1.0)
    assert entry.symbol.entry((1,), 1, 1) == 0.0


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke([1.0], 8)


def test_resolvent_first_column_norm():
    entry = resolvent_shift(d=4, R=12)
    sym = entry.symbol
    col = [sym.entry((1,) * r, 1 + r, 1) for r in range(4)]
    norm_sq = sum(abs(c) ** 2 for c in col)
    assert norm_sq == pytest.approx(85.0 / 256.0)
    assert entry.expected["first_column_norm_sq"] == pytest.approx(85.0 / 256.0)
    assert entry.tail_bound == 0.0


def test_resolvent_last_column_weight():
    entry = resolvent_shift(d=3, R=6)
    sym = entry.symbol
    assert sym.entry((), 3, 3) == pytest.approx(0.5)
    assert sym.entry((1,), 3, 3) == 0.0  # slot cap: nothing above d


def test_resolvent_requires_room():
    with pytest.raises(ValueError):
        resolvent_shift(d=1)


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


def test_out_of_range_parameters_are_refused():
    for params in ({"d": 2, "rank": 3}, {"rank": -1}, {"d": 3, "rank": 4}):
        with pytest.raises(ValueError, match="0 <= rank <= d"):
            build_entry("projection", **params)
    for name in ("blaschke", "moebius", "resolvent_shift"):
        with pytest.raises(ValueError, match="R >= 0"):
            build_entry(name, R=-1)
    with pytest.raises(ValueError, match="d=5 disagrees with 2 phases"):
        build_entry("vacuum", d=5, phases=(1, 1j))


def test_range_ends_still_build():
    assert build_entry("projection", d=3, rank=0).expected["defect_dim"] == 0
    assert build_entry("projection", d=3, rank=3).expected["defect_dim"] == 3
    for name in ("blaschke", "moebius", "resolvent_shift"):
        assert build_entry(name, R=0).symbol.K == 0


def test_vacuum_dimension_follows_the_phases():
    assert build_entry("vacuum").symbol.d == 2
    assert build_entry("vacuum", d=3).symbol.d == 3
    assert build_entry("vacuum", phases=(1, 1j, -1)).symbol.d == 3
    assert build_entry("vacuum", d=2, phases=(1, 1j)).symbol.d == 2


def test_constant_plus_shift_rejects_degenerate():
    with pytest.raises(ValueError):
        constant_plus_shift(0.0)
    with pytest.raises(ValueError):
        constant_plus_shift(1.0)


def test_hypo_counterexample_needs_branching():
    with pytest.raises(ValueError):
        hypo_counterexample(n=1)
    entry = hypo_counterexample(n=2)
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


def test_registry_rejects_wrong_param_types():
    with pytest.raises(ValueError, match="'shift' cannot take k='foo'"):
        build_entry("shift", k="foo")
    with pytest.raises(ValueError, match="'blaschke' cannot take zeros=2"):
        build_entry("blaschke", zeros=2)


class _Quantities:
    """The library quantities an entry's frozen values stand for, each
    computed on first use at depth 4 (8 for one letter)."""

    def __init__(self, entry):
        self.entry = entry
        self.sym = entry.symbol
        self.depth = 8 if self.sym.n == 1 else 4

    @cached_property
    def report(self):
        # the winding certificate refuses on 1 + z, so only entries that
        # freeze invertibility ask for it
        return classify(self.sym, self.depth, invertibility="invertible" in self.entry.expected)

    @cached_property
    def probe(self):
        return hyponormality_probe(self.sym, self.depth)

    def vacuum_column_norm_sq(self):
        w = build_wl(self.sym, self.depth)
        return w.column_norms()[w.domain.index((), 1)] ** 2


def _equal(got, want, tail):
    return got == want


def _near(got, want, tail):
    return abs(got - want) <= 1e-12


# frozen key: (read off the map?, the quantity it freezes, the comparison)
FROZEN = {
    "isometric_exact": (True, lambda q: q.report.isometric, _equal),
    "unitary": (True, lambda q: q.report.unitary, _equal),
    "defect_dim": (True, lambda q: q.report.defect_dim, _equal),
    "fredholm_index": (True, lambda q: q.report.fredholm, _equal),
    "mult": (True, lambda q: (q.report.mult_wl, q.report.mult_mtheta),
             lambda got, want, tail: got == (want, want)),
    "invertible": (True, lambda q: q.report.invertible, _equal),
    "hypo_necessary": (True, lambda q: q.report.hypo_necessary, _equal),
    "isometry_dev": (True, lambda q: q.report.isometry_dev, _near),
    "sigma_min_l": (True, lambda q: q.probe.sigma_min_l, _near),
    "witness_gap": (True, lambda q: q.probe.witness_gap, _near),
    "witness_word": (True, lambda q: q.probe.witness_word, _equal),
    "sigma_min_sq_bound": (True, lambda q: q.probe.sigma_min_l**2,
                           lambda got, bound, tail: got <= bound + tail + 1e-12),
    "column_norm_sq": (True, _Quantities.vacuum_column_norm_sq, _near),
    "c0": (False, lambda q: q.sym.theta().coefficient(0)[0, 0], _near),
    "c0_golden": (False, lambda q: abs(q.sym.theta().coefficient(0)[0, 0]), _near),
    "first_column_norm_sq": (False, lambda q: np.linalg.norm(q.sym.matrix()[:, 0]) ** 2, _near),
    "sup_norm": (False, lambda q: sup_norm(q.sym.theta()),
                 lambda bracket, want, tail: bracket[0] <= want <= bracket[1]),
    "inner_limit": (False, lambda q: is_inner_exact(q.sym.theta()).deviation,
                    lambda dev, want, tail: (dev <= 10.0 * tail) == want),
}

# at n = 2, depth 4, the series entries' default truncations put the
# codomain past the basis cap (moebius) or near it (blaschke), so their
# map-side values are checked at R = 4, as the benchmark does
SMALL = {"moebius": {"R": 4}, "blaschke": {"R": 4}}


def test_every_frozen_value_holds():
    for name in gallery_names():
        runs = [(SMALL.get(name, {}), True)] + ([({}, False)] if name in SMALL else [])
        for params, on_map in runs:
            entry = build_entry(name, **params)
            q = _Quantities(entry)
            for key, want in entry.expected.items():
                assert key in FROZEN, "frozen key %r of %s is checked by nothing" % (key, name)
                needs_map, quantity, holds = FROZEN[key]
                if needs_map and not on_map:
                    continue
                got = quantity(q)
                assert holds(got, want, entry.tail_bound), \
                    "%s %r: %s is %r, frozen %r" % (name, params, key, got, want)
