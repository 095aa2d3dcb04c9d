import numpy as np
import pytest

from odolab import analysis
from odolab.analysis import (
    ClassificationReport,
    _chain_sector,
    classify,
    coburn_bound,
    defect,
    defect_projection_rank,
    defect_with_stability,
    douglas_factor,
    fredholm_index,
    hyponormality_probe,
    isometry_deviation,
    norm_report,
    wold_multiplicity,
)
from odolab.errors import BoundaryZeroSuspected, NotIsometric, RangeNotContained
from odolab.numerics import numerical_rank
from odolab.operator import build_wl, toeplitz_truncation
from odolab.symbol import Symbol
from odolab.verify import random_symbol


def shift_like(k, n=2, d=1):
    return Symbol(n, d, {(((1,) * k), s, s): 1.0 for s in range(1, d + 1)})


def vacuum_like(u, n=2):
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return Symbol(n, d, {((), s, q): u[s - 1, q - 1] for s in range(1, d + 1) for q in range(1, d + 1)})


def diagonal_like(d, n=2):
    return Symbol(n, d, {(((1,) * p), p + 1, p + 1): 1.0 for p in range(d)})


def projection_like(diag, n=2):
    d = len(diag)
    p = np.diag(np.asarray(diag, dtype=complex))
    comp = np.eye(d) - p
    entries = {}
    for s in range(1, d + 1):
        for q in range(1, d + 1):
            if comp[s - 1, q - 1]:
                entries[((), s, q)] = comp[s - 1, q - 1]
            if p[s - 1, q - 1]:
                entries[((1,), s, q)] = p[s - 1, q - 1]
    return Symbol(n, d, entries)


def hypo_like(n=2):
    return Symbol(n, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0})


def test_isometry_deviation_values():
    assert isometry_deviation(shift_like(2, d=2)) == 0.0
    assert isometry_deviation(hypo_like()) == pytest.approx(1.0)
    # interior support alone breaks the criterion
    sym = Symbol(2, 1, {((1,), 1, 1): 1.0, ((2,), 1, 1): 0.5})
    assert isometry_deviation(sym) >= 0.5


def test_defect_shift_table():
    for k in (1, 2, 3):
        for d in (1, 2):
            basis = defect(shift_like(k, d=d), 5)
            assert basis.dim == k * d
            assert basis.stacked_kernel_dim == k * d
            assert basis.el_minus_range_dim == k * d
            # defect columns really are annihilated by the stacked map
            if basis.dim:
                resid = basis.stacked_matrix @ basis.defect_basis
                assert np.max(np.abs(resid)) <= 1e-10


def _scalar_chain_column(sym, p, q, depth):
    # 1-chain part of the p-shifted column of L, truncated at depth
    d = sym.d
    v = np.zeros((depth + 1) * d, dtype=complex)
    for r in range(0, depth - p + 1):
        for s in range(1, d + 1):
            v[(p + r) * d + (s - 1)] = sym.entry((1,) * r, s, q)
    return v


def _scalar_stacked(sym, depth):
    # row block p holds L* after p backward shifts
    d = sym.d
    out = np.zeros(((depth + 1) * d, (depth + 1) * d), dtype=complex)
    for p in range(depth + 1):
        for m in range(p, depth + 1):
            for s in range(1, d + 1):
                for q in range(1, d + 1):
                    out[p * d + (q - 1), m * d + (s - 1)] = np.conj(sym.entry((1,) * (m - p), s, q))
    return out


def test_chain_routes_match_scalar_reference():
    # no two terms share an entry, so the match is exact
    rng = np.random.default_rng(707)
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for _ in range(3):
                sym = random_symbol(rng, n, d, 3)
                for depth in range(7):
                    cols = [_scalar_chain_column(sym, p, q, depth) for p in range(depth + 1) for q in range(1, d + 1)]
                    assert np.array_equal(_chain_sector(sym, depth), np.column_stack(cols))
                    assert np.array_equal(defect(sym, depth).stacked_matrix, _scalar_stacked(sym, depth))


def test_defect_vacuum_and_diagonal():
    assert defect(vacuum_like(np.eye(2)), 5).dim == 0
    assert defect(diagonal_like(2), 5).dim == 1
    assert defect(diagonal_like(3), 5).dim == 3
    assert defect(projection_like([1, 1, 0]), 5).dim == 2


def test_defect_el_space_shift():
    # for the k-shift the positively shifted range covers degrees above k,
    # so the generator space is degrees 0..k and the defect drops degree k
    basis = defect(shift_like(2), 5)
    assert basis.el_dim == 3  # degrees 0, 1, 2
    assert basis.dim == 2


def test_defect_stability_flags():
    _, stable, _ = defect_with_stability(shift_like(2), 5)
    assert stable
    # a symbol with zero 1-chain part: every chain vector is annihilated,
    # so the computed space grows with depth
    sym = Symbol(2, 1, {((2,), 1, 1): 1.0})
    here, stable, below_dim = defect_with_stability(sym, 5)
    assert not stable
    assert here.dim == below_dim + 1


def test_defect_with_stability_runs_one_defect_pass(monkeypatch):
    # the depth - 1 dimension is read off the depth-D pass, not recomputed
    calls = []
    original = analysis.defect

    def counted(sym, depth, tol=analysis.DEFAULT_TOL):
        calls.append(depth)
        return original(sym, depth, tol)

    monkeypatch.setattr(analysis, "defect", counted)
    here, stable, below = defect_with_stability(shift_like(2, d=2), 5)
    assert calls == [5]
    assert (here.dim, stable, below) == (4, True, 4)


def test_fredholm_index_values():
    assert fredholm_index(shift_like(1), 5) == -1
    assert fredholm_index(shift_like(3, d=2), 5) == -6
    assert fredholm_index(vacuum_like(np.diag([1.0, 1.0j])), 5) == 0
    assert fredholm_index(projection_like([1, 1, 0]), 5) == -2
    with pytest.raises(NotIsometric):
        fredholm_index(hypo_like(), 5)


def test_wold_multiplicity_matches_defect():
    cases = [
        shift_like(1),
        shift_like(2),
        shift_like(3, d=2),
        vacuum_like(np.eye(2)),
        diagonal_like(2),
        diagonal_like(3),
        projection_like([1, 0, 1]),
    ]
    for sym in cases:
        mult_wl, mult_mtheta = wold_multiplicity(sym, 5)
        assert mult_wl == mult_mtheta
        assert mult_wl == defect(sym, 5).dim
    with pytest.raises(NotIsometric):
        wold_multiplicity(hypo_like(), 5)


def test_wold_multiplicity_needs_depth_2k_minus_1():
    # the model space of an inner Theta of degree K lies in degrees < K,
    # and the symbol side sees degrees <= depth - K: short below 2K - 1
    u, v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), np.array([[0.6, 0.8j], [0.8j, 0.6]])
    mixed = Symbol(1, 2, {
        (((1,) * r), s + 1, q + 1): (u @ np.diag([r == 1, r == 2]) @ v)[s, q]
        for r in (1, 2) for s in range(2) for q in range(2)
    })
    for sym, mult in ((shift_like(2, n=1), 2), (mixed, 3)):
        with pytest.raises(ValueError, match="2K - 1"):
            wold_multiplicity(sym, 2)
        assert wold_multiplicity(sym, 3) == (mult, mult)
        shallow = classify(sym, 2, invertibility=False)
        assert shallow.mult_wl is None and shallow.mult_mtheta is None
        assert shallow.fredholm == -mult
        deep = classify(sym, 3, invertibility=False)
        assert deep.mult_wl == deep.mult_mtheta == mult


def test_norm_report_interior_free():
    rep = norm_report(hypo_like(), 8)
    assert rep.applicable
    assert rep.bracket_lower == pytest.approx(2.0, abs=1e-12)
    assert rep.formula_value >= 2.0
    assert rep.formula_value <= 2.0 + 0.002
    assert rep.sigma_l == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.sigma_max <= rep.formula_value + 1e-9
    # deeper truncations push sigma_max up toward the formula
    shallow = norm_report(hypo_like(), 3)
    assert shallow.sigma_max <= rep.sigma_max + 1e-12


def test_norm_report_not_applicable():
    sym = Symbol(2, 1, {((2,), 1, 1): 1.0, ((), 1, 1): 0.3})
    rep = norm_report(sym, 4)
    assert not rep.applicable
    assert rep.formula_value is None
    assert rep.sigma_max > 0


def test_douglas_round_trip():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    l2 = shift_like(1, d=2)
    l1 = Symbol(2, 2, {((1,), s, q): a[s - 1, q - 1] for s in (1, 2) for q in (1, 2) if a[s - 1, q - 1] != 0})
    res = douglas_factor(l1, l2, 4)
    assert np.max(np.abs(res.factor - a)) <= 1e-12
    assert res.wl_gap <= 1e-12
    assert res.theta_gap is not None and res.theta_gap <= 1e-10


def test_douglas_theta_gap_on_the_boundary_grid():
    # Theta_1 = Theta_2 C up to rounding, with C a unimodular scalar; the
    # vectorised gap is the max of the scalar evaluations on the same grid
    l2 = Symbol(1, 1, {((), 1, 1): 0.6, ((1,), 1, 1): 0.48, ((1, 1), 1, 1): -0.64})
    c = np.exp(0.3j)
    l1 = Symbol(1, 1, {key: value * c for key, value in l2.entries.items()})
    for grid in (16, 128):
        res = douglas_factor(l1, l2, 2, grid=grid)
        t1, t2 = l1.theta(), l2.theta()
        zs = np.exp(2j * np.pi * np.arange(grid) / grid)
        want = max(float(np.max(np.abs(t1(z) - t2(z) @ res.factor))) for z in zs)
        assert res.theta_gap == pytest.approx(want, abs=1e-15)
        assert res.theta_gap <= 1e-14


def test_douglas_identity_factor_for_self():
    for sym in (shift_like(1), diagonal_like(2), vacuum_like(np.eye(2)), hypo_like()):
        res = douglas_factor(sym, sym, 3)
        assert np.max(np.abs(res.factor - np.eye(sym.d))) <= 1e-12
        assert res.wl_gap <= 1e-12


def test_douglas_negative_control():
    l1 = vacuum_like(np.eye(2))
    l2 = shift_like(1, d=2)
    with pytest.raises(RangeNotContained) as info:
        douglas_factor(l1, l2, 3)
    # the vacuum column is orthogonal to the shifted range, full mass remains
    assert info.value.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_coburn_floor_values():
    pts = coburn_bound(shift_like(1), 5)
    for pt in pts:
        assert pt.sigma_min >= pt.floor - 1e-10
    # lambda = 0 on an isometry: exactly 1
    assert pts[0].sigma_min == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotIsometric):
        coburn_bound(hypo_like(), 4)


def test_hyponormality_probe_counterexample():
    probe = hyponormality_probe(hypo_like(), 4)
    # expansivity holds (sigma_min = sqrt(2)) yet the witness refutes
    assert probe.sigma_min_l == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert probe.necessary_condition
    assert probe.witness_gap == pytest.approx(1.0, abs=1e-12)
    assert probe.witness_word == (1,)


def test_hyponormality_probe_contraction():
    # strictly contractive symbol fails the necessary condition
    sym = Symbol(2, 1, {((1,), 1, 1): 0.5})
    probe = hyponormality_probe(sym, 4)
    assert not probe.necessary_condition
    assert probe.sigma_min_l == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hyponormality_probe(Symbol(1, 1, {((), 1, 1): 1.0}), 4)


def test_hyponormality_gap_nonpositive_for_isometries():
    for sym in (shift_like(1), shift_like(2, d=2), vacuum_like(np.eye(2))):
        probe = hyponormality_probe(sym, 4)
        assert probe.witness_gap <= 1e-12


def test_defect_projection_rank_corroborates():
    for sym, expect in (
        (shift_like(1), 1),
        (shift_like(2, d=2), 4),
        (vacuum_like(np.eye(2)), 0),
        (projection_like([1, 1, 0]), 2),
    ):
        assert defect_projection_rank(sym, 5) == expect


def test_classify_shift():
    rep = classify(shift_like(1), 5)
    assert isinstance(rep, ClassificationReport)
    assert rep.isometric and not rep.unitary
    assert rep.invertible is False
    assert rep.fredholm == -1
    assert rep.mult_wl == rep.mult_mtheta == 1
    assert rep.defect_stable
    d = rep.to_dict()
    assert d["fredholm_index"] == -1
    assert d["criteria"]["isometric"]


def test_classify_vacuum_unitary():
    rep = classify(vacuum_like(np.diag([1.0, 1.0j])), 5)
    assert rep.unitary and rep.isometric
    assert rep.invertible is True
    assert rep.fredholm == 0
    assert rep.defect_dim == 0
    # gram identity goes with the isometry verdict
    w = build_wl(vacuum_like(np.diag([1.0, 1.0j])), 3)
    gram = (w.conjugate_transpose().to_csr() @ w.to_csr()).toarray()
    assert np.max(np.abs(gram - np.eye(w.domain.size))) <= 1e-10


def test_classify_constant_plus_shift():
    sym = Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 0.5})
    rep = classify(sym, 5)
    assert rep.invertible is True
    assert not rep.isometric
    assert rep.isometry_dev == pytest.approx(0.5)
    assert rep.fredholm is None
    assert rep.sigma_min_square is not None
    assert min(rep.sigma_min_square.values()) >= 0.45


def test_classify_skips_invertibility_on_request():
    rep = classify(hypo_like(), 4, invertibility=False)
    assert rep.invertible is None
    assert not rep.invertible_checked
    assert rep.hypo_necessary is True
    assert rep.hypo_gap == pytest.approx(1.0, abs=1e-12)


def test_classify_propagates_boundary_refusal():
    with pytest.raises(BoundaryZeroSuspected):
        classify(hypo_like(), 4, invertibility=True)


def test_classify_isometric_iff_gram():
    rng = np.random.default_rng(31)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        entries = {}
        for _ in range(5):
            m = int(rng.integers(0, 3))
            word = tuple(int(a) for a in rng.integers(1, n + 1, size=m))
            entries[(word, int(rng.integers(1, d + 1)), int(rng.integers(1, d + 1)))] = complex(
                rng.standard_normal(), rng.standard_normal()
            )
        sym = Symbol(n, d, entries)
        rep = classify(sym, 3, invertibility=False)
        w = build_wl(sym, 3)
        gram = (w.conjugate_transpose().to_csr() @ w.to_csr()).toarray()
        gram_ok = np.max(np.abs(gram - np.eye(w.domain.size))) <= 1e-10
        assert rep.isometric == gram_ok


def test_classify_depth_zero():
    rep = classify(Symbol(2, 1, {((), 1, 1): 1.0}), 0)
    assert rep.isometric
    assert rep.mult_wl == rep.mult_mtheta == 0
    assert rep.fredholm == 0


def test_classify_builds_each_depth_once(monkeypatch):
    # sigma_min_square at depths D - 1 and D, the norm and the
    # hyponormality probe share the depth-D map
    calls = []
    original = analysis.build_wl

    def counted(sym, depth, *args, **kwargs):
        calls.append(depth)
        return original(sym, depth, *args, **kwargs)

    monkeypatch.setattr(analysis, "build_wl", counted)
    sym = shift_like(1)
    rep = classify(sym, 6)
    assert sorted(calls) == [6]
    assert rep.norm == norm_report(sym, 6)


def test_classify_shares_its_maps_with_the_hyponormality_probe(monkeypatch):
    # the probe reads the depth-D map classify already built
    calls = []
    original = analysis.build_wl

    def counted(sym, depth, *args, **kwargs):
        calls.append(depth)
        return original(sym, depth, *args, **kwargs)

    monkeypatch.setattr(analysis, "build_wl", counted)
    sym = shift_like(1)
    for depth in (4, 5, 2):
        calls.clear()
        rep = classify(sym, depth)
        assert calls == [depth]
        assert rep.hypo_gap == hyponormality_probe(sym, depth).witness_gap
    calls.clear()
    rep = classify(hypo_like(), 3, invertibility=False)
    assert calls == [3]
    assert rep.hypo_gap == hyponormality_probe(hypo_like(), 3).witness_gap


def test_depth_zero_counts_agree_with_classify():
    # the stability pass runs at depth 1 for depth 0, as in classify
    vacuum = Symbol(2, 1, {((), 1, 1): 1.0})
    assert wold_multiplicity(vacuum, 0) == (0, 0)
    assert fredholm_index(vacuum, 0) == 0
    rep = classify(vacuum, 0)
    assert (rep.mult_wl, rep.mult_mtheta, rep.fredholm) == (0, 0, 0)
    # a K = 1 shift at depth 0 is still below the 2K - 1 floor
    with pytest.raises(ValueError, match="2K - 1"):
        wold_multiplicity(shift_like(1), 0)
    shallow = classify(shift_like(1), 0)
    assert shallow.mult_wl is None and shallow.mult_mtheta is None
    assert fredholm_index(shift_like(1), 0) == shallow.fredholm


def test_classify_runs_the_defect_once(monkeypatch):
    # one defect pass on the operator side, one M_Theta count on the
    # analytic side; the Wold pair compares the two
    calls = []

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, wrapper)

    counted("defect_with_stability")
    counted("_mtheta_multiplicity")
    rep = classify(shift_like(2, d=2), 5)
    assert sorted(calls) == [("_mtheta_multiplicity", 5), ("defect_with_stability", 5)]
    assert rep.mult_wl == rep.mult_mtheta == 4
    assert rep.fredholm == -4


def test_one_toeplitz_truncation_per_wold_and_classify(monkeypatch):
    # T_Theta is assembled once, by the defect pass; the symbol-side Wold
    # count reads the leading block of that pass's T_Theta*
    calls = []

    def counted(theta, size):
        calls.append(size)
        return toeplitz_truncation(theta, size)

    monkeypatch.setattr(analysis, "toeplitz_truncation", counted)
    cases = ((shift_like(2, d=2), 5), (vacuum_like(np.eye(2)), 0), (diagonal_like(3), 4),
             # Theta(z) = U diag(1, z), inner with U a rotation
             (Symbol(1, 2, {((), 1, 1): 0.6, ((), 2, 1): -0.8, ((1,), 1, 2): 0.8, ((1,), 2, 2): 0.6}), 9))
    for sym, depth in cases:
        calls.clear()
        pair = wold_multiplicity(sym, depth)
        assert len(calls) == 1
        calls.clear()
        rep = classify(sym, depth, invertibility=False)
        assert len(calls) == 1
        assert (rep.mult_wl, rep.mult_mtheta) == pair
        # the block read equals T_Theta* assembled at this depth, bit for bit
        keep = (depth - sym.K + 1) * sym.d
        fresh = toeplitz_truncation(sym.theta(), depth + 1).conj().T[:, :keep]
        here = defect(sym, max(depth, 1))
        assert np.array_equal(here.stacked_matrix[: (depth + 1) * sym.d, :keep], fresh)
        assert pair[1] == keep - numerical_rank(fresh)
