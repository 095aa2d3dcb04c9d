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
from odolab.gallery import diagonal, hypo_counterexample, projection_symbol, shift_symbol, vacuum_symbol
from odolab.numerics import numerical_rank, orthocomplement_basis
from odolab.operator import build_wl, toeplitz_truncation
from odolab.symbol import Symbol
from odolab.verify import random_symbol


def test_isometry_deviation_values():
    assert isometry_deviation(shift_symbol(2, d=2)) == 0.0
    assert isometry_deviation(hypo_counterexample().symbol) == pytest.approx(1.0)
    # interior support alone breaks the criterion
    sym = Symbol(2, 1, {((1,), 1, 1): 1.0, ((2,), 1, 1): 0.5})
    assert isometry_deviation(sym) >= 0.5


def test_defect_shift_table():
    for k in (1, 2, 3):
        for d in (1, 2):
            basis = defect(shift_symbol(k, d=d), 5)
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
    assert defect(vacuum_symbol(np.eye(2)), 5).dim == 0
    assert defect(diagonal(2).symbol, 5).dim == 1
    assert defect(diagonal(3).symbol, 5).dim == 3
    assert defect(projection_symbol(np.diag([1, 1, 0])).symbol, 5).dim == 2


def test_defect_el_space_shift():
    # for the k-shift the positively shifted range covers degrees above k,
    # so the generator space is degrees 0..k and the defect drops degree k
    basis = defect(shift_symbol(2), 5)
    assert basis.el_dim == 3  # degrees 0, 1, 2
    assert basis.dim == 2


def test_defect_stability_flags():
    _, stable, _ = defect_with_stability(shift_symbol(2), 5)
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
    here, stable, below = defect_with_stability(shift_symbol(2, d=2), 5)
    assert calls == [5]
    assert (here.dim, stable, below) == (4, True, 4)


def _defect_cases():
    # seeded symbols at shallow depths plus the two near-cut splits of z - a
    rng = np.random.default_rng(2201)
    cases = [(random_symbol(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), 3), int(rng.integers(0, 8)))
             for _ in range(12)]
    return cases + [(Symbol(1, 1, {((), 1, 1): -a, ((1,), 1, 1): 1.0}), depth) for a, depth in ((0.5, 25), (0.6, 34))]


def test_defect_fields_do_not_depend_on_read_order():
    bases = ("el_basis", "defect_basis", "stacked_matrix")
    counts = ("dim", "el_dim", "stacked_kernel_dim", "el_minus_range_dim")
    for sym, depth in _defect_cases():
        bases_first, counts_first = defect(sym, depth), defect(sym, depth)
        read = {name: getattr(bases_first, name) for name in bases + counts}
        for name in counts + bases:
            assert np.array_equal(getattr(counts_first, name), read[name])
        assert bases_first.el_basis.shape[1] == bases_first.el_dim
        assert bases_first.defect_basis.shape[1] == bases_first.dim


def test_defect_counts_match_full_svd_complements():
    # value-only counts cut where the full-SVD complement cuts, and each
    # basis read later is orthonormal
    for sym, depth in _defect_cases():
        here, chain, d = defect(sym, depth), _chain_sector(sym, depth), sym.d
        shifted = chain[:, d:]
        assert here.el_dim == orthocomplement_basis(shifted).shape[1]
        assert here.dim == orthocomplement_basis(np.hstack([shifted, chain[:, :d]])).shape[1]
        assert here.stacked_kernel_dim == len(chain) - numerical_rank(here.stacked_matrix)
        for q in (here.el_basis, here.defect_basis):
            assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12


def test_index_and_wold_take_value_only_svds(monkeypatch):
    calls = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for sym in (shift_symbol(2, d=2), diagonal(3).symbol, vacuum_symbol(np.eye(2))):
        assert fredholm_index(sym, 5) == -wold_multiplicity(sym, 5)[0]
    assert calls and not any(calls)


def test_fredholm_index_values():
    assert fredholm_index(shift_symbol(1), 5) == -1
    assert fredholm_index(shift_symbol(3, d=2), 5) == -6
    assert fredholm_index(vacuum_symbol(np.diag([1.0, 1.0j])), 5) == 0
    assert fredholm_index(projection_symbol(np.diag([1, 1, 0])).symbol, 5) == -2
    with pytest.raises(NotIsometric):
        fredholm_index(hypo_counterexample().symbol, 5)


def test_fredholm_index_open_while_the_defect_moves():
    # the 3-shift at depth 2: defect 3 there, 2 one depth below
    here, stable, below = defect_with_stability(shift_symbol(3), 2)
    assert (here.dim, stable, below) == (3, False, 2)
    assert fredholm_index(shift_symbol(3), 2) is None


def test_depth_zero_runs_the_stability_pass_at_depth_one():
    # the 2-shift at depth 1 has defect 2 there and 1 one depth below
    assert fredholm_index(shift_symbol(2), 0) is None
    rep = classify(shift_symbol(2), 0)
    assert rep.fredholm is None and rep.defect_stable is False
    # the square floors run at depths D - 1 and D
    assert sorted(classify(shift_symbol(1), 1).sigma_min_square) == [0, 1]


def test_wold_multiplicity_matches_defect():
    cases = [
        shift_symbol(1),
        shift_symbol(2),
        shift_symbol(3, d=2),
        vacuum_symbol(np.eye(2)),
        diagonal(2).symbol,
        diagonal(3).symbol,
        projection_symbol(np.diag([1, 0, 1])).symbol,
    ]
    for sym in cases:
        mult_wl, mult_mtheta = wold_multiplicity(sym, 5)
        assert mult_wl == mult_mtheta
        assert mult_wl == defect(sym, 5).dim
    with pytest.raises(NotIsometric):
        wold_multiplicity(hypo_counterexample().symbol, 5)


def test_wold_multiplicity_needs_depth_2k_minus_1():
    # the model space of an inner Theta of degree K lies in degrees < K,
    # and the symbol side sees degrees <= depth - K: short below 2K - 1
    u, v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), np.array([[0.6, 0.8j], [0.8j, 0.6]])
    mixed = Symbol(1, 2, {
        (((1,) * r), s + 1, q + 1): (u @ np.diag([r == 1, r == 2]) @ v)[s, q]
        for r in (1, 2) for s in range(2) for q in range(2)
    })
    for sym, mult in ((shift_symbol(2, n=1), 2), (mixed, 3)):
        with pytest.raises(ValueError, match="2K - 1"):
            wold_multiplicity(sym, 2)
        assert wold_multiplicity(sym, 3) == (mult, mult)
        shallow = classify(sym, 2, invertibility=False)
        assert shallow.mult_wl is None and shallow.mult_mtheta is None
        assert shallow.fredholm == -mult
        deep = classify(sym, 3, invertibility=False)
        assert deep.mult_wl == deep.mult_mtheta == mult


def test_norm_report_interior_free():
    rep = norm_report(hypo_counterexample().symbol, 8)
    assert rep.applicable
    assert rep.bracket_lower == pytest.approx(2.0, abs=1e-12)
    assert rep.formula_value >= 2.0
    assert rep.formula_value <= 2.0 + 0.002
    assert rep.sigma_l == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.sigma_max <= rep.formula_value + 1e-9
    # deeper truncations push sigma_max up toward the formula
    shallow = norm_report(hypo_counterexample().symbol, 3)
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
    l2 = shift_symbol(1, d=2)
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
    for sym in (shift_symbol(1), diagonal(2).symbol, vacuum_symbol(np.eye(2)), hypo_counterexample().symbol):
        res = douglas_factor(sym, sym, 3)
        assert np.max(np.abs(res.factor - np.eye(sym.d))) <= 1e-12
        assert res.wl_gap <= 1e-12


def test_douglas_negative_control():
    l1 = vacuum_symbol(np.eye(2))
    l2 = shift_symbol(1, d=2)
    with pytest.raises(RangeNotContained) as info:
        douglas_factor(l1, l2, 3)
    # the vacuum column is orthogonal to the shifted range, full mass remains
    assert info.value.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_coburn_floor_values():
    pts = coburn_bound(shift_symbol(1), 5)
    for pt in pts:
        assert pt.sigma_min >= pt.floor - 1e-10
    # lambda = 0 on an isometry: exactly 1
    assert pts[0].sigma_min == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotIsometric):
        coburn_bound(hypo_counterexample().symbol, 4)


def test_hyponormality_probe_counterexample():
    probe = hyponormality_probe(hypo_counterexample().symbol, 4)
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
    for sym in (shift_symbol(1), shift_symbol(2, d=2), vacuum_symbol(np.eye(2))):
        probe = hyponormality_probe(sym, 4)
        assert probe.witness_gap <= 1e-12


def test_defect_projection_rank_corroborates():
    for sym, expect in (
        (shift_symbol(1), 1),
        (shift_symbol(2, d=2), 4),
        (vacuum_symbol(np.eye(2)), 0),
        (projection_symbol(np.diag([1, 1, 0])).symbol, 2),
    ):
        assert defect_projection_rank(sym, 5) == expect


def test_classify_shift():
    rep = classify(shift_symbol(1), 5)
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
    rep = classify(vacuum_symbol(np.diag([1.0, 1.0j])), 5)
    assert rep.unitary and rep.isometric
    assert rep.invertible is True
    assert rep.fredholm == 0
    assert rep.defect_dim == 0
    # gram identity goes with the isometry verdict
    w = build_wl(vacuum_symbol(np.diag([1.0, 1.0j])), 3)
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


def test_classify_identically_singular_symbol_is_not_invertible():
    # det Theta = 1 * 0 vanishes identically: refused as a winding count,
    # reported as not invertible
    rep = classify(vacuum_symbol(np.diag([1.0, 0.0])), 3)
    assert rep.invertible_checked and rep.invertible is False
    assert rep.isometric is False


def test_classify_skips_invertibility_on_request():
    rep = classify(hypo_counterexample().symbol, 4, invertibility=False)
    assert rep.invertible is None
    assert not rep.invertible_checked
    assert rep.hypo_necessary is True
    assert rep.hypo_gap == pytest.approx(1.0, abs=1e-12)


def test_classify_propagates_boundary_refusal():
    with pytest.raises(BoundaryZeroSuspected):
        classify(hypo_counterexample().symbol, 4, invertibility=True)


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
    sym = shift_symbol(1)
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
    sym = shift_symbol(1)
    for depth in (4, 5, 2):
        calls.clear()
        rep = classify(sym, depth)
        assert calls == [depth]
        assert rep.hypo_gap == hyponormality_probe(sym, depth).witness_gap
    calls.clear()
    rep = classify(hypo_counterexample().symbol, 3, invertibility=False)
    assert calls == [3]
    assert rep.hypo_gap == hyponormality_probe(hypo_counterexample().symbol, 3).witness_gap


def test_depth_zero_counts_agree_with_classify():
    # the stability pass runs at depth 1 for depth 0, as in classify
    vacuum = Symbol(2, 1, {((), 1, 1): 1.0})
    assert wold_multiplicity(vacuum, 0) == (0, 0)
    assert fredholm_index(vacuum, 0) == 0
    rep = classify(vacuum, 0)
    assert (rep.mult_wl, rep.mult_mtheta, rep.fredholm) == (0, 0, 0)
    # a K = 1 shift at depth 0 is still below the 2K - 1 floor
    with pytest.raises(ValueError, match="2K - 1"):
        wold_multiplicity(shift_symbol(1), 0)
    shallow = classify(shift_symbol(1), 0)
    assert shallow.mult_wl is None and shallow.mult_mtheta is None
    assert fredholm_index(shift_symbol(1), 0) == shallow.fredholm


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
    rep = classify(shift_symbol(2, d=2), 5)
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
    cases = ((shift_symbol(2, d=2), 5), (vacuum_symbol(np.eye(2)), 0), (diagonal(3).symbol, 4),
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
