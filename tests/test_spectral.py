"""The spectral layer: the carry/chain core (route one) behind sigma_max and
classify's sigma_min_square, and the certified sparse Coburn floor (route
two) behind coburn_bound, whose shift-invert solve is shifted to the
floor (1 - |lambda|)^2 and stopped at the certificate's residual bound."""

import json

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from odolab import analysis, numerics
from odolab.analysis import classify, coburn_bound, norm_report
from odolab.cli import main
from odolab.errors import CertificateError, SpectralUncertified
from odolab.gallery import build_entry
from odolab.operator import FockOperator, SubspaceSelector, block, build_wl, build_wl_adjoint, carry_singular_values
from odolab.symbol import Symbol


def full_spectrum(w):
    s, ones = carry_singular_values(w)
    return np.sort(np.concatenate([s, np.ones(ones)]))[::-1]


def test_core_spectrum_matches_dense_on_gallery():
    for name, params, depth in [("shift", {"k": 2}, 4), ("diagonal", {"d": 3}, 3), ("projection", {}, 3),
                                ("constant_plus_shift", {}, 5), ("hypo_counterexample", {}, 4),
                                ("shift", {"n": 1, "d": 2, "k": 2}, 6), ("vacuum", {}, 0)]:
        w = build_wl(build_entry(name, **params).symbol, depth)
        for op in (w, w.restrict_rows(w.domain.size)):
            dense = np.linalg.svd(op.toarray(), compute_uv=False)
            assert np.max(np.abs(full_spectrum(op) - dense)) <= 1e-12 * max(1.0, dense[0])


def test_core_is_at_most_twice_the_chain():
    # diagonal d = 3 at depth 7: 765 columns, k = 24 chain columns
    w = build_wl(build_entry("diagonal", d=3).symbol, 7)
    s, ones = carry_singular_values(w)
    k = int(np.sum(SubspaceSelector.N_PERP.mask(w.domain)))
    assert k == 24
    assert s.size <= 2 * k
    assert s.size + ones == w.shape[1]


def test_core_pads_zeros_for_dropped_rows():
    # a symbol off the chain leaves chain columns with no mass inside the window
    sym = Symbol(2, 1, {((2, 2), 1, 1): 1.0})
    w = build_wl(sym, 2)
    sq = w.restrict_rows(w.domain.size)
    dense = np.linalg.svd(sq.toarray(), compute_uv=False)
    assert dense[-1] == 0.0
    assert np.max(np.abs(full_spectrum(sq) - dense)) <= 1e-12


def test_core_refuses_without_carry_structure():
    w = build_wl(build_entry("shift").symbol, 3)
    with pytest.raises(ValueError):
        carry_singular_values(build_wl_adjoint(build_entry("hypo_counterexample").symbol, 3))
    with pytest.raises(ValueError):
        carry_singular_values(block(w, SubspaceSelector.M, SubspaceSelector.N))
    broken = w.to_csr().copy()
    broken.data[broken.data == 1.0] = 2.0
    with pytest.raises(ValueError):
        carry_singular_values(FockOperator(w.domain, w.codomain, broken))


def test_sigma_max_is_bit_deterministic_above_old_dense_limit(capsys):
    # 3069 x 765 passed the old ARPACK branch, whose last digits varied
    sym = build_entry("diagonal", d=3).symbol
    assert build_wl(sym, 7).shape == (3069, 765)
    values = {norm_report(sym, 7).sigma_max for _ in range(6)}
    assert len(values) == 1
    assert abs(values.pop() - 1.0) <= 1e-12
    outputs = []
    for _ in range(2):
        assert main(["norm", "--gallery", "diagonal", "--param", "d=3", "--depth", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_classify_reports_square_floor_past_old_gate():
    # depth 10 has N = 2047 columns, above the 1600 the dense route allowed
    sym = build_entry("shift").symbol
    rep = classify(sym, 11)
    assert sorted(rep.sigma_min_square) == [10, 11]
    w = build_wl(sym, 10)
    dense = np.linalg.svd(w.restrict_rows(w.domain.size).toarray(), compute_uv=False)
    assert dense.size == 2047
    assert rep.sigma_min_square[10] == pytest.approx(dense[-1], abs=1e-12)
    # the shift's top chain column leaves the window: one zero, the rest ones
    assert rep.sigma_min_square[11] == 0.0
    assert np.allclose(dense[:-1], 1.0, atol=1e-12)


def test_coburn_never_densifies(monkeypatch):
    def refuse(self):
        raise AssertionError("coburn_bound densified the map")

    monkeypatch.setattr(FockOperator, "toarray", refuse)
    points = coburn_bound(build_entry("shift").symbol, 8)
    assert [p.lam for p in points] == [complex(lam) for lam in analysis.DEFAULT_COBURN_POINTS]
    for p in points:
        assert p.sigma_min >= p.floor - 1e-10
        assert p.lower <= p.sigma_min


def test_coburn_matches_dense_and_carries_certificate():
    sym = build_entry("diagonal", d=3).symbol
    w = build_wl(sym, 4)
    dense, inc = w.toarray(), np.eye(w.shape[0], w.shape[1])
    for p in coburn_bound(sym, 4, (0.0, 0.3, 0.6j, -0.9, 0.99)):
        want = np.linalg.svd(dense - p.lam * inc, compute_uv=False)[-1]
        assert p.sigma_min == pytest.approx(want, abs=1e-12)
        assert p.lower <= want + 1e-15
        assert p.residual <= 1e-10


def test_coburn_on_the_circle_matches_dense_or_refuses(capsys):
    code = main(["coburn", "--gallery", "vacuum", "--at", "1", "--at", "1j"])
    out = capsys.readouterr().out
    assert code in (0, 2)
    if code == 2:
        return
    sym = build_entry("vacuum").symbol
    w = build_wl(sym, 6)
    dense, inc = w.toarray(), np.eye(w.shape[0], w.shape[1])
    for point, lam in zip(json.loads(out)["report"], (1.0, 1j)):
        want = np.linalg.svd(dense - lam * inc, compute_uv=False)[-1]
        assert abs(point["sigma_min"] - want) <= 1e-7


def test_arpack_failure_is_a_refusal(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise sparse_linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(sparse_linalg, "eigsh", no_convergence)
    with pytest.raises(SpectralUncertified):
        coburn_bound(build_entry("shift").symbol, 5)
    assert issubclass(SpectralUncertified, CertificateError)


def test_wrong_ritz_vector_fails_the_inertia_check(monkeypatch):
    # an eigsh that returns the largest eigenpair: the residual is tiny, so
    # only the inertia check can see that smaller eigenvalues exist
    def largest(g, k, **kwargs):
        vals, vecs = np.linalg.eigh(g.toarray())
        return vals[-1:], vecs[:, -1:]

    monkeypatch.setattr(sparse_linalg, "eigsh", largest)
    with pytest.raises(SpectralUncertified, match="inertia"):
        coburn_bound(build_entry("shift").symbol, 4, (0.3,))


def test_sparse_floor_residual_check(monkeypatch):
    # a vector that is no eigenvector fails the residual check
    def rough(g, k, **kwargs):
        return np.zeros(1), np.ones((g.shape[0], 1), dtype=complex)

    monkeypatch.setattr(sparse_linalg, "eigsh", rough)
    with pytest.raises(SpectralUncertified, match="residual"):
        coburn_bound(build_entry("shift").symbol, 4, (0.3,))


def test_sparse_floor_below_arpack_size():
    from scipy import sparse

    # a 2 x 2 Gram matrix is below what ARPACK accepts for k = 1
    floor = numerics.sparse_sigma_min(sparse.csr_matrix(np.array([[3.0, 0.0], [0.0, 0.5], [0.0, 0.0]])))
    assert floor.value == pytest.approx(0.5, abs=1e-15)
    assert floor.lower <= floor.value


def test_coburn_certifies_degenerate_cluster():
    # the Gram spectrum of diagonal d = 3 clusters just above 0.01; a shift
    # at -1e-3 with a machine-precision stop ran out of iterations here
    sym = build_entry("diagonal", d=3, n=2).symbol
    (point,) = coburn_bound(sym, 8, (0.9j,))
    assert point.floor == pytest.approx(0.1, abs=1e-15)
    assert point.lower <= point.sigma_min
    assert point.sigma_min >= point.floor - 1e-10


def test_cli_coburn_certifies_degenerate_cluster(capsys):
    code = main(["coburn", "--gallery", "diagonal", "--param", "d=3", "--param", "n=2",
                 "--depth", "8", "--at", "0.9j"])
    assert code == 0
    (point,) = json.loads(capsys.readouterr().out)["report"]
    assert point["sigma_min"] >= point["floor"] - 1e-10


def test_coburn_shifts_to_the_floor_and_stops_at_the_certificate(monkeypatch):
    # the first eigsh call of each point is shifted to max(1 - |lambda|, 0)^2
    # + GRAM_SHIFT; every call stops at eps_exact / 2
    seen = []
    real = sparse_linalg.eigsh

    def recording(g, k, **kwargs):
        seen.append((kwargs["sigma"], kwargs["tol"]))
        return real(g, k, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigsh", recording)
    tol = numerics.Tolerance(eps_exact=1e-11)
    sym = build_entry("shift").symbol
    for lam in (0.0, 0.3, 0.6j, -0.99, 0.999, 1.0, 1j, -1.5):
        seen.clear()
        (point,) = coburn_bound(sym, 5, (lam,), tol)
        assert seen[0] == (max(1 - abs(lam), 0) ** 2 + numerics.GRAM_SHIFT, tol.eps_exact / 2)
        assert all(call_tol == tol.eps_exact / 2 for _, call_tol in seen)
        assert point.lower <= point.sigma_min


def test_sparse_floor_repeats_from_the_certified_floor_after_a_low_hint(monkeypatch):
    # W - lambda for a tiny lambda: the Gram spectrum is a cluster of width
    # 4 |lambda| near 1, far above the default shift, and the early stop
    # alone misses its bottom by about 8e-12; the repeat from theta - delta
    # (the certified floor, within delta of the bottom) resolves it
    seen = []
    real = sparse_linalg.eigsh

    def recording(g, k, **kwargs):
        seen.append(kwargs["sigma"])
        return real(g, k, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigsh", recording)
    w = build_wl(build_entry("shift").symbol, 5)
    lam = 3e-9
    floor = numerics.sparse_sigma_min(w.to_csr() - lam * analysis.inclusion(w).to_csr())
    dense = np.linalg.svd(w.toarray() - lam * np.eye(*w.shape), compute_uv=False)[-1]
    assert seen[0] == numerics.GRAM_SHIFT
    assert len(seen) == 2 and seen[1] == pytest.approx(floor.lower**2, abs=1e-12)
    assert abs(floor.value - dense) <= 1e-12
    assert floor.lower <= dense + 1e-15
