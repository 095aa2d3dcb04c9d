import numpy as np
import pytest

from odolab.errors import (
    BoundaryZeroSuspected,
    IdenticallySingular,
    SymbolFormatError,
)
from odolab.fock import enumerate_basis
from odolab.symbol import (
    MatrixPolynomial,
    Symbol,
    det_coefficients,
    is_inner_exact,
    is_invertible_hinf,
    load_symbol,
    norm_on_circle_sampled,
    save_symbol,
    sup_norm,
    symbol_from_dict,
    symbol_to_dict,
)
from odolab.verify import random_symbol


def scalar_symbol(n, pairs):
    # pairs: {word: value}, d = 1
    return Symbol(n, 1, {(w, 1, 1): v for w, v in pairs.items()})


def shift_like(k, n=2, d=1):
    return Symbol(n, d, {(((1,) * k), s, s): 1.0 for s in range(1, d + 1)})


def moebius_like(a, R, n=2):
    entries = {((), 1, 1): -a}
    for r in range(1, R + 1):
        entries[((1,) * r, 1, 1)] = (1 - abs(a) ** 2) * np.conj(a) ** (r - 1)
    return Symbol(n, 1, entries)


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol(2, 1, {((3,), 1, 1): 1.0})  # letter outside alphabet
    with pytest.raises(ValueError):
        Symbol(2, 1, {((1,), 2, 1): 1.0})  # slot outside 1..d
    s = Symbol(2, 2, {((), 1, 1): 0.0, ((1,), 2, 2): 1.0})
    assert ((), 1, 1) not in s.entries  # exact zeros dropped
    assert s.K == 1


def test_coefficient_operator_shift():
    s = shift_like(2, n=2, d=2)
    assert np.array_equal(s.coefficient_operator(2), np.eye(2))
    assert not s.coefficient_operator(0).any()
    assert not s.coefficient_operator(5).any()
    assert s.theta().degree == 2


def test_theta_ignores_off_chain_entries():
    base = {(): 0.5, (1,): 0.25}
    plain = scalar_symbol(2, base)
    noisy = Symbol(2, 1, {**{(w, 1, 1): v for w, v in base.items()}, ((2,), 1, 1): 9.0})
    tp, tn = plain.theta(), noisy.theta()
    assert tp.degree == tn.degree == 1
    for r in range(2):
        assert np.array_equal(tp.coefficient(r), tn.coefficient(r))


def test_theta_degree_forced_by_off_chain_depth():
    # the only length-2 word is off the chain, so the trailing block is zero
    s = Symbol(2, 1, {((), 1, 1): 1.0, ((2, 1), 1, 1): 3.0})
    t = s.theta()
    assert t.degree == 2
    assert np.max(np.abs(t.coefficient(2))) == 0.0


def test_matrix_polynomial_eval():
    t = MatrixPolynomial([np.eye(1), 2 * np.eye(1)])
    assert t(0.5)[0, 0] == pytest.approx(2.0)
    grid_vals = t.eval_grid(4)
    assert grid_vals.shape == (4, 1, 1)
    assert grid_vals[0, 0, 0] == pytest.approx(3.0)  # z = 1
    assert grid_vals[2, 0, 0] == pytest.approx(-1.0)  # z = -1


def test_inner_shift_exact():
    res = is_inner_exact(shift_like(1).theta())
    assert res.is_inner and res.deviation == 0.0
    res = is_inner_exact(shift_like(3, d=2).theta())
    assert res.is_inner


def test_inner_deviation_constant_plus_shift():
    # 1 + a z: A_1 = conj(a), A_0 - 1 = |a|^2, worst entry is |a|
    for a in (0.5, 0.3 + 0.2j):
        t = scalar_symbol(2, {(): 1.0, (1,): a}).theta()
        res = is_inner_exact(t)
        assert not res.is_inner
        assert res.deviation == pytest.approx(abs(a), abs=1e-14)
        assert res.deviation >= abs(a) - 1e-14


def test_inner_moebius_truncation():
    a = (1 - np.sqrt(5)) / 2
    res = is_inner_exact(moebius_like(a, 40).theta())
    assert not res.is_inner  # truncated, misses exactness by the tail
    assert res.deviation <= 1e-7


def test_inner_matches_boundary_sampling():
    rng = np.random.default_rng(42)
    checked_inner = 0
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        if trial % 5 == 0:
            sym = shift_like(int(rng.integers(0, 3)), n=n, d=d)
            checked_inner += 1
        else:
            sym = random_symbol(rng, n, d, 3)
        t = sym.theta()
        res = is_inner_exact(t)
        sampled = 0.0
        for k in range(128):
            z = np.exp(2j * np.pi * (k + 0.37) / 128)
            tz = t(z)
            sampled = max(sampled, float(np.max(np.abs(tz.conj().T @ tz - np.eye(d)))))
        if res.is_inner:
            assert sampled <= 1e-8
        if sampled <= 1e-8:
            # sampled isometry forces small coefficient deviation
            assert res.deviation <= (2 * t.degree + 1) * 1e-8
    assert checked_inner >= 10


def test_det_coefficients_examples():
    # diag(1, z): det = z
    t = MatrixPolynomial([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    c = det_coefficients(t)
    assert np.abs(c[0]) <= 1e-12
    assert c[1] == pytest.approx(1.0, abs=1e-12)
    # [[1, z], [z, 1]]: det = 1 - z^2
    t = MatrixPolynomial([np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)])
    c = det_coefficients(t)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(c[1]) <= 1e-12
    assert c[2] == pytest.approx(-1.0, abs=1e-12)


def test_invertibility_verdicts():
    assert is_invertible_hinf(scalar_symbol(2, {(): 1.0, (1,): 0.5}).theta())
    # pure shift winds once around zero
    assert not is_invertible_hinf(shift_like(1).theta())
    assert not is_invertible_hinf(shift_like(2, d=2).theta())
    # constant unitary is invertible
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    sym = Symbol(2, 2, {((), s, q): u[s - 1, q - 1] for s in (1, 2) for q in (1, 2)})
    assert is_invertible_hinf(sym.theta())


def test_invertibility_refusals():
    with pytest.raises(BoundaryZeroSuspected):
        is_invertible_hinf(scalar_symbol(2, {(): 1.0, (1,): 1.0}).theta())
    # det (1 - z^2) vanishes on the circle
    t = MatrixPolynomial([np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)])
    with pytest.raises(BoundaryZeroSuspected):
        is_invertible_hinf(t)
    with pytest.raises(IdenticallySingular):
        is_invertible_hinf(MatrixPolynomial([np.zeros((2, 2))]))
    # rank-one constant block, det identically zero
    t = MatrixPolynomial([np.array([[1, 1], [1, 1]], dtype=complex)])
    with pytest.raises(IdenticallySingular):
        is_invertible_hinf(t)


def test_sup_norm_bracket_on_line_segment():
    lo, hi = sup_norm(scalar_symbol(2, {(): 1.0, (1,): 1.0}).theta())
    assert lo == pytest.approx(2.0, abs=1e-12)  # grid contains z = 1
    assert hi >= 2.0
    assert hi - lo <= 2.0 * np.pi / 4096 + 1e-12
    sampled = norm_on_circle_sampled(scalar_symbol(2, {(): 1.0, (1,): 1.0}).theta())
    assert sampled <= hi + 1e-12


def test_sup_norm_bracket_contains_sampled_sweep():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sym = random_symbol(rng, 2, 2, 3)
        t = sym.theta()
        lo, hi = sup_norm(t, grid=2048)
        assert lo <= hi
        assert norm_on_circle_sampled(t, grid=97) <= hi + 1e-10


def test_sup_norm_nilpotent_cascade_floor():
    # c[(1^r, q+r, q)] = 2^-(r+1): the first column keeps norm
    # sqrt(85/256) at every boundary point once the slot cap bites
    d, R = 4, 12
    entries = {}
    for q in range(1, d + 1):
        for r in range(0, min(R, d - q) + 1):
            entries[((1,) * r, q + r, q)] = 2.0 ** (-(r + 1))
    t = Symbol(2, d, entries).theta()
    lo, hi = sup_norm(t)
    floor = np.sqrt(85.0 / 256.0)
    assert lo >= floor - 1e-12
    assert hi < 1.0


def test_as_matrix_layout():
    sym = Symbol(2, 2, {((1,), 2, 1): 3.0, ((), 1, 2): 2.0})
    basis = enumerate_basis(2, 1, 2)
    m = sym.as_matrix(basis)
    assert m[basis.index((1,), 2), 0] == 3.0
    assert m[basis.index((), 1), 1] == 2.0
    assert np.count_nonzero(m) == 2


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    sym = random_symbol(rng, 3, 2, 2, count=9)
    path = tmp_path / "sym.json"
    save_symbol(sym, path)
    back = load_symbol(path)
    assert back.n == sym.n and back.d == sym.d
    assert back.entries == sym.entries


def test_json_rejects_duplicates_and_garbage(tmp_path):
    data = symbol_to_dict(shift_like(1))
    data["entries"].append(dict(data["entries"][0]))
    with pytest.raises(SymbolFormatError):
        symbol_from_dict(data)
    with pytest.raises(SymbolFormatError):
        symbol_from_dict({"n": 2, "dim": 1})
    with pytest.raises(SymbolFormatError):
        symbol_from_dict({"n": 2, "dim": 1, "entries": [{"word": [9], "s": 1, "q": 1, "re": 1.0, "im": 0.0}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SymbolFormatError):
        load_symbol(bad)


def test_m_mass_and_restrictions():
    sym = Symbol(2, 1, {((), 1, 1): 1.0, ((2,), 1, 1): 0.25, ((1, 2), 1, 1): -0.5})
    assert sym.m_mass() == 0.5
    assert shift_like(2).m_mass() == 0.0
