import numpy as np
import pytest
from scipy import sparse

from odolab.fock import (
    VACUUM,
    enumerate_basis,
    leading_ones,
    predecessor,
    successor,
    word_in_m0,
    word_in_n0,
)
from odolab.gallery import shift_symbol, vacuum_symbol
from odolab.operator import (
    FockOperator,
    SubspaceSelector,
    block,
    build_wl,
    build_wl_adjoint,
    dump_lines,
    hardy_block_matrix,
    subbasis,
    toeplitz_truncation,
)
from odolab.symbol import Symbol
from odolab.verify import random_symbol

M, M_PERP, N, N_PERP = (
    SubspaceSelector.M,
    SubspaceSelector.M_PERP,
    SubspaceSelector.N,
    SubspaceSelector.N_PERP,
)


def entries(op):
    """The stored entries as a {(row, col): value} dict."""
    return dict(op.to_csr().todok())


def adjoint_mismatch(sym, depth):
    # conjugate transpose of the forward build vs the closed-form adjoint,
    # compressed to the matching rectangular shape
    w = build_wl(sym, depth)
    star = build_wl_adjoint(sym, depth + sym.K)
    ct = w.conjugate_transpose()
    compressed = star.restrict_rows(w.domain.size)
    return ct.max_abs_diff(FockOperator(compressed.domain, ct.codomain, compressed.data))


def test_build_wl_shift_columns():
    w = build_wl(shift_symbol(1), 2)
    dom, cod, a = w.domain, w.codomain, w.to_csr()
    # vacuum column is L itself
    assert a[cod.index((1,), 1), dom.index(VACUUM, 1)] == 1.0
    # interior word carries to its successor
    assert a[cod.index((2,), 1), dom.index((1,), 1)] == 1.0
    assert a[cod.index((1, 2), 1), dom.index((2, 1), 1)] == 1.0
    # all-n chain restarts with a 1-prefix in front of L
    assert a[cod.index((1, 1), 1), dom.index((2,), 1)] == 1.0
    assert a[cod.index((1, 1, 1), 1), dom.index((2, 2), 1)] == 1.0
    # every column of an isometric symbol has unit norm
    assert np.allclose(w.column_norms(), 1.0)


def test_build_wl_vacuum_is_permutation():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    w = build_wl(vacuum_symbol(u), 1)
    a = w.toarray()
    assert a.shape == (6, 6)
    assert np.max(np.abs(a.conj().T @ a - np.eye(6))) <= 1e-14
    assert np.max(np.abs(a @ a.conj().T - np.eye(6))) <= 1e-14
    # vacuum goes to U eta, slot swap under this U
    assert a[w.codomain.index(VACUUM, 2), w.domain.index(VACUUM, 1)] == 1.0


def test_build_wl_codomain_depth():
    sym = shift_symbol(2)
    w = build_wl(sym, 3)
    assert w.codomain.depth == 5
    with pytest.raises(ValueError):
        build_wl(sym, 3, codomain_depth=4)
    # a deeper codomain embeds the same entries
    deeper = build_wl(sym, 3, codomain_depth=6)
    assert entries(deeper) == entries(w)


def test_build_wl_n1_chain():
    # single letter alphabet: every word restarts through L
    sym = Symbol(1, 1, {((), 1, 1): 0.5, ((1,), 1, 1): 0.25})
    w = build_wl(sym, 3)
    cod, dom, a = w.codomain, w.domain, w.to_csr()
    for p in range(4):
        col = dom.index((1,) * p, 1)
        assert a[cod.index((1,) * p, 1), col] == 0.5
        assert a[cod.index((1,) * (p + 1), 1), col] == 0.25


def test_adjoint_shift_columns():
    star = build_wl_adjoint(shift_symbol(1), 3)
    b, a = star.domain, star.to_csr()
    # vacuum column vanishes, nothing maps onto the vacuum from L
    assert all(key[1] != b.index(VACUUM, 1) for key in entries(star))
    # carry image pulls back
    assert a[b.index((1,), 1), b.index((2,), 1)] == 1.0
    # resolved by the conjugate-transpose oracle: the leading-ones sum
    # sends e_1 tensor eta to the vacuum, not to e_n
    assert a[b.index(VACUUM, 1), b.index((1,), 1)] == 1.0
    col = b.index((1,), 1)
    assert [key for key in entries(star) if key[1] == col] == [(b.index(VACUUM, 1), col)]


def test_adjoint_constant_plus_shift_witness_column():
    # L = vacuum + shift: the adjoint of e_1 tensor h picks up two terms
    sym = Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0})
    star = build_wl_adjoint(sym, 2)
    b = star.domain
    col = b.index((1,), 1)
    got = {key[0]: v for key, v in entries(star).items() if key[1] == col}
    assert got == {b.index(VACUUM, 1): 1.0, b.index((2,), 1): 1.0}


def test_adjoint_identity_fixed_cases():
    cases = [
        shift_symbol(1),
        shift_symbol(2, d=2),
        vacuum_symbol(np.diag([1.0, 1.0j])),
        Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 0.5}),
        Symbol(1, 2, {((), 1, 2): 0.3, ((1, 1), 2, 1): 1.5j}),
        Symbol(3, 1, {((2, 1), 1, 1): 2.0, ((1,), 1, 1): 1.0}),
    ]
    for sym in cases:
        assert adjoint_mismatch(sym, 3) <= 1e-12


def test_adjoint_identity_random_sweep():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        sym = random_symbol(rng, n, d, 2)
        depth = 4 if n < 3 else 3
        assert adjoint_mismatch(sym, depth) <= 1e-12


def test_block_structure_upper_triangular():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        sym = random_symbol(rng, n, int(rng.integers(1, 3)), 2)
        w = build_wl(sym, 3)
        lower_left = block(w, M_PERP, N)
        assert lower_left.nnz == 0


def test_block_w11_unitary_on_interior():
    sym = random_symbol(np.random.default_rng(8), 2, 2, 2)
    w = build_wl(sym, 4)
    w11 = block(w, M, N)
    a = w11.toarray()
    s = np.linalg.svd(a, compute_uv=False)
    expect = subbasis(w.domain, N).size
    assert np.sum(s > 0.5) == expect
    assert np.max(np.abs(s[:expect] - 1.0)) <= 1e-12


def test_block_w12_column_norm_constancy():
    # columns over the all-n chain all carry the same interior mass
    sym = Symbol(2, 1, {((), 1, 1): 0.6, ((2,), 1, 1): 0.8})
    w = build_wl(sym, 5)
    w12 = block(w, M, N_PERP)
    norms = w12.column_norms()
    assert np.allclose(norms, 0.8, atol=1e-12)


def test_block_w12_vanishes_for_chain_supported_symbol():
    w = build_wl(shift_symbol(2, d=2), 4)
    assert block(w, M, N_PERP).nnz == 0


def test_toeplitz_truncation_layout():
    theta = Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 1.0}).theta()
    t = toeplitz_truncation(theta, 3)
    expect = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=complex)
    assert np.array_equal(t, expect)
    # block case keeps the d x d structure
    theta2 = shift_symbol(1, d=2).theta()
    t2 = toeplitz_truncation(theta2, 2)
    assert t2.shape == (4, 4)
    assert np.array_equal(t2[2:, :2], np.eye(2))
    assert not t2[:2, :].any()


def test_toeplitz_realization_fixed_and_random():
    rng = np.random.default_rng(202)
    symbols = [
        shift_symbol(1),
        shift_symbol(2, d=2),
        Symbol(2, 1, {((), 1, 1): 1.0, ((1,), 1, 1): 0.5, ((2,), 1, 1): 3.0}),
        Symbol(1, 2, {((), 1, 1): 0.2, ((1,), 2, 1): 0.9}),
    ]
    symbols += [random_symbol(rng, int(rng.integers(1, 4)), 2, 2) for _ in range(12)]
    for sym in symbols:
        depth = 4
        w = build_wl(sym, depth)
        w22 = block(w, M_PERP, N_PERP)
        transported = hardy_block_matrix(w22)
        d = sym.d
        cut = transported[: (depth + 1) * d, :]
        t = toeplitz_truncation(sym.theta(), depth + 1)
        assert np.max(np.abs(cut - t)) <= 1e-12


def test_matmul_matches_dense():
    rng = np.random.default_rng(3)
    sym = random_symbol(rng, 2, 1, 1)
    w = build_wl(sym, 2)
    prod = w.conjugate_transpose().to_csr() @ w.to_csr()
    dense = w.toarray().conj().T @ w.toarray()
    assert np.max(np.abs(prod.toarray() - dense)) <= 1e-12


def test_inclusion_and_square_compression():
    sym = shift_symbol(1)
    w = build_wl(sym, 2)
    # the codomain extends the domain by index, so the identity of shape
    # w.shape is the inclusion
    assert all(w.codomain.pair(i) == w.domain.pair(i) for i in range(w.domain.size))
    sq = w.restrict_rows(w.domain.size).toarray()
    assert sq.shape == (w.domain.size, w.domain.size)
    # compression drops exactly the rows beyond the domain range
    assert np.count_nonzero(sq) == sum(1 for (i, _) in entries(w) if i < w.domain.size)


def test_isometry_gram_identity():
    # CT(W) @ W = I exactly for chain-supported isometric symbols
    for sym in (shift_symbol(1), shift_symbol(3, d=2), vacuum_symbol(np.eye(2))):
        w = build_wl(sym, 3)
        gram = (w.conjugate_transpose().to_csr() @ w.to_csr()).toarray()
        assert np.max(np.abs(gram - np.eye(w.domain.size))) <= 1e-12


def test_dump_format():
    sym = shift_symbol(1)
    w = build_wl(sym, 1)
    lines = dump_lines(w, sym)
    assert lines[0] == "# 2 1 1 2"
    rows = [line.split() for line in lines[1:]]
    assert all(len(r) == 4 for r in rows)
    # sorted by (row, col), entries parse back to the matrix
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)
    a = w.toarray()
    for r in rows:
        i, j, re, im = int(r[0]), int(r[1]), float(r[2]), float(r[3])
        assert a[i, j] == complex(re, im)


def _is_canonical(op):
    csr = op.to_csr()
    return csr.has_sorted_indices and csr.has_canonical_format and np.all(csr.data != 0)


def test_canonical_csr_is_stored_without_copy():
    rng = np.random.default_rng(404)
    for n in (1, 2, 3):
        for _ in range(3):
            sym = random_symbol(rng, n, int(rng.integers(1, 3)), 2)
            for op in (build_wl(sym, 3), build_wl_adjoint(sym, 3)):
                assert _is_canonical(op) and op.data is op.to_csr()
                same = FockOperator(op.domain, op.codomain, op.to_csr())
                assert same.to_csr() is op.to_csr()
                assert np.shares_memory(same.to_csr().data, op.to_csr().data)
                assert same.max_abs_diff(op) == 0.0


def test_triplets_and_coo_come_out_canonical():
    b = enumerate_basis(2, 1, 1)
    # (0, 1) twice, an explicit zero at (1, 1), columns out of order in row 2
    rows, cols = np.array([2, 0, 1, 0, 2]), np.array([2, 1, 1, 1, 0])
    vals = np.array([3.0, 1.5, 0.0, 0.5, -1j])
    want = {(0, 1): 2.0, (2, 0): -1j, (2, 2): 3.0}
    for data in ((vals, (rows, cols)), sparse.coo_matrix((vals, (rows, cols)), shape=(3, 3))):
        op = FockOperator(b, b, data)
        assert _is_canonical(op) and op.nnz == 3
        assert entries(op) == want
        assert op.to_csr().indices.tolist() == [1, 0, 2]


def test_wrong_shape_is_rejected():
    b = enumerate_basis(2, 1, 1)
    wide = build_wl(shift_symbol(1), 1)
    for data in (wide.to_csr(), wide.toarray(), np.eye(2)):
        with pytest.raises(ValueError):
            FockOperator(b, b, data)


def test_benchmark_relabel_shares_the_adjoint_arrays():
    # the row prefix keeps 7 of 8 levels: scipy shares a prefix that holds
    # at least half of the entries, and the relabel itself never copies
    sym = Symbol(1, 2, {((), 1, 2): 1.0, ((1,), 2, 1): 0.5, ((1,), 1, 1): -0.25j})
    w = build_wl(sym, 6)
    star = build_wl_adjoint(sym, 6 + sym.K)
    ct = w.conjugate_transpose()
    rows = star.restrict_rows(w.domain.size)
    relabel = FockOperator(rows.domain, ct.codomain, rows.data)
    assert relabel.to_csr() is rows.to_csr()
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(relabel.to_csr(), name), getattr(star.to_csr(), name))
    assert relabel.shape == ct.shape and ct.max_abs_diff(relabel) <= 1e-12


def test_products_and_blocks_stay_canonical():
    sym = Symbol(2, 2, {((), 1, 2): 1.0, ((1,), 2, 1): 0.5, ((2, 1), 1, 1): -0.25j})
    w = build_wl(sym, 3)
    ct = w.conjugate_transpose()
    gram = FockOperator(w.domain, w.domain, ct.to_csr() @ w.to_csr())
    for op in (ct, gram, w.restrict_rows(w.domain.size), block(w, M, N), block(w, M_PERP, N_PERP)):
        assert _is_canonical(op)
    # a product entry that cancels to an exact zero is not stored
    b = enumerate_basis(1, 1, 1)
    row = sparse.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    col = sparse.csr_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert FockOperator(b, b, row @ col).nnz == 0


def _scalar_builds(sym, depth):
    """Both maps entry by entry from the scalar carries, as dicts."""
    n, d = sym.n, sym.d
    dom = enumerate_basis(n, depth, d)
    cod = enumerate_basis(n, depth + sym.K, d)
    fwd, adj = {}, {}
    for mu in dom.words:
        for q in range(1, d + 1):
            col = dom.index(mu, q)
            if word_in_n0(mu, n):
                fwd[(cod.index(successor(mu, n), q), col)] = 1.0
                continue
            # the vacuum and the all-n chains restart as 1^m . L
            for (word, s, qq), value in sym.entries.items():
                if qq == q:
                    fwd[(cod.index((1,) * len(mu) + word, s), col)] = value
    for gamma in dom.words:
        lo = leading_ones(gamma)
        for l in range(1, d + 1):
            col = dom.index(gamma, l)
            if word_in_m0(gamma):
                adj[(dom.index(predecessor(gamma, n), l), col)] = 1.0
            for p in range(lo.p + 1):
                for (word, s, q), value in sym.entries.items():
                    if word == lo.drop(p) and s == l:
                        adj[(dom.index((n,) * p, q), col)] = np.conj(value)
    return fwd, adj


def test_vectorised_builds_match_scalar_reference():
    # no two terms share an entry, so the match is exact
    rng = np.random.default_rng(606)
    for n in (1, 2, 3):
        for d in (1, 2):
            for _ in range(3):
                sym = random_symbol(rng, n, d, 3)
                for depth in range(5 if n < 3 else 4):
                    fwd, adj = _scalar_builds(sym, depth)
                    assert entries(build_wl(sym, depth)) == fwd
                    assert entries(build_wl_adjoint(sym, depth)) == adj
