"""Assembly of the odometer map, its adjoint, and the derived blocks.

Two deliberately independent routes exist: build_wl assembles the forward
action (carry on the interior, symbol columns at the vacuum and on the
all-n chains), build_wl_adjoint assembles the closed-form adjoint
(inverse carry plus a leading-ones sum through L*).  Their agreement
under conjugate transposition is a test target, so neither may call the
other.

Both builds are index arithmetic on the closed-form Fock index: carries
on arrays of 0-based digits, symbol terms on (entry x level) grids.  A
FockOperator is one canonical complex CSR matrix (sorted indices, no
duplicates, no explicit zeros) between two indexed bases; products,
identities and entry reads are scipy.sparse operations on that matrix.

The forward map is built with a codomain deep enough (domain depth plus
symbol depth) that no image coefficient is lost to truncation.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import sparse

from . import fock
from .symbol import MatrixPolynomial, Symbol


class SubspaceSelector(Enum):
    """The four distinguished coordinate subspaces.

    M holds the words with a letter above 1 (carry images), its complement
    is the 1-chain sector; N holds the words with a letter below n (carry
    sources), its complement is the all-n chain sector.
    """

    M = "m"
    M_PERP = "m_perp"
    N = "n"
    N_PERP = "n_perp"

    def mask(self, basis) -> np.ndarray:
        """Boolean mask over the basis indices of the selected words."""
        lengths = np.arange(basis.depth + 1)
        if self in (SubspaceSelector.M, SubspaceSelector.M_PERP):
            chain = fock.word_count(basis.n, lengths - 1)  # 1^m has value 0
        else:
            chain = fock.word_count(basis.n, lengths) - 1  # n^m has value n^m - 1
        words = np.zeros(fock.word_count(basis.n, basis.depth), dtype=bool)
        words[chain] = True
        if self in (SubspaceSelector.M, SubspaceSelector.N):
            words = ~words
        return np.repeat(words, basis.d)


class SubBasis:
    """A parent basis cut down to the sorted parent indices it keeps."""

    def __init__(self, parent: fock.BasisIndex, parent_indices, selector: SubspaceSelector | None = None):
        self.parent = parent
        self.parent_indices = np.asarray(parent_indices, dtype=np.int64)
        self.selector = selector
        self.size = len(self.parent_indices)
        self.n, self.d, self.depth = parent.n, parent.d, parent.depth

    def pair(self, i: int):
        return self.parent.pair(int(self.parent_indices[i]))

    def __repr__(self):
        label = self.selector.value if self.selector else "prefix"
        return "SubBasis(%s of %r, size=%d)" % (label, self.parent, self.size)


def subbasis(basis: fock.BasisIndex, selector: SubspaceSelector) -> SubBasis:
    return SubBasis(basis, np.flatnonzero(selector.mask(basis)), selector)


def _canonical(matrix, shape) -> sparse.csr_matrix:
    # a canonical complex CSR matrix is kept as given; anything else is
    # converted and made canonical in place (CSR or (data, indices, indptr)
    # input hands its arrays over)
    if not (isinstance(matrix, sparse.csr_matrix) and matrix.dtype == complex
            and matrix.has_canonical_format and matrix.data.all()):
        matrix = sparse.csr_matrix(matrix, shape=shape, dtype=complex)
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
    if matrix.shape != shape:
        raise ValueError("entries of shape %r for shape %r" % (matrix.shape, shape))
    return matrix


def _triplets(parts, shape):
    # CSR (data, indices, indptr) of (rows, cols, values) parts, built by a
    # row-major sort: scipy's per-call cost dominates on small operators
    rows = np.concatenate([np.ravel(r) for r, _, _ in parts])
    cols = np.concatenate([np.ravel(c) for _, c, _ in parts])
    vals = np.concatenate([np.broadcast_to(v, np.shape(r)).ravel() for r, _, v in parts])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return vals.astype(complex)[order], cols[order], indptr


class FockOperator:
    """Sparse matrix between two indexed bases, entries kept exactly.

    data is anything sparse.csr_matrix accepts.  A canonical complex CSR
    matrix of the right shape is stored as given, not copied; anything
    else is converted and made canonical in place.
    .data is the stored matrix, as is to_csr(); treat it as read-only.
    """

    def __init__(self, domain, codomain, data):
        self.domain = domain
        self.codomain = codomain
        self.data = _canonical(data, (codomain.size, domain.size))

    @property
    def shape(self):
        return (self.codomain.size, self.domain.size)

    @property
    def nnz(self) -> int:
        return self.data.nnz

    def toarray(self) -> np.ndarray:
        return self.data.toarray()

    def to_csr(self):
        return self.data

    def conjugate_transpose(self) -> "FockOperator":
        out = self.data.T.tocsr()
        np.conjugate(out.data, out=out.data)
        return FockOperator(self.codomain, self.domain, out)

    def restrict_rows(self, row_count: int) -> "FockOperator":
        """Keep rows below row_count; valid because deeper bases extend
        shallower ones by index.  A row prefix of a canonical CSR matrix
        is canonical, so the result shares this operator's arrays (scipy
        copies a prefix that holds less than half of the entries)."""
        rows = SubBasis(self.codomain, np.arange(row_count))
        end = self.data.indptr[row_count]
        prefix = (self.data.data[:end], self.data.indices[:end], self.data.indptr[: row_count + 1])
        return FockOperator(self.domain, rows, sparse.csr_matrix(prefix, shape=(row_count, self.shape[1])))

    def max_abs_diff(self, other: "FockOperator") -> float:
        if self.shape != other.shape:
            raise ValueError("shape mismatch %r vs %r" % (self.shape, other.shape))
        diff = (self.data - other.data).data
        return float(np.max(np.abs(diff))) if diff.size else 0.0

    def column_norms(self) -> np.ndarray:
        sq = np.abs(self.data.data) ** 2
        return np.sqrt(np.bincount(self.data.indices, weights=sq, minlength=self.domain.size))

    def sigma_max(self) -> float:
        """Largest singular value of an odometer map or of its row
        restriction, read off the carry/chain core (carry_singular_values);
        raises ValueError when the carry structure is absent."""
        s, ones = carry_singular_values(self)
        return max(float(s[0]) if s.size else 0.0, 1.0 if ones else 0.0)

    def __repr__(self):
        return "FockOperator(shape=%r, nnz=%d)" % (self.shape, self.nnz)


def carry_singular_values(w: FockOperator):
    """Singular values of an odometer map from its carry/chain core.

    Reads only the stored matrix.  It first certifies the carry: every
    N-sector column holds exactly one entry, equal to 1, and no two share
    a row (ValueError otherwise).  With X the chain columns on the rows
    the carry hits and Z the chain columns on their other nonzero rows,
    X = Q R_X and Z = Q' R_Z give the same singular values as the map,
    apart from exact ones: those of [[I, R_X], [0, R_Z]], at most 2k x 2k
    for k chain columns.  Returns (values, ones): the core's values,
    descending, padded with the zeros the dropped rows stand for, and the
    number of further singular values equal to 1.
    """
    carry = SubspaceSelector.N.mask(w.domain)
    if carry.size != w.shape[1]:
        raise ValueError("domain %r is not a full Fock basis" % (w.domain,))
    csc = w.to_csr().tocsc()
    if np.any(np.diff(csc.indptr)[carry] != 1):
        raise ValueError("carry columns are not single entries")
    first = csc.indptr[:-1][carry]
    hit = csc.indices[first]
    if np.any(csc.data[first] != 1) or np.unique(hit).size != hit.size:
        raise ValueError("carry columns are not distinct unit columns")
    chain = csc[:, ~carry].tocsr()
    nonzero = np.flatnonzero(np.diff(chain.indptr))
    on_carry = np.isin(nonzero, hit)
    r_x, r_z = (np.linalg.qr(chain[rows].toarray(), mode="r") for rows in (nonzero[on_carry], nonzero[~on_carry]))
    a, b = r_x.shape[0], r_z.shape[0]
    core = np.zeros((a + b, a + chain.shape[1]), dtype=complex)
    core[:a, :a] = np.eye(a)
    core[:a, a:] = r_x
    core[a:, a:] = r_z
    values = np.linalg.svd(core, compute_uv=False)
    ones = hit.size - a
    return np.concatenate([values, np.zeros(min(w.shape) - ones - values.size)]), ones


def _slots(positions, d: int) -> np.ndarray:
    # word positions -> flat indices of all their slots, slot innermost
    return (np.asarray(positions)[:, None] * d + np.arange(d)).ravel()


def _symbol_arrays(sym: Symbol):
    """Entries of L as parallel arrays: word length, word value, target
    slot s, source slot q (both 0-based) and coefficient."""
    rows = [(len(w), fock.word_value(w, sym.n), s - 1, q - 1) for w, s, q in sym.entries]
    length, value, s, q = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return length, value, s, q, np.array(list(sym.entries.values()), dtype=complex)


def build_wl(sym: Symbol, depth: int, codomain_depth: int | None = None) -> FockOperator:
    """Forward odometer action on the depth-truncated basis.

    Columns follow the case split of the action: the vacuum column is L
    itself, interior words carry to their successor, and the all-n chains
    restart as a 1-chain prefix in front of L.  With the default codomain
    depth (domain depth + symbol depth) every image fits, so the matrix
    is the exact restriction of the infinite map.
    """
    if codomain_depth is None:
        codomain_depth = depth + sym.K
    if codomain_depth < depth + sym.K:
        raise ValueError("codomain depth %d loses image mass" % codomain_depth)
    domain = fock.enumerate_basis(sym.n, depth, sym.d)
    codomain = fock.enumerate_basis(sym.n, codomain_depth, sym.d)
    n, d = sym.n, sym.d
    # interior words (a letter below n) carry to their successor, slot by slot
    lengths, digits = fock.basis_digits(n, depth)
    src = np.flatnonzero(SubspaceSelector.N.mask(domain)[::d])
    m = lengths[src]
    succ = fock.word_count(n, m - 1) + fock.digit_values(fock.carry(digits[src], n), n) // n ** (depth - m)
    # the all-n chain n^m (the vacuum at m = 0) goes to e_1^m tensor L h_q
    length, value, s, q, coeff = _symbol_arrays(sym)
    m = np.arange(depth + 1)[:, None]
    rows = (fock.word_count(n, m + length - 1) + value) * d + s
    cols = (fock.word_count(n, m) - 1) * d + q
    parts = [(_slots(succ, d), _slots(src, d), 1.0), (rows, cols, coeff)]
    return FockOperator(domain, codomain, _triplets(parts, (codomain.size, domain.size)))


def build_wl_adjoint(sym: Symbol, depth: int) -> FockOperator:
    """Adjoint of the odometer action from its closed form, square at depth.

    Column for (gamma, l): the inverse carry sends gamma to its
    predecessor when some letter exceeds 1, and the leading-ones prefix
    contributes one all-n chain term e_n^p tensor L*(gamma with p ones
    dropped) for each 0 <= p <= (number of leading ones).  L* reads the
    word u = gamma with p ones dropped, so each entry (u, l, q) of L
    reaches the columns 1^p u and lands on the chain words n^p.

    Assembled without reference to build_wl; the conjugate-transpose
    identity between the two is a verification target, not an input.
    """
    basis = fock.enumerate_basis(sym.n, depth, sym.d)
    n, d = sym.n, sym.d
    # words with a letter above 1 go back to their predecessor, slot by slot
    lengths, digits = fock.basis_digits(n, depth)
    src = np.flatnonzero(SubspaceSelector.M.mask(basis)[::d])
    m = lengths[src]
    pred = fock.word_count(n, m - 1) + fock.digit_values(fock.inverse_carry(digits[src], n), n) // n ** (depth - m)
    length, value, l, q, coeff = _symbol_arrays(sym)
    p = np.arange(depth + 1)[:, None]
    fits = p + length <= depth
    p, length, value, l, q, coeff = (np.broadcast_to(a, fits.shape)[fits] for a in (p, length, value, l, q, coeff))
    cols = (fock.word_count(n, p + length - 1) + value) * d + l
    rows = (fock.word_count(n, p) - 1) * d + q
    parts = [(_slots(pred, d), _slots(src, d), 1.0), (rows, cols, np.conj(coeff))]
    return FockOperator(basis, basis, _triplets(parts, (basis.size, basis.size)))


def block(w: FockOperator, row_sel: SubspaceSelector, col_sel: SubspaceSelector) -> FockOperator:
    """Compression of w to selected row and column sectors."""
    rows = subbasis(w.codomain, row_sel)
    cols = subbasis(w.domain, col_sel)
    return FockOperator(cols, rows, w.to_csr()[rows.parent_indices][:, cols.parent_indices])


def hardy_block_matrix(wblock: FockOperator) -> np.ndarray:
    """Dense power-basis matrix of a chain-to-chain block.

    Rows must be a 1-chain sub-basis and columns an all-n chain sub-basis
    (for n = 1 the two chains coincide).  Entry layout is degree-major
    with the slot innermost on both sides, which is the sub-basis order
    itself: a chain holds one word per length.
    """
    chains = (SubspaceSelector.M_PERP, SubspaceSelector.N_PERP)
    for side in (wblock.codomain, wblock.domain):
        if getattr(side, "selector", None) not in chains:
            raise ValueError("hardy_block_matrix needs chain sub-bases, got %r" % (side,))
    return wblock.toarray()


def toeplitz_truncation(theta: MatrixPolynomial, size: int) -> np.ndarray:
    """Lower-triangular block Toeplitz matrix of the analytic symbol.

    Block (i, j) is coefficient i - j for 0 <= i - j <= degree, zero
    elsewhere; shape (size*d, size*d) over degrees 0..size-1.
    """
    if size < 1:
        raise ValueError("size must be positive")
    d = theta.dim
    out = np.zeros((size * d, size * d), dtype=complex)
    for r in range(min(theta.degree, size - 1) + 1):
        c = theta.coefficient(r)
        for i in range(r, size):
            j = i - r
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = c
    return out


def dump_lines(w: FockOperator, sym: Symbol) -> list:
    """Text dump: header '# n d D Dcod', then 'row col re im' per entry."""
    lines = ["# %d %d %d %d" % (sym.n, sym.d, w.domain.depth, w.codomain.depth)]
    coo = w.to_csr().tocoo()
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        lines.append("%d %d %.17g %.17g" % (i, j, v.real, v.imag))
    return lines
