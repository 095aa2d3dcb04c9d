"""Finitely supported symbols and their analytic Toeplitz side.

A symbol is the coefficient table of a bounded map L from the coefficient
space into the truncated Fock tensor, keyed by (word, target slot, source
slot) with 1-based slots: entries[(mu, s, q)] is the component of L h_q on
e_mu tensor h_s.  The analytic symbol Theta collects the coefficient
operators read off the 1-chain words, in its own pass over the table;
components on other words never reach Theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fock, numerics
from .errors import IdenticallySingular, SymbolFormatError
from .numerics import DEFAULT_BOUNDARY_GRID, DEFAULT_TOL, Tolerance


class Symbol:
    """Immutable-by-convention coefficient table.

    entries maps (word, s, q) to a complex value; words are tuples over
    1..n, slots run 1..d.  Exact zeros are dropped at construction.
    arrays holds them decoded once, as parallel arrays in entries order:
    word length, base-n word value, 0-based slots s and q, coefficient.
    K is the symbol depth, the longest word (0 when empty).
    """

    __slots__ = ("n", "d", "entries", "arrays", "K")

    def __init__(self, n: int, d: int, entries):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        table = {}
        for key, value in dict(entries).items():
            word, s, q = key
            word = fock.check_word(word, n)
            s, q = int(s), int(q)
            if not (1 <= s <= d and 1 <= q <= d):
                raise ValueError("slots (%d, %d) outside 1..%d" % (s, q, d))
            value = complex(value)
            if value != 0:
                table[(word, s, q)] = value
        self.n = n
        self.d = d
        self.entries = table
        rows = [(len(w), fock.word_value(w, n), s - 1, q - 1) for w, s, q in table]
        length, value, s, q = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        self.arrays = (length, value, s, q, np.array(list(table.values()), dtype=complex))
        self.K = int(length.max(initial=0))

    def entry(self, word, s: int, q: int) -> complex:
        return self.entries.get((tuple(word), s, q), 0.0 + 0.0j)

    def support_words(self):
        return sorted({key[0] for key in self.entries}, key=lambda w: (len(w), w))

    def m_mass(self) -> float:
        """Largest entry modulus over words that leave the 1-chain."""
        _, value, _, _, coeff = self.arrays
        return max([0.0, *map(abs, coeff[value != 0].tolist())])

    def as_matrix(self, basis: fock.BasisIndex) -> np.ndarray:
        """Matrix of L against the given Fock basis, one column per slot."""
        if basis.n != self.n or basis.d != self.d:
            raise ValueError("basis alphabet/slot count does not match symbol")
        if basis.depth < self.K:
            raise ValueError("basis depth %d below symbol depth %d" % (basis.depth, self.K))
        length, value, s, q, coeff = self.arrays
        m = np.zeros((basis.size, self.d), dtype=complex)
        m[(fock.word_count(self.n, length - 1) + value) * self.d + s, q] = coeff
        return m

    def matrix(self) -> np.ndarray:
        return self.as_matrix(fock.enumerate_basis(self.n, self.K, self.d))

    def theta(self) -> "MatrixPolynomial":
        """Analytic symbol: coefficient operators up to the symbol depth.

        The degree is forced by the longest supported word, so trailing
        zero blocks appear when only off-chain words reach that length.
        """
        coeffs = np.zeros((self.K + 1, self.d, self.d), dtype=complex)
        for (word, s, q), value in self.entries.items():
            if not fock.word_in_m0(word):
                coeffs[len(word), s - 1, q - 1] = value
        return MatrixPolynomial(coeffs)

    def __repr__(self):
        return "Symbol(n=%d, d=%d, nnz=%d, K=%d)" % (self.n, self.d, len(self.entries), self.K)


class MatrixPolynomial:
    """Polynomial with d x d matrix coefficients, stacked low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or not coeffs.shape[0] or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError("coefficients must stack to shape (degree + 1, d, d), got %r" % (coeffs.shape,))
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def coefficient(self, r: int) -> np.ndarray:
        if 0 <= r < len(self.coeffs):
            return self.coeffs[r]
        return np.zeros((self.dim, self.dim), dtype=complex)

    def __call__(self, z) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        zp = 1.0 + 0.0j
        for c in self.coeffs:
            out += zp * c
            zp *= z
        return out

    def eval_grid(self, grid: int) -> np.ndarray:
        """Values on the uniform circle grid, shape (grid, d, d)."""
        z = np.exp(2j * np.pi * np.arange(grid) / grid)
        powers = z[:, None] ** np.arange(len(self.coeffs))[None, :]
        return np.tensordot(powers, self.coeffs, axes=(1, 0))

    def lipschitz_bound(self) -> float:
        """Bound on the angular derivative of the boundary values."""
        return float(
            sum(r * np.linalg.norm(c, 2) for r, c in enumerate(self.coeffs))
        )

    def __repr__(self):
        return "MatrixPolynomial(degree=%d, dim=%d)" % (self.degree, self.dim)


@dataclass(frozen=True)
class InnerResult:
    is_inner: bool
    deviation: float


def is_inner_exact(theta: MatrixPolynomial, tol: Tolerance = DEFAULT_TOL) -> InnerResult:
    """Algebraic inner test on the coefficients.

    Forms A_j = sum_r L_r* L_{r+j}; the polynomial has isometric boundary
    values exactly when A_0 is the identity and every other A_j vanishes.
    The deviation is the worst entry over all j, so it doubles as a
    quantitative distance for truncated series.
    """
    d = theta.dim
    deg = theta.degree
    deviation = 0.0
    for j in range(deg + 1):
        a_j = np.zeros((d, d), dtype=complex)
        for r in range(deg + 1 - j):
            a_j += theta.coeffs[r].conj().T @ theta.coeffs[r + j]
        if j == 0:
            a_j -= np.eye(d)
        deviation = max(deviation, float(np.max(np.abs(a_j))))
    return InnerResult(is_inner=deviation <= tol.eps_exact, deviation=deviation)


def det_coefficients(theta: MatrixPolynomial) -> np.ndarray:
    """Coefficients of det Theta via evaluation at roots of unity.

    det Theta has degree at most d * deg, so values at d*deg + 1 points
    determine it; the inverse DFT recovers the coefficients to rounding.
    """
    d = theta.dim
    m = d * theta.degree + 1
    z = np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.array([np.linalg.det(theta(zi)) for zi in z])
    # c_k = (1/m) sum_j vals_j z_j^{-k}, which is exactly fft under numpy's
    # e^{-2 pi i j k / m} convention
    return np.fft.fft(vals) / m


def _det_scale(theta: MatrixPolynomial) -> float:
    # Hadamard: |det| on the circle is at most (sum_r ||L_r||)^d
    col = sum(np.linalg.norm(c, 2) for c in theta.coeffs)
    return max(1.0, float(col) ** theta.dim)


def is_invertible_hinf(
    theta: MatrixPolynomial,
    grid: int = DEFAULT_BOUNDARY_GRID,
) -> bool:
    """Invertibility of Theta in the bounded analytic class.

    Reduces to det Theta: no roots in the closed disk means the inverse is
    again a bounded analytic matrix function.  The winding count carries
    its own boundary certificate and raises instead of guessing; an
    identically vanishing det is refused separately.
    """
    coeffs = det_coefficients(theta)
    scale = _det_scale(theta)
    if np.max(np.abs(coeffs)) <= 1e-12 * scale:
        raise IdenticallySingular("det of the symbol vanishes identically")
    # trim trailing interpolation noise so it cannot inflate the Lipschitz
    # margin of the winding certificate
    keep = len(coeffs)
    floor = 1e-13 * max(1.0, float(np.max(np.abs(coeffs))))
    while keep > 1 and abs(coeffs[keep - 1]) <= floor:
        keep -= 1
    return numerics.winding_number(coeffs[:keep], grid_size=grid) == 0


def sup_norm(theta: MatrixPolynomial, grid: int = DEFAULT_BOUNDARY_GRID):
    """Bracket [lower, upper] for the boundary sup of the top singular value.

    lower is the exact max over the grid; upper adds the Lipschitz slack
    sum_r r ||L_r|| * (2 pi / grid), so the true sup is certified to lie
    inside the bracket.
    """
    vals = theta.eval_grid(grid)
    smax = np.linalg.svd(vals, compute_uv=False)[:, 0]
    lower = float(np.max(smax))
    slack = theta.lipschitz_bound() * (2.0 * np.pi / grid)
    return lower, lower + slack


def norm_on_circle_sampled(theta: MatrixPolynomial, grid: int = 64) -> float:
    """Cruder sampled sup, used as an independent cross-check in tests."""
    best = 0.0
    for k in range(grid):
        z = np.exp(2j * np.pi * (k + 0.5) / grid)
        best = max(best, float(np.linalg.norm(theta(z), 2)))
    return best


# symbol file format: {"n": int, "dim": int, "entries": [entry...]} where
# each entry is {"word": [letters], "s": int, "q": int, "re": float, "im": float}


def symbol_to_dict(sym: Symbol) -> dict:
    items = []
    for (word, s, q) in sorted(sym.entries, key=lambda k: (len(k[0]), k[0], k[1], k[2])):
        value = sym.entries[(word, s, q)]
        items.append(
            {
                "word": list(word),
                "s": s,
                "q": q,
                "re": float(value.real),
                "im": float(value.imag),
            }
        )
    return {"n": sym.n, "dim": sym.d, "entries": items}


def symbol_from_dict(data) -> Symbol:
    if not isinstance(data, dict):
        raise SymbolFormatError("symbol file must hold a JSON object")
    try:
        n = int(data["n"])
        d = int(data["dim"])
        raw = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SymbolFormatError("missing or malformed n/dim/entries: %s" % exc)
    if not isinstance(raw, list):
        raise SymbolFormatError("entries must be a list")
    table = {}
    for item in raw:
        try:
            word = tuple(int(a) for a in item["word"])
            s = int(item["s"])
            q = int(item["q"])
            value = complex(float(item["re"]), float(item["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SymbolFormatError("bad entry %r: %s" % (item, exc))
        key = (word, s, q)
        if key in table:
            raise SymbolFormatError("duplicate entry for word=%r s=%d q=%d" % (list(word), s, q))
        table[key] = value
    try:
        return Symbol(n, d, table)
    except ValueError as exc:
        raise SymbolFormatError(str(exc))


def load_symbol(path) -> Symbol:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SymbolFormatError("not valid JSON: %s" % exc)
    return symbol_from_dict(data)


def save_symbol(sym: Symbol, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(symbol_to_dict(sym), fh, indent=2, sort_keys=True)
        fh.write("\n")
