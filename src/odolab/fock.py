"""Words over the alphabet {1..n} and the graded basis of the truncated
vector-valued Fock space.

A word is a plain tuple of 1-based letters; the empty tuple is the vacuum.
The basis enumerates (word, slot) pairs in graded lexicographic order with
the slot nested innermost, so a depth-D basis is a prefix of every deeper
one over the same alphabet and coefficient dimension.

That order gives every index a closed form, so BasisIndex keeps no
per-word table.  carry and inverse_carry are the odometer carries on
arrays of 0-based digits; successor and predecessor stay as the scalar
specification they are tested against.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import AllNsWord, CapExceeded, OnesChainWord

Word = tuple  # tuple of ints in 1..n
VACUUM: Word = ()

DEFAULT_CAP = 200_000
CAP_ENV_VAR = "ODOLAB_CAP"


def basis_cap() -> int:
    """Configured basis-size cap; ODOLAB_CAP overrides the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (CAP_ENV_VAR, raw))
    if cap <= 0:
        raise ValueError("%s must be positive" % CAP_ENV_VAR)
    return cap


def check_word(word, n: int) -> Word:
    w = tuple(int(a) for a in word)
    for a in w:
        if not 1 <= a <= n:
            raise ValueError("letter %d outside alphabet 1..%d" % (a, n))
    return w


def word_in_m0(word) -> bool:
    """Some letter differs from 1 (word meets the interior row space)."""
    return any(a != 1 for a in word)


def word_in_n0(word, n: int) -> bool:
    """Some letter differs from n (word has a successor of equal length)."""
    return any(a != n for a in word)


def successor(mu, n: int) -> Word:
    """Odometer carry: bump the first letter below n, reset the prefix to 1s.

    Defined exactly on words with some letter != n; the all-n chains (and
    the vacuum) have no successor of equal length.
    """
    w = check_word(mu, n)
    for k, letter in enumerate(w):
        if letter != n:
            return (1,) * k + (letter + 1,) + w[k + 1 :]
    raise AllNsWord("word %r has no letter below %d" % (w, n))


def predecessor(gamma, n: int) -> Word:
    """Inverse carry: decrement the first letter above 1, prefix becomes ns."""
    w = check_word(gamma, n)
    for k, letter in enumerate(w):
        if letter != 1:
            return (n,) * k + (letter - 1,) + w[k + 1 :]
    raise OnesChainWord("word %r is a chain of 1s" % (w,))


@dataclass(frozen=True)
class LeadingOnes:
    """Split gamma = 1^p . tail with tail empty or starting above 1."""

    p: int
    tail: Word

    def drop(self, m: int) -> Word:
        # 1^{p-m} . tail, for 0 <= m <= p
        if not 0 <= m <= self.p:
            raise ValueError("can drop 0..%d ones, got %d" % (self.p, m))
        return (1,) * (self.p - m) + self.tail


def leading_ones(gamma) -> LeadingOnes:
    p = 0
    for a in gamma:
        if a != 1:
            break
        p += 1
    return LeadingOnes(p=p, tail=tuple(gamma[p:]))


def word_count(n: int, depth):
    """Number of words of length <= depth; also takes an integer array."""
    if n == 1:
        return depth + 1
    return (n ** (depth + 1) - 1) // (n - 1)


def word_value(word, n: int) -> int:
    """Base-n value of a word: letters as 0-based digits, first letter most
    significant.  Its position among the words of its length."""
    value = 0
    for a in word:
        value = value * n + (a - 1)
    return value


def enumerate_words(n: int, depth: int):
    """All words of length <= depth in graded lexicographic order."""
    out = [VACUUM]
    for m in range(1, depth + 1):
        out.extend(product(range(1, n + 1), repeat=m))
    return out


def basis_digits(n: int, depth: int):
    """(lengths, digits) of every word of length <= depth in basis order:
    0-based digits, each row right-padded with 0 to width depth."""
    lengths = np.repeat(np.arange(depth + 1), n ** np.arange(depth + 1))
    padded = (np.arange(len(lengths)) - word_count(n, lengths - 1)) * n ** (depth - lengths)
    return lengths, padded[:, None] // n ** np.arange(depth - 1, -1, -1) % n


def digit_values(digits: np.ndarray, n: int) -> np.ndarray:
    """Base-n value of each row of 0-based digits (see word_value)."""
    return digits @ n ** np.arange(digits.shape[1] - 1, -1, -1)


def _bump(digits, moves, step, fill, error):
    # per row: step the first digit where moves holds, fill the ones before
    if not moves.any(axis=1).all():
        raise error
    if not moves.size:
        return digits.copy()
    k = moves.argmax(axis=1)
    out = digits.copy()
    out[np.arange(len(out)), k] += step
    out[np.arange(out.shape[1]) < k[:, None]] = fill
    return out


def carry(digits: np.ndarray, n: int) -> np.ndarray:
    """successor on rows of 0-based digits: bump the first digit below
    n - 1 and reset the prefix to 0."""
    return _bump(digits, digits != n - 1, 1, 0, AllNsWord("a row has no letter below %d" % n))


def inverse_carry(digits: np.ndarray, n: int) -> np.ndarray:
    """predecessor on rows of 0-based digits: decrement the first digit
    above 0 and set the prefix to n - 1."""
    return _bump(digits, digits != 0, -1, n - 1, OnesChainWord("a row is a chain of 1s"))


class BasisIndex:
    """Index map for the (word, slot) basis at a fixed truncation depth.

    Flat index = word position * d + (slot - 1), with words in graded lex
    order, so a word of length m sits at word_count(n, m - 1) plus its
    base-n value.  Index and pair come from that closed form; no per-word
    table is kept.  Slots are 1-based throughout.
    """

    def __init__(self, n: int, depth: int, d: int):
        if n < 1 or d < 1 or depth < 0:
            raise ValueError("need n >= 1, d >= 1, depth >= 0")
        cap = basis_cap()
        total = d * word_count(n, depth)
        if total > cap:
            raise CapExceeded(
                "basis size %d exceeds cap %d (n=%d, depth=%d, d=%d)"
                % (total, cap, n, depth, d)
            )
        self.n = n
        self.depth = depth
        self.d = d
        # offsets[m] is the position of the first word of length m
        self.offsets = [word_count(n, m - 1) for m in range(depth + 2)]
        self.size = total

    @cached_property
    def words(self):
        """All words as tuples in basis order, built on first use."""
        return enumerate_words(self.n, self.depth)

    def contains_word(self, word) -> bool:
        w = tuple(word)
        return len(w) <= self.depth and all(1 <= a <= self.n for a in w)

    def index(self, word, slot: int) -> int:
        if not 1 <= slot <= self.d:
            raise ValueError("slot %d outside 1..%d" % (slot, self.d))
        if not self.contains_word(word):
            raise KeyError(tuple(word))
        return (self.offsets[len(word)] + word_value(word, self.n)) * self.d + (slot - 1)

    def pair(self, i: int):
        if not 0 <= i < self.size:
            raise IndexError(i)
        pos, slot = divmod(i, self.d)
        m = bisect_right(self.offsets, pos) - 1
        value = pos - self.offsets[m]
        letters = []
        for _ in range(m):
            value, digit = divmod(value, self.n)
            letters.append(digit + 1)
        return tuple(reversed(letters)), slot + 1

    def __repr__(self):
        return "BasisIndex(n=%d, depth=%d, d=%d, size=%d)" % (self.n, self.depth, self.d, self.size)


def enumerate_basis(n: int, depth: int, d: int) -> BasisIndex:
    return BasisIndex(n, depth, d)
