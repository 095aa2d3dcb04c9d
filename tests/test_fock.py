from itertools import product

import pytest

from odolab.errors import AllNsWord, CapExceeded, OnesChainWord
from odolab.fock import (
    VACUUM,
    BasisIndex,
    basis_digits,
    carry,
    classify_word,
    digit_values,
    enumerate_basis,
    enumerate_words,
    inverse_carry,
    is_ns_chain,
    is_ones_chain,
    leading_ones,
    predecessor,
    successor,
    word_count,
    word_in_m0,
    word_in_n0,
)


def all_words(n, max_len):
    out = [()]
    for m in range(1, max_len + 1):
        out.extend(product(range(1, n + 1), repeat=m))
    return out


def test_successor_examples():
    # carry rule worked by hand: first letter below n bumps, prefix resets
    assert successor((3, 3, 2), 3) == (1, 1, 3)
    assert successor((1,), 2) == (2,)
    assert successor((2, 1), 2) == (1, 2)
    with pytest.raises(AllNsWord):
        successor((2, 2), 2)
    with pytest.raises(AllNsWord):
        successor(VACUUM, 2)


def test_predecessor_examples():
    assert predecessor((1, 1, 2), 2) == (2, 2, 1)
    assert predecessor((2,), 2) == (1,)
    assert predecessor((1, 3), 3) == (3, 2)
    with pytest.raises(OnesChainWord):
        predecessor((1, 1), 2)
    with pytest.raises(OnesChainWord):
        predecessor(VACUUM, 2)


def test_carry_round_trip_exhaustive():
    # successor then predecessor is the identity wherever both are defined
    for n in (1, 2, 3):
        for w in all_words(n, 6):
            if word_in_n0(w, n):
                s = successor(w, n)
                assert len(s) == len(w)
                assert word_in_m0(s)
                assert predecessor(s, n) == w
            if word_in_m0(w):
                p = predecessor(w, n)
                assert len(p) == len(w)
                assert word_in_n0(p, n)
                assert successor(p, n) == w


def test_successor_is_length_preserving_bijection():
    # on each length class the carry maps N0 onto M0 bijectively
    for n in (2, 3):
        for m in range(1, 5):
            n0 = [w for w in product(range(1, n + 1), repeat=m) if word_in_n0(w, n)]
            images = {successor(w, n) for w in n0}
            m0 = {w for w in product(range(1, n + 1), repeat=m) if word_in_m0(w)}
            assert images == m0
            assert len(images) == len(n0)


def test_word_class_partition():
    for n in (1, 2, 3):
        for w in all_words(n, 5):
            c = classify_word(w, n)
            assert c.in_m0 == (not c.ones_chain)
            assert c.in_n0 == (not c.ns_chain)
    # vacuum sits on both chains
    c = classify_word(VACUUM, 2)
    assert c.ones_chain and c.ns_chain and not c.in_m0 and not c.in_n0
    # for n = 1 every word is both chains at once
    for w in all_words(1, 4):
        c = classify_word(w, 1)
        assert c.ones_chain and c.ns_chain


def test_leading_ones_split():
    lo = leading_ones((1, 1, 3, 1, 2))
    assert lo.p == 2
    assert lo.tail == (3, 1, 2)
    assert lo.drop(0) == (1, 1, 3, 1, 2)
    assert lo.drop(2) == (3, 1, 2)
    with pytest.raises(ValueError):
        lo.drop(3)
    lo = leading_ones(VACUUM)
    assert lo.p == 0 and lo.tail == ()
    lo = leading_ones((1, 1, 1))
    assert lo.p == 3 and lo.drop(1) == (1, 1)


def test_word_count_closed_form():
    assert word_count(3, 2) == 13
    assert word_count(1, 4) == 5
    for n in (1, 2, 3):
        for depth in range(5):
            assert word_count(n, depth) == len(all_words(n, depth))


def test_enumerate_words_graded_lex():
    ws = enumerate_words(2, 3)
    assert ws[0] == VACUUM
    assert ws[1:3] == [(1,), (2,)]
    assert ws[3:7] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    lengths = [len(w) for w in ws]
    assert lengths == sorted(lengths)


def test_basis_sizes():
    assert enumerate_basis(3, 2, 1).size == 13
    assert enumerate_basis(1, 4, 2).size == 10
    assert enumerate_basis(2, 3, 2).size == 30


def test_basis_round_trip_and_slot_nesting():
    b = enumerate_basis(2, 3, 3)
    for i in range(b.size):
        w, s = b.pair(i)
        assert b.index(w, s) == i
    # slots are contiguous within a word
    assert b.index((1,), 1) + 1 == b.index((1,), 2)


def test_basis_prefix_property():
    shallow = enumerate_basis(3, 2, 2)
    deep = enumerate_basis(3, 4, 2)
    for i in range(shallow.size):
        assert shallow.pair(i) == deep.pair(i)


def test_cap_enforced():
    assert enumerate_basis(3, 10, 1).size == 88573
    with pytest.raises(CapExceeded):
        enumerate_basis(3, 11, 1)
    # explicit cap overrides the default
    with pytest.raises(CapExceeded):
        enumerate_basis(2, 3, 1, cap=10)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("ODOLAB_CAP", "20")
    with pytest.raises(CapExceeded):
        BasisIndex(2, 3, 2)
    monkeypatch.setenv("ODOLAB_CAP", "1000000")
    assert BasisIndex(3, 11, 1).size == 265720


def test_chain_predicates():
    assert is_ones_chain((1, 1, 1))
    assert not is_ones_chain((1, 2))
    assert is_ns_chain((3, 3), 3)
    assert not is_ns_chain((3, 1), 3)
    assert is_ones_chain(VACUUM) and is_ns_chain(VACUUM, 2)


def test_closed_form_index_matches_enumeration():
    # position in enumerate_words, times d plus the slot, is the flat index
    for n in (1, 2, 3):
        for depth in range(7):
            for d in (1, 2):
                b = BasisIndex(n, depth, d)
                words = enumerate_words(n, depth)
                assert b.size == d * len(words)
                for pos, w in enumerate(words):
                    assert b.contains_word(w)
                    for s in range(1, d + 1):
                        i = pos * d + s - 1
                        assert b.index(w, s) == i
                        assert b.pair(i) == (w, s)


def test_closed_form_index_rejects_outside_words():
    b = BasisIndex(2, 3, 1)
    for w in [(1, 1, 1, 1), (3,), (0, 1)]:
        assert not b.contains_word(w)
        with pytest.raises(KeyError):
            b.index(w, 1)
    with pytest.raises(IndexError):
        b.pair(b.size)
    assert b.words == enumerate_words(2, 3)


def test_vectorised_carries_match_scalar():
    for n in (1, 2, 3):
        lengths, padded = basis_digits(n, 6)
        assert [tuple(int(a) + 1 for a in row[:m]) for row, m in zip(padded, lengths)] == enumerate_words(n, 6)
        for m in range(1, 7):
            digits = padded[lengths == m, :m]
            words = [tuple(int(a) + 1 for a in row) for row in digits]
            assert words == list(product(range(1, n + 1), repeat=m))
            assert digit_values(digits, n).tolist() == list(range(n**m))
            sources = [i for i, w in enumerate(words) if word_in_n0(w, n)]
            if sources:
                got = carry(digits[sources], n)
                assert [tuple(r) for r in (got + 1).tolist()] == [successor(words[i], n) for i in sources]
            images = [i for i, w in enumerate(words) if word_in_m0(w)]
            if images:
                got = inverse_carry(digits[images], n)
                assert [tuple(r) for r in (got + 1).tolist()] == [predecessor(words[i], n) for i in images]
            # the all-n and the 1-chain rows have no carry, as in the scalar case
            with pytest.raises(AllNsWord):
                carry(digits[-1:], n)
            with pytest.raises(OnesChainWord):
                inverse_carry(digits[:1], n)
