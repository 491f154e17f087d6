from __future__ import annotations

from fractions import Fraction

from hypothesis import given
import hypothesis.strategies as st

from forestshuffle.forest import Decoration
from forestshuffle.linalg import LinComb
from forestshuffle.rota_baxter import word_diamond
from forestshuffle.words import (
    Word,
    deconcatenation,
    deshuffle,
    is_linear,
    tree_to_word,
    word_shuffle,
    word_shuffle_brute,
    word_to_tree,
)

A, B, C, X = (Decoration([s]) for s in "abcx")

letters = st.sampled_from([A, B, C])
words = st.builds(Word, st.lists(letters, max_size=4))
nonempty_words = st.builds(Word, st.lists(letters, min_size=1, max_size=4))
weights = st.sampled_from([0, 1, -1, Fraction(2, 3)])


def test_equality_and_hash_follow_the_key():
    assert Word((A * B,)) != Word((A, B))
    assert Word((A * B,)).key == "(a*b)" and Word((A, B)).key == "(a b)"
    same = Word([Decoration(["b", "a"]), Decoration(["c"])])
    assert same == Word((A * B, C)) and hash(same) == hash(Word((A * B, C)))
    assert hash(same) == hash(same.key)
    assert Word(()) != Word((Decoration(),)) and Word(()).key == "()"


def test_unit():
    w = Word((A, B))
    assert word_shuffle(Word(()), w) == LinComb.of(w)
    assert word_shuffle(w, Word(())) == LinComb.of(w)


def test_two_against_one_is_plain_interleaving():
    # oracle: brute-force interleavings of (a b) and (c)
    got = word_shuffle(Word((A, B)), Word((C,)))
    assert got == word_shuffle_brute(Word((A, B)), Word((C,)))
    assert got == LinComb(
        {Word((A, B, C)): Fraction(1), Word((A, C, B)): Fraction(1), Word((C, A, B)): Fraction(1)}
    )


def test_single_letters_with_weight():
    got = word_shuffle(Word((A,)), Word((B,)), 1)
    assert got == LinComb(
        {Word((A, B)): Fraction(1), Word((B, A)): Fraction(1), Word((A * B,)): Fraction(1)}
    )


@given(w=words, v=words)
def test_matches_brute_force_at_weight_zero(w, v):
    assert word_shuffle(w, v) == word_shuffle_brute(w, v)


@given(w=words, v=words, lam=weights)
def test_commutative(w, v, lam):
    assert word_shuffle(w, v, lam) == word_shuffle(v, w, lam)


@given(w=words, v=words)
def test_degree_additive_at_weight_zero(w, v):
    for word, _ in word_shuffle(w, v).items():
        assert len(word) == len(w) + len(v)


@given(w=words, v=words)
def test_atom_count_additive_at_any_weight(w, v):
    total = sum(len(l.atoms) for l in w.letters) + sum(len(l.atoms) for l in v.letters)
    for word, _ in word_shuffle(w, v, 1).items():
        assert sum(len(l.atoms) for l in word.letters) == total


@given(w=nonempty_words, v=nonempty_words, lam=weights)
def test_diamond_is_its_definition(w, v, lam):
    # first letters multiply, tails quasi-shuffle
    head = w.letters[0] * v.letters[0]
    tails = word_shuffle(Word(w.letters[1:]), Word(v.letters[1:]), lam)
    expected = LinComb.sum_of((Word((head,) + u.letters), c) for u, c in tails.items())
    got = word_diamond(w, v, lam)
    assert got == expected
    assert all(type(c) is Fraction and c for _, c in got.items())


def test_linear_tree_injection():
    assert word_to_tree(Word(())).is_empty
    t = word_to_tree(Word((A, B, C)))
    assert t.key == "a[b[c]]"
    assert is_linear(t)
    assert tree_to_word(t) == Word((A, B, C))
    assert is_linear(word_to_tree(Word((A,))))


def test_deconcatenation_counts():
    w = Word((A, B, C))
    d = deconcatenation(w)
    assert len(d) == 4
    assert d.coefficient((Word((A,)), Word((B, C)))) == 1


def test_deshuffle_is_dual_to_brute_shuffle():
    w = Word((A, B, A))
    d = deshuffle(w)
    for (u, v), c in d.items():
        assert word_shuffle_brute(u, v).coefficient(w) == c
