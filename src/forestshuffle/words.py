"""Words over the decoration monoid and their quasi-shuffle products.

Words are the baseline the forest operations generalize: the injection
``word_to_tree`` sends a word to the linear tree whose root carries the
first letter.  ``word_shuffle`` is the classical recursive quasi-shuffle
(weight ``lam``); at lam=0 it is the plain shuffle of words.  The recursion
runs on letter tuples and on ``linalg._Exact``, like the forest products,
keeps its sub-results in a ``forest._Memo`` under their size rule (the size
is the letter count), and builds each result ``Word`` once, at the end.  A
``Word`` is a ``forest._Keyed`` value: it hashes and compares by its key,
as letter keys hold no space, so the key determines the letters.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .forest import Decoration, EMPTY, Forest, _gc_paused, _grafted, _Keyed, _Memo, _preorder
from .linalg import _ONE, LinComb, TensorComb, _combine, _exact, _Exact

__all__ = [
    "Word",
    "word_shuffle",
    "word_shuffle_brute",
    "word_to_tree",
    "tree_to_word",
    "is_linear",
    "deconcatenation",
    "deshuffle",
]


class Word(_Keyed):
    """An immutable sequence of letters, each a Decoration."""

    __slots__ = ("letters", "key")

    letters: tuple[Decoration, ...]
    key: str

    def __init__(self, letters: Iterable[Decoration] = ()):
        letters = tuple(letters)
        key = "(" + " ".join(l.key for l in letters) + ")"
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "key", key)

    def __len__(self) -> int:
        return len(self.letters)


# word_shuffle and rota_baxter.word_diamond are paused entries (see
# forest._gc_paused) over _word_shuffle, which never calls an entry.
_word_cache = _Memo()  # (letters, letters, p, q) -> (numerators, denominator)


@_gc_paused
def word_shuffle(w: Word, v: Word, lam: Fraction | int = 0) -> LinComb[Word]:
    """The weight-``lam`` quasi-shuffle of two words.

    Recursion on the leading letters a, b of the operands:
        w ⧢ v = a·(w' ⧢ v) + b·(w ⧢ v') + lam (a·b)·(w' ⧢ v')
    with the empty word as unit.  Degree additive; commutative because the
    letter product is.
    """
    # distinct letter tuples give distinct words
    return _letter_shuffle(w.letters, v.letters, lam).relabel(Word)


def _letter_shuffle(a: tuple[Decoration, ...], b: tuple[Decoration, ...], lam: Fraction | int) -> LinComb:
    """The weight-``lam`` quasi-shuffle of two letter tuples, on letter
    tuples: the body of the entries ``word_shuffle`` and ``word_diamond``."""
    lam = _exact(lam)
    return LinComb._wrap(_word_shuffle(a, b, lam.numerator, lam.denominator))


def _word_shuffle(a: tuple[Decoration, ...], b: tuple[Decoration, ...], p: int, q: int) -> _Exact:
    """``word_shuffle`` on letter tuples at weight p/q, keyed on letter
    tuples; the weight term is the part (numerators, denominator * q, p)."""
    if not a:
        return {b: 1}, 1
    if not b:
        return {a: 1}, 1
    key = (a, b, p, q)
    if (hit := _word_cache.get(key)) is not None:
        return hit
    nums, den = _word_shuffle(a[1:], b, p, q)
    parts = [({a[:1] + rest: c for rest, c in nums.items()}, den, 1)]
    nums, den = _word_shuffle(a, b[1:], p, q)
    parts.append(({b[:1] + rest: c for rest, c in nums.items()}, den, 1))
    if p:
        head = (a[0] * b[0],)
        nums, den = _word_shuffle(a[1:], b[1:], p, q)
        parts.append(({head + rest: c for rest, c in nums.items()}, den * q, p))
    return _word_cache.put(key, len(a) + len(b), _combine(parts))


def word_shuffle_brute(w: Word, v: Word) -> LinComb[Word]:
    """Plain shuffle by brute-force enumeration of interleavings.

    Independent of the recursion above: chooses the positions of ``w``'s
    letters among len(w)+len(v) slots.  Only the lam=0 case.
    """
    n, m = len(w), len(v)
    pairs = []
    for positions in itertools.combinations(range(n + m), n):
        letters: list[Decoration | None] = [None] * (n + m)
        for i, p in enumerate(positions):
            letters[p] = w.letters[i]
        it = iter(v.letters)
        letters = [x if x is not None else next(it) for x in letters]
        pairs.append((Word(letters), _ONE))
    return LinComb.sum_of(pairs)


def word_to_tree(w: Word) -> Forest:
    """The linear tree of a word; the first letter decorates the root."""
    forest = EMPTY
    for letter in reversed(w.letters):
        forest = _grafted(letter, forest)
    return forest


def is_linear(forest: Forest) -> bool:
    """True for ∅ and for trees all of whose vertices have fertility <= 1."""
    if forest.is_empty:
        return True
    if not forest.is_tree:
        return False
    return all(len(node.children) <= 1 for _, node in _preorder(forest.single_tree()))


def tree_to_word(forest: Forest) -> Word:
    if not is_linear(forest):
        raise ValueError(f"{forest.key!r} is not a linear tree")
    # a linear tree's preorder runs from the root down
    return Word([node.decoration for t in forest.trees for _, node in _preorder(t)])


def deconcatenation(w: Word) -> TensorComb[Word]:
    """Sum of all prefix/suffix splits of a word."""
    terms = {
        (Word(w.letters[:i]), Word(w.letters[i:])): Fraction(1)
        for i in range(len(w) + 1)
    }
    return TensorComb(terms)


def deshuffle(w: Word) -> TensorComb[Word]:
    """Dual of the plain shuffle: all subsequence/complement splits."""
    pairs = []
    indices = range(len(w))
    for r in range(len(w) + 1):
        for picked in itertools.combinations(indices, r):
            chosen = set(picked)
            left = Word(tuple(w.letters[i] for i in indices if i in chosen))
            right = Word(tuple(w.letters[i] for i in indices if i not in chosen))
            pairs.append(((left, right), _ONE))
    return TensorComb.sum_of(pairs)
