"""Exhaustive enumeration and seeded random generation of decorated forests.

Exhaustive enumerators produce each isomorphism class exactly once, in
canonical-key order.  The one enumeration lists the forests on an exact
decoration multiset (memoized per multiset); the forests of a size are its
union over that size's multisets (memoized per (size, alphabet)).
``words_of_size`` lists the words of a length, and ``operand_tuples`` is the
one sweep over operand pairs and triples whose sizes add up to a total,
taking each operand from any of these enumerators.  Random generators are
deterministic functions of the supplied ``random.Random``.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .forest import Decoration, EMPTY, Forest, RootedTree, _grafted, concat
from .words import Word

__all__ = [
    "trees_of_size",
    "forests_of_size",
    "trees_up_to",
    "forests_up_to",
    "words_of_size",
    "operand_tuples",
    "random_tree",
    "random_forest",
    "random_word",
    "default_alphabet",
]


def default_alphabet(names: Sequence[str] = ("a", "b")) -> tuple[Decoration, ...]:
    return tuple(Decoration((n,)) for n in names)


def _multiset_splits(
    ms: tuple[Decoration, ...]
) -> Iterable[tuple[tuple[Decoration, ...], tuple[Decoration, ...]]]:
    """Every split of a sorted multiset into two sorted sub-multisets, each
    split once."""
    distinct = sorted(set(ms))
    counts = [ms.count(d) for d in distinct]
    for take in itertools.product(*(range(c + 1) for c in counts)):
        left: list[Decoration] = []
        right: list[Decoration] = []
        for d, c, k in zip(distinct, counts, take):
            left.extend([d] * k)
            right.extend([d] * (c - k))
        yield tuple(left), tuple(right)


@cache
def _trees_on_multiset(ms: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """Every tree whose vertex decorations are exactly the given sorted
    multiset."""
    if not ms:
        return ()
    out: set[Forest] = set()
    seen: set[Decoration] = set()
    for i, dec in enumerate(ms):
        if dec in seen:
            continue
        seen.add(dec)
        for body in _forests_on_multiset(ms[:i] + ms[i + 1 :]):
            out.add(_grafted(dec, body))
    return tuple(sorted(out, key=lambda f: f.key))


@cache
def _forests_on_multiset(ms: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """Every forest whose vertex decorations are exactly the given sorted
    multiset."""
    if not ms:
        return (EMPTY,)
    out: set[Forest] = set()
    # the first decoration sits inside one component; choose that
    # component's other decorations, then the rest of the forest
    for picked, remaining in _multiset_splits(ms[1:]):
        for t in _trees_on_multiset(ms[:1] + picked):
            for f in _forests_on_multiset(remaining):
                out.add(concat(t, f))
    return tuple(sorted(out, key=lambda f: f.key))


def _of_size(
    on_multiset: Callable[[tuple[Decoration, ...]], tuple[Forest, ...]], n: int, alphabet: tuple[Decoration, ...]
) -> tuple[Forest, ...]:
    """The union of ``on_multiset`` over the size-n multisets of the
    alphabet, in key order; it is disjoint, since each forest has one
    decoration multiset."""
    if n < 0:
        return ()
    multisets = itertools.combinations_with_replacement(sorted(set(alphabet)), n)
    return tuple(sorted((f for ms in multisets for f in on_multiset(ms)), key=lambda f: f.key))


@cache
def trees_of_size(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """All decorated trees with exactly n vertices, as single-tree forests."""
    return _of_size(_trees_on_multiset, n, alphabet)


@cache
def forests_of_size(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """All decorated forests with exactly n vertices (n=0 gives just ∅)."""
    return _of_size(_forests_on_multiset, n, alphabet)


def trees_up_to(n: int, alphabet: tuple[Decoration, ...]) -> list[Forest]:
    out: list[Forest] = []
    for s in range(1, n + 1):
        out.extend(trees_of_size(s, alphabet))
    return out


def forests_up_to(n: int, alphabet: tuple[Decoration, ...], include_empty: bool = True) -> list[Forest]:
    out: list[Forest] = []
    for s in range(0 if include_empty else 1, n + 1):
        out.extend(forests_of_size(s, alphabet))
    return out


def words_of_size(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Word, ...]:
    """All words of n letters, in ``itertools.product`` order."""
    return tuple(Word(letters) for letters in itertools.product(alphabet, repeat=n))


def operand_tuples(
    of_size: Callable[[int], Sequence], total: int, arity: int, least: int = 1
) -> Iterator[tuple]:
    """Every tuple of ``arity`` operands, operand i taken from
    ``of_size(n_i)``, with each n_i at least ``least`` and the n_i summing to
    ``total``.  Size tuples come in ascending order, and within one the last
    operand varies fastest."""
    for sizes in itertools.product(range(least, total + 1), repeat=arity):
        if sum(sizes) == total:
            yield from itertools.product(*(of_size(n) for n in sizes))


def random_tree(rng: random.Random, size: int, alphabet: Sequence[Decoration]) -> Forest:
    """A uniform-ish random decorated tree with exactly ``size`` vertices."""
    if size < 1:
        raise ValueError("a tree has at least one vertex")
    dec = rng.choice(list(alphabet))
    children: list[RootedTree] = []
    budget = size - 1
    while budget > 0:
        s = rng.randint(1, budget)
        children.append(random_tree(rng, s, alphabet).single_tree())
        budget -= s
    return RootedTree(dec, children).as_forest()


def random_forest(rng: random.Random, size: int, alphabet: Sequence[Decoration]) -> Forest:
    """A random decorated forest with exactly ``size`` vertices."""
    trees: list[RootedTree] = []
    budget = size
    while budget > 0:
        s = rng.randint(1, budget)
        trees.append(random_tree(rng, s, alphabet).single_tree())
        budget -= s
    return Forest(trees)


def random_word(rng: random.Random, length: int, alphabet: Sequence[Decoration]) -> Word:
    return Word(tuple(rng.choice(list(alphabet)) for _ in range(length)))
