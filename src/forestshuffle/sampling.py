"""Exhaustive enumeration and seeded random generation of decorated forests.

Exhaustive enumerators produce each isomorphism class exactly once, in
canonical-key order, and are memoized per (size, alphabet).  Random
generators are deterministic functions of the supplied ``random.Random``.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Sequence

from .forest import Decoration, EMPTY, Forest, RootedTree
from .words import Word

__all__ = [
    "trees_of_size",
    "forests_of_size",
    "trees_up_to",
    "forests_up_to",
    "random_tree",
    "random_forest",
    "random_word",
    "default_alphabet",
]


def default_alphabet(names: Sequence[str] = ("a", "b")) -> tuple[Decoration, ...]:
    return tuple(Decoration((n,)) for n in names)


@cache
def trees_of_size(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """All decorated trees with exactly n vertices, as single-tree forests."""
    if n <= 0:
        return ()
    out = {
        RootedTree(dec, forest.trees).as_forest()
        for dec in alphabet
        for forest in forests_of_size(n - 1, alphabet)
    }
    return tuple(sorted(out, key=lambda f: f.key))


@cache
def forests_of_size(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """All decorated forests with exactly n vertices (n=0 gives just ∅)."""
    if n < 0:
        return ()
    if n == 0:
        return (EMPTY,)
    # choose a multiset of trees: force the lexicographically largest
    # tree first to enumerate each multiset once
    out: set[Forest] = set()

    def extend(remaining: int, max_key: str | None, acc: tuple[RootedTree, ...]) -> None:
        if remaining == 0:
            out.add(Forest(acc))
            return
        for s in range(1, remaining + 1):
            for tf in trees_of_size(s, alphabet):
                t = tf.single_tree()
                if max_key is not None and t.key > max_key:
                    continue
                extend(remaining - s, t.key, acc + (t,))

    extend(n, None, ())
    return tuple(sorted(out, key=lambda f: f.key))


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
