"""The trunk coproduct on rooted trees, its counit, and the right antipode.

The coproduct generalizes word deconcatenation: a tree is cut below each
vertex of its trunk (the path from the root to the first vertex with at
least two children), the lower part going to the left tensor leg.  For a
linear tree there is one more cut above the unique leaf, so on linear trees
the coproduct agrees with deconcatenation of the corresponding word.

It is defined on trees and the empty forest only; a non-connected nonempty
argument is rejected rather than silently extended.  The recursion memoizes
``linalg._Exact`` values, and ``trunk_coproduct`` wraps one in O(1).
"""

from __future__ import annotations

from fractions import Fraction

from .forest import EMPTY, Forest, RootedTree, _below, _gc_paused, _grafted, _Memo
from .linalg import LinComb, TensorComb, _Exact, bilinear, lincomb_sum
from .words import Word, is_linear, tree_to_word, word_to_tree

__all__ = [
    "trunk_coproduct",
    "counit",
    "right_antipode",
    "antipode_square_residual",
]

# Every coefficient of the trunk coproduct is 1: its terms never repeat.
_trunk_cache = _Memo()  # forest key -> ({(x, y): 1}, 1)


@_gc_paused
def trunk_coproduct(arg: Forest | RootedTree) -> TensorComb[Forest]:
    """The coproduct: Δ(∅) = ∅⊗∅ and, for T = B+^a(F),

        Δ(T) = (B+^a ⊗ Id) Δ(t) + ∅⊗T   if F = t is ∅ or a single tree,
        Δ(T) = ∅⊗T                      if F is non-connected.

    Raises ValueError on non-connected nonempty input.
    """
    forest = arg.as_forest() if isinstance(arg, RootedTree) else arg
    if not forest.is_connected:
        raise ValueError(f"the trunk coproduct is defined on trees only, got {forest.key!r}")
    return TensorComb._wrap(_trunk(forest))


def _trunk(forest: Forest) -> _Exact:
    if forest.is_empty:
        return {(EMPTY, EMPTY): 1}, 1
    if (hit := _trunk_cache.get(forest.key)) is not None:
        return hit
    tree = forest.single_tree()
    body = _below(tree)
    nums = {(EMPTY, forest): 1}
    if body.is_connected:
        # B+ is injective and every grafted left leg is nonempty
        nums.update({(_grafted(tree.decoration, x), y): 1 for x, y in _trunk(body)[0]})
    return _trunk_cache.put(forest.key, forest.size, (nums, 1))


def counit(x: LinComb[Forest] | Forest) -> Fraction:
    """The coefficient of the empty forest."""
    if isinstance(x, Forest):
        return Fraction(1 if x.is_empty else 0)
    return x.coefficient(EMPTY)


def right_antipode(tree: RootedTree) -> LinComb[Forest]:
    """0 for trees with more than one leaf, else (-1)^(n+1) times the
    linear tree with the decoration order reversed (n = vertex count)."""
    forest = tree.as_forest()
    if not is_linear(forest):
        return LinComb.zero()
    sign = Fraction(1 if (tree.size + 1) % 2 == 0 else -1)
    return LinComb.of(word_to_tree(Word(tree_to_word(forest).letters[::-1])), sign)


def _antipode_leg(forest: Forest) -> LinComb[Forest]:
    """The antipode as applied to a tensor leg inside the counit square.

    On nonempty trees this is ``right_antipode``.  The empty leg is sent to
    -∅: that sign is forced by the nonempty cases of the square
    shuffle∘(Id⊗S)∘Δ = unit∘counit, and amounts to reading the sign rule
    (-1)^(n+1) at n = 0 as well.
    """
    if forest.is_empty:
        return LinComb.of(EMPTY, -1)
    return right_antipode(forest.single_tree())


def antipode_square_residual(tree: RootedTree) -> LinComb[Forest]:
    """shuffle∘(Id⊗S)∘Δ applied to a nonempty tree; zero iff the right
    antipode square commutes on that tree."""
    from .shuffle import forest_shuffle

    return lincomb_sum(
        bilinear(forest_shuffle, LinComb.of(left, c), _antipode_leg(right))
        for (left, right), c in trunk_coproduct(tree.as_forest()).items()
    )
