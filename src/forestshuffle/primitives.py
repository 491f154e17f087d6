"""Primitive trees for the dual coproduct: characterization, brute-force
enumeration over unlabeled shapes, and the recursive count.

A tree is primitive exactly when every internal vertex has fertility at
least two; the property depends only on the shape.  The recursive count
builds a tree from a multiset of smaller primitive subtrees hung below the
root, counting the multisets by the Euler transform.
"""

from __future__ import annotations

import itertools

from .forest import Decoration, GuardExceeded, RootedTree, UNIT, _preorder, _redecorate
from .sampling import trees_of_size

__all__ = [
    "SHAPE_GUARD",
    "COUNT_GUARD",
    "is_primitive",
    "enumerate_shapes",
    "count_shapes",
    "primitive_count_recursive",
    "primitive_count_brute",
    "decorate_distinct",
]

SHAPE_GUARD = 12

# Largest N that ``primitives --count N`` lists p_0..p_N to.  They come from
# one pass of _rooted_counts: O(N^2) big-integer steps on numbers of up to
# 0.34 N digits.  Single runs of the verb on a 2-core host, CPython 3.11:
# 0.6 s at N = 1,000, 2.7 s at 2,000, 7.6-11.6 s at 3,000 and 19 s at 3,500.
# Near N = 12,650, p_N passes CPython's 4,300-digit limit on int-to-text.
COUNT_GUARD = 3000


def is_primitive(tree: RootedTree) -> bool:
    """True iff every non-leaf vertex has fertility >= 2."""
    return all(len(node.children) != 1 for _, node in _preorder(tree))


def enumerate_shapes(n: int) -> tuple[RootedTree, ...]:
    """All unlabeled rooted trees with n vertices, each exactly once,
    in canonical-key order: the trees of ``sampling.trees_of_size`` over
    the unit decoration."""
    if n < 1:
        raise ValueError("shapes have at least one vertex")
    GuardExceeded.check(n, SHAPE_GUARD, "shape size")
    return tuple(f.trees[0] for f in trees_of_size(n, (UNIT,)))


def _rooted_counts(n: int, single_child: bool) -> list[int]:
    """a(0..n): the number of rooted trees with m vertices built from a root
    over a multiset of smaller such trees, with a(0) = 0 and a(1) = 1.

    M(m), the number of multisets of these trees with m vertices in total,
    comes from the Euler transform M(m) = 1/m sum_k c(k) M(m-k) with
    c(k) = sum_{d|k} d a(d), in O(n^2) big-integer steps.  Then
    a(m+1) = M(m), less the a(m) one-child roots unless ``single_child``.
    """
    a = [0, 1]
    c = [0]
    multisets = [1]
    for m in range(1, n):
        c.append(sum(d * a[d] for d in range(1, m + 1) if m % d == 0))
        multisets.append(sum(c[k] * multisets[m - k] for k in range(1, m + 1)) // m)
        a.append(multisets[m] - (0 if single_child else a[m]))
    return a[: n + 1]


def count_shapes(n: int) -> int:
    """Independent count of unlabeled rooted trees with n vertices, by the
    multiset-of-children recursion (no enumeration)."""
    if n < 1:
        return 0
    return _rooted_counts(n, single_child=True)[n]


def primitive_count_recursive(n: int) -> int:
    """The number of primitive trees with n vertices: a root over a
    multiset of primitive subtrees, never exactly one,

        p(n+1) = M_p(n) - p(n)   for n >= 1,  p(0) = 0,  p(1) = 1,

    where M_p(n) counts multisets of primitive trees with n vertices in
    total.  Exact big-integer arithmetic throughout.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _rooted_counts(n, single_child=False)[n]


def primitive_count_brute(n: int) -> int:
    """Count primitive shapes by filtering the full enumeration.

    Only the structural verdict is counted here; the verification suites
    check it against the reduced dual coproduct on distinctly decorated
    shapes ("structural == reduced-dual primitivity")."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(1 for shape in enumerate_shapes(n) if is_primitive(shape))


def decorate_distinct(shape: RootedTree) -> RootedTree:
    """Decorate a shape with pairwise-distinct atoms (canonical preorder)."""
    names = itertools.count()
    return _redecorate(shape, lambda _: Decoration((f"v{next(names)}",)))
