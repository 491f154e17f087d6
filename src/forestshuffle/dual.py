"""The coproduct dual to the forest shuffle, admissible families, and the
grafting products.

Three routes to the dual coproduct coexist here; each shares one rule with
one other:

* ``dual_recursive``  — the inductive formula: a tree B+^a(G) takes the
  root rule ``_root_terms`` on G's coproduct (a projection keeping only
  connected legs), a forest of n trees the alpha forest rule
  ``_alpha_terms`` (component-wise splits with coefficients
  alpha(r, n) = (r+1)(n-r)) on its components' reduced coproducts;
* ``dual_combinatorial`` — the alpha forest rule on each component's
  admissible vertex families, weighted by contracted fertilities (must
  agree with the recursive form exactly);
* ``dual_oracle``      — strict duality against the shuffle, the sum of
  <F, f1 ⧢ f2> f1⊗f2, computed as the transpose of the weight-0 shuffle
  recursion: the root rule on trees and a split of its own on forests; it
  un-shuffles the target instead of pairing candidates.

``dual_oracle_brute`` is the reference for the oracle: it pairs every basis
split of the decoration multiset through ``shuffle_coefficient``, which is
ground truth by definition, and deliberately shares no code with the two
formulas or the transpose.

A route that does not take a shared rule checks it: the root rule by
"recursive == combinatorial" and "transpose == brute oracle", the alpha
forest rule by "oracle == σ-refined reciprocal formula" (on distinct atoms
and on 2 atoms), which relates the formulas' alpha/fertility weights to
the normalization of strict duality.

The three routes carry their terms as ``linalg._Exact`` values keyed on leg
pairs (x, y) and sum them through ``linalg._combine``; each public entry
wraps its value in a ``TensorComb``, whose ``items()`` and ``coefficient()``
give ``Fraction`` values.  The two formulas' values have denominator 1: the
root rule copies coefficients, alpha is an integer and so is c_gamma.  The
transpose's forest rule divides by a normalization.  The family
enumeration names each family's vertex set by a bitmask over the tree's
preorder positions (a subtree is the block of its size from its root's
position); only ``admissible_families`` reads ``gamma`` from it, as the
refs at the set bits of one ``_preorder`` walk of the tree.

Three recursions keep a ``forest._Memo`` under its size rule: ``_dual``
and ``_transpose`` their ``_Exact`` values by forest key, and
``_family_sets`` its families as a tuple by tree key.  The last two keep
sub-results only: their entries (``dual_oracle``, and ``admissible_families``
and ``dual_combinatorial``) compute the asked forest's or tree's own value
from the memo without storing it.  A sweep seldom asks for one twice, and
at the default degrees of ``verify --suite all`` those values would be
most of both memos (2,174 of 2,989 transpose entries, never read, and 956
of 1,308 family entries, read 20 times in all).  After
``verify --suite all --max-degree 5`` the transpose memo holds 205 entries
and the family memo 87.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .forest import (
    EMPTY,
    Decoration,
    Forest,
    GuardExceeded,
    RootedTree,
    UNIT,
    VertexRef,
    _below,
    _fold,
    _gc_paused,
    _grafted,
    _Memo,
    _preorder,
    _scion_forest,
    concat,
    graft_at,
    leaf_refs,
)
from .linalg import _ONE, LinComb, TensorComb, _combine, _Exact
from .sampling import _forests_on_multiset, _multiset_splits
from .shuffle import shuffle_coefficient

__all__ = [
    "AdmissibleFamily",
    "admissible_families",
    "is_admissible_direct",
    "contraction_product",
    "dual_recursive",
    "reduced_dual",
    "dual_combinatorial",
    "dual_oracle",
    "dual_oracle_brute",
    "ORACLE_GUARD",
    "FAMILY_GUARD",
    "family_count",
    "graft_leaves",
    "graft_linear",
]

ORACLE_GUARD = 8

# Most admissible families one tree may have; a linear tree with 16 vertices
# has exactly this many.  A tree of n vertices has at most 2^n families, so
# one of at most 16 vertices is admitted without counting them.
FAMILY_GUARD = 2**16

# ---------------------------------------------------------------------------
# admissible families


class AdmissibleFamily(NamedTuple):
    """A vertex subset whose induced tree and complement-induced tree are
    both trees (or empty) and which freezes every branching: a vertex keeps
    its ambient fertility on its own side whenever either of the two is at
    least 2.  ``c_gamma`` is its contracted fertility."""

    gamma: frozenset[VertexRef]
    t_gamma: Forest
    t_complement: Forest
    c_gamma: int


def family_count(tree: RootedTree) -> int:
    """The number of admissible families of a tree, without listing them.

    Follows the enumeration in ``_family_sets``: 2 for a leaf, twice the
    child's count under a single-child root, and under a root with n >= 2
    children the two boundary families plus two for every proper nonempty
    family of each child.
    """
    return _fold(_preorder(tree), _count_families)


def _count_families(_ref: VertexRef, _node: RootedTree, counts: list[int]) -> int:
    if not counts:
        return 2
    if len(counts) == 1:
        return 2 * counts[0]
    return 2 + sum([2 * (c - 2) for c in counts])


def _dual_term_count(forest: Forest) -> int:
    """The terms ``_dual`` sums for a forest before they merge, without
    expanding: ``family_count`` for a tree and, for k >= 2 trees, the two
    trivial terms plus each tree's nontrivial families over the 2^(k-1)
    splits of the other trees.  ``dual_combinatorial`` sums as many."""
    counts = [family_count(t) for t in forest.trees]
    if len(counts) <= 1:
        return counts[0] if counts else 1
    return 2 + 2 ** (len(counts) - 1) * sum([c - 2 for c in counts])


_family_cache = _Memo()  # tree key -> ((mask, t_gamma, t_complement, c_gamma), ...)


def _family_sets(tree: RootedTree) -> tuple[tuple, ...]:
    """``_families`` of a tree, through ``_family_cache``."""
    if (hit := _family_cache.get(tree.key)) is not None:
        return hit
    return _family_cache.put(tree.key, tree.size, _families(tree))


def _families(tree: RootedTree) -> tuple[tuple, ...]:
    """Inductive enumeration of admissible families, each as (mask, t_gamma,
    t_complement, c_gamma).

    Single-child root: families of the child, each taken with and without
    the root, fertility unchanged; the root joins the side it goes to.  Any
    other root has the two boundary families (whole vertex set and empty
    set, fertility 1), which are all a leaf has.  Under n >= 2 children
    every other family is built from a proper nonempty family of one child,
    taken either as is or joined with the root and all other children;
    fertility is n times the child's.  Both sides are assembled from
    canonical parts with ``_grafted`` and ``concat`` instead of being induced
    again from the vertex sets.

    Bit p of ``mask`` is set when the vertex at preorder position p is in
    gamma.  In preorder a child's subtree is the block of its size from its
    root's position, so a child's mask shifts there, and joining the root
    and the other children sets every bit outside that block.  The families
    are a tuple, so no caller can change one that ``_family_cache`` shares.
    """
    kids = tree.children
    n = len(kids)
    dec = tree.decoration
    if n == 1:
        out: list[tuple] = []
        for sub, g, h, c in _family_sets(kids[0]):
            out.append((sub << 1, g, _grafted(dec, h), c))
            out.append(((sub << 1) | 1, _grafted(dec, g), h, c))
        return tuple(out)

    whole = tree.as_forest()
    full = (1 << tree.size) - 1
    out = [(0, EMPTY, whole, 1), (full, whole, EMPTY, 1)]
    start = 1  # child i's position: after the root and its elder siblings
    for i in range(n):
        kid = kids[i]
        # a subsequence of the sorted children is sorted
        others = Forest._build(kids[:i] + kids[i + 1 :], tree.size - 1 - kid.size)
        outside = full ^ (((1 << kid.size) - 1) << start)
        for sub, g, h, c in _family_sets(kid):
            if g.is_empty or h.is_empty:
                continue
            out.append((sub << start, g, _grafted(dec, concat(others, h)), n * c))
            out.append(((sub << start) | outside, _grafted(dec, concat(others, g)), h, n * c))
        start += kid.size
    return tuple(out)


def _checked_families(tree: RootedTree) -> tuple[tuple, ...]:
    """``_families`` of a tree, refused past ``FAMILY_GUARD`` families; the
    children's come from the memo, the tree's own is not stored.  A tree of
    n vertices has at most 2^n families, so only a tree too large for that
    to settle it is counted."""
    if tree.size >= FAMILY_GUARD.bit_length():
        GuardExceeded.check(family_count(tree), FAMILY_GUARD, "admissible family count")
    return _families(tree)


@_gc_paused
def admissible_families(tree: RootedTree) -> tuple[AdmissibleFamily, ...]:
    """All admissible families of a nonempty tree, in deterministic order.

    The boundary families (empty set and full vertex set) are always
    present with contracted fertility 1.  Guarded to ``FAMILY_GUARD``
    families: a linear tree with n vertices has 2^n of them.
    """
    refs = [ref for ref, _ in _preorder(tree)]
    rows = []
    for mask, g, h, c in _checked_families(tree):
        pos = [p for p in range(tree.size) if mask >> p & 1]
        rows.append((len(pos), pos, g, h, c))
    # preorder is the lexicographic order of refs, so ascending positions
    # sort as sorted refs do
    rows.sort(key=lambda row: row[:2])
    return tuple([AdmissibleFamily(frozenset([refs[p] for p in pos]), g, h, c) for _, pos, g, h, c in rows])


def _checked_gamma(
    tree: RootedTree, gamma: Iterable[VertexRef], walk: list[tuple[VertexRef, RootedTree]] | None
) -> tuple[frozenset[VertexRef], list[tuple[VertexRef, RootedTree]]]:
    """``gamma`` as a frozenset, with the tree's ``_preorder`` walk (walked
    here when not given); refs that do not resolve raise ``ValueError``."""
    gamma = frozenset(gamma)
    walk = _preorder(tree) if walk is None else walk
    if not gamma <= {ref for ref, _ in walk}:
        raise ValueError("gamma contains refs that do not resolve")
    return gamma, walk


def is_admissible_direct(
    tree: RootedTree, gamma: Iterable[VertexRef], walk: list[tuple[VertexRef, RootedTree]] | None = None
) -> bool:
    """Check the defining conditions of admissibility on a vertex set.

    Both induced sides must be trees (or empty), and every branching is
    frozen: a vertex's fertility on its own side must equal its fertility
    in the ambient tree whenever either of the two is at least 2.  The
    symmetric trigger matters: a fertility-1 vertex may not gain a second
    child on its side either (e.g. in r[s[u[x],v[y]]] the set {s,x,y} has
    tree complement r[u,v], but r had one child; the corresponding tensor
    never occurs in the dual coproduct, and the inductive enumeration
    rightly excludes the set).  Fertility may only vary between 0 and 1.

    One fold over the walk checks both sides at once.  Its value at a
    vertex is the pair (outside, inside): for each side of gamma, the
    number of that side's vertices in the vertex's subtree with no vertex
    of their own side above them in it.  Summed over a vertex's children,
    its own side's entry is its fertility on that side; the sides are trees
    (or empty) exactly when the root's pair is at most (1, 1).
    ``walk`` is the tree's ``_preorder`` walk, for a caller that checks
    many sets of one tree; it is walked here when not given.
    """
    gamma, walk = _checked_gamma(tree, gamma, walk)
    frozen = True

    def tops(ref: VertexRef, _node: RootedTree, kids: list[list[int]]) -> list[int]:
        nonlocal frozen
        own = ref in gamma
        out = inside = 0
        for kid_out, kid_in in kids:
            out += kid_out
            inside += kid_in
        pair = [out, inside]
        fert, side = len(kids), pair[own]
        if side != fert and max(fert, side) >= 2:
            frozen = False
        pair[own] = 1
        return pair

    # the fold runs first: it is what clears ``frozen``
    roots = _fold(walk, tops)
    return frozen and max(roots) <= 1


def contraction_fertility(
    tree: RootedTree, gamma: Iterable[VertexRef]
) -> tuple[RootedTree, int]:
    """Contract every maximal full subtree lying on one side of gamma.

    A full subtree (a vertex with all of its descendants) entirely inside
    gamma, or entirely inside the complement, collapses to a single vertex.
    Returns the undecorated contraction together with the product of the
    fertilities of its internal vertices (1 when the contraction has at
    most one vertex).  The tests' reference for ``contraction_product``,
    which finds the product without building the contraction.
    """
    gamma, walk = _checked_gamma(tree, gamma, None)
    _, cont = _fold(walk, lambda ref, _, kids: _contract(ref in gamma, kids))
    return cont, math.prod([len(node.children) for _, node in _preorder(cont) if node.children])


def _contract(
    side: bool, kids: list[tuple[bool | None, RootedTree]]
) -> tuple[bool | None, RootedTree]:
    """One vertex of the undecorated contraction, from its side of gamma and
    its children's (side, contraction) pairs: a single vertex, with its
    side, when its whole subtree lies on that side, else a vertex over the
    children's contractions with side None."""
    if all(kid_side is side for kid_side, _ in kids):
        return side, RootedTree(UNIT)
    return None, RootedTree(UNIT, [c for _, c in kids])


def contraction_product(
    tree: RootedTree, gamma: Iterable[VertexRef], walk: list[tuple[VertexRef, RootedTree]] | None = None
) -> int:
    """The fertility product of ``contraction_fertility``, from one fold
    over the tree's walk that builds no tree.

    A vertex stays internal in the contraction exactly when its subtree
    meets both sides of gamma, and there it keeps all its children, so the
    product runs over those vertices' fertilities.  The fertilities that
    ``admissible_families`` carries are checked against it.  ``walk`` is as
    for ``is_admissible_direct``.
    """
    gamma, walk = _checked_gamma(tree, gamma, walk)
    product = 1

    def side(ref: VertexRef, _node: RootedTree, kids: list[bool | None]) -> bool | None:
        # a vertex's side of gamma when its whole subtree lies there, else None
        nonlocal product
        own = ref in gamma
        if kids.count(own) == len(kids):
            return own
        product *= len(kids)
        return None

    _fold(walk, side)
    return product


# ---------------------------------------------------------------------------
# the dual coproduct, three ways

_dual_cache = _Memo()  # forest key -> ({(x, y): numerator}, 1)


def _component_splits(trees: tuple[RootedTree, ...], i: int):
    """Every split of the components other than ``trees[i]`` into a chosen
    forest and the rest: (number chosen, chosen, rest), lazily."""
    others = trees[:i] + trees[i + 1 :]
    for r in range(len(others) + 1):
        for picked in itertools.combinations(range(len(others)), r):
            f_in = tuple(others[j] for j in picked)
            f_out = tuple(t for j, t in enumerate(others) if j not in picked)
            # subsequences of a sorted tuple are sorted
            yield (
                r,
                Forest._build(f_in, sum(t.size for t in f_in)),
                Forest._build(f_out, sum(t.size for t in f_out)),
            )


@_gc_paused
def dual_recursive(forest: Forest) -> TensorComb[Forest]:
    """The dual coproduct by its inductive formula."""
    return TensorComb._wrap(_dual(forest))


def _dual(forest: Forest) -> _Exact:
    if (hit := _dual_cache.get(forest.key)) is not None:
        return hit

    if forest.is_empty:
        result = {(EMPTY, EMPTY): 1}, 1
    elif forest.is_tree:
        tree = forest.single_tree()
        result = _root_terms(tree.decoration, _dual(_below(tree)))
    else:
        reduced = []
        for tree in forest.trees:
            # reduced_dual(tree), recursing from this frame: the two terms
            # with an empty leg are T⊗∅ and ∅⊗T, each with coefficient 1
            nums, _ = _dual(tree.as_forest())  # over denominator 1
            reduced.append({(x, y): c for (x, y), c in nums.items() if not (x.is_empty or y.is_empty)})
        result = _alpha_terms(forest, reduced)

    return _dual_cache.put(forest.key, forest.size, result)


def _root_terms(dec: Decoration, body: _Exact) -> _Exact:
    """The coproduct of B+^dec(G) from the coproduct of its body G: each term
    x⊗y with coefficient c gives B+^dec(x)⊗y when y is connected and
    x⊗B+^dec(y) when x is.  G's trivial terms give the tree's.  Every
    coefficient is copied, so positive ones stay positive and the
    denominator stays that of G's."""
    nums, den = body
    return _combine([
        ({(_grafted(dec, x), y): c for (x, y), c in nums.items() if y.is_connected}, den, 1),
        ({(x, _grafted(dec, y)): c for (x, y), c in nums.items() if x.is_connected}, den, 1),
    ])


def _alpha_terms(forest: Forest, reduced: list[dict]) -> _Exact:
    """The coproduct of a nonempty forest from its components' reduced
    coproducts, one {(x, y): c} per component, both legs nonempty:
    F⊗∅ + ∅⊗F plus (x f_in)⊗(y f_out) with coefficient alpha(r, n)·c =
    (r+1)(n-r)·c over every split of the other components into r chosen
    ones f_in and the rest f_out, over denominator 1."""
    n = len(forest.trees)
    parts = [({(forest, EMPTY): 1, (EMPTY, forest): 1}, 1, 1)]
    for i, red in enumerate(reduced):
        if not red:
            continue
        for r, f_in, f_out in _component_splits(forest.trees, i):
            # one split maps distinct leg pairs to distinct leg pairs
            terms = {(concat(x, f_in), concat(y, f_out)): c for (x, y), c in red.items()}
            parts.append((terms, 1, (r + 1) * (n - r)))
    return _combine(parts)


def reduced_dual(forest: Forest) -> TensorComb[Forest]:
    """dual_recursive without the two trivial legs F⊗∅ and ∅⊗F."""
    trivial = TensorComb({(forest, EMPTY): Fraction(1), (EMPTY, forest): Fraction(1)})
    return dual_recursive(forest) - trivial


@_gc_paused
def dual_combinatorial(forest: Forest) -> TensorComb[Forest]:
    """The dual coproduct as a sum over admissible families.

    Must agree with ``dual_recursive`` exactly, on trees and forests alike.
    A tree has one split, with alpha(0, 1) = 1, and its boundary families
    are the trivial terms T⊗∅ and ∅⊗T.  Reads the families as enumerated,
    ignoring their vertex sets, and each distinct component's once.
    """
    if forest.is_empty:
        return TensorComb.of((EMPTY, EMPTY))
    trees = forest.trees
    reduced: list[dict] = []
    for i, tree in enumerate(trees):
        # trees are sorted, so equal components sit next to each other
        if i and trees[i - 1] == tree:
            reduced.append(reduced[-1])
            continue
        terms: dict = {}
        for _, g, h, c in _checked_families(tree):
            if not (g.is_empty or h.is_empty):
                # families with the same two legs add up
                terms[h, g] = terms.get((h, g), 0) + c
        reduced.append(terms)
    return TensorComb._wrap(_alpha_terms(forest, reduced))


# ---------------------------------------------------------------------------
# strict duality oracle

def _decoration_multiset(forest: Forest) -> tuple[Decoration, ...]:
    return tuple(sorted([node.decoration for t in forest.trees for _, node in _preorder(t)]))


def dual_oracle_brute(forest: Forest) -> TensorComb[Forest]:
    """The dual coproduct from first principles, by brute-force pairing.

    Sums <F, f1 ⧢ f2> f1⊗f2 over every pair of basis forests decorated from
    the multiset of F's own decorations (the only pairs that can pair
    nonzero at weight 0).  Guarded to |F| <= 8 vertices.  The reference for
    ``dual_oracle``: it shares no code with the formulas or the transpose.
    """
    GuardExceeded.check(forest.size, ORACLE_GUARD, "dual_oracle_brute forest size")
    ms = _decoration_multiset(forest)
    components = len(forest.trees)
    acc: dict[tuple[Forest, Forest], Fraction] = {}
    for left_ms, right_ms in _multiset_splits(ms):
        for f1 in _forests_on_multiset(left_ms):
            for f2 in _forests_on_multiset(right_ms):
                if f1.is_empty or f2.is_empty:
                    if concat(f1, f2) == forest:
                        acc[(f1, f2)] = Fraction(1)
                    continue
                # a shuffle of forests with k and n components only
                # produces forests with k+n-1 components
                if len(f1.trees) + len(f2.trees) != components + 1:
                    continue
                c = shuffle_coefficient(forest, f1, f2, 0)
                if c:
                    acc[(f1, f2)] = c
    return TensorComb(acc)


def _tree_splits(trees: tuple[RootedTree, ...]):
    """Every split of a sorted tuple of trees into two sub-multisets, each
    split once: (first, second) as sorted tuples, lazily.

    Does the job of ``sampling._multiset_splits`` on trees, but is kept apart
    from it so that the brute-force reference shares no code with the
    transpose."""
    runs = [tuple(run) for _, run in itertools.groupby(trees, key=lambda t: t.key)]
    for take in itertools.product(*(range(len(run) + 1) for run in runs)):
        yield (
            tuple(t for run, k in zip(runs, take) for t in run[:k]),
            tuple(t for run, k in zip(runs, take) for t in run[k:]),
        )


_transpose_cache = _Memo()  # forest key -> ({(x, y): numerator}, denominator)


def _transpose(forest: Forest) -> _Exact:
    """``_transpose_terms`` of a forest, through ``_transpose_cache``."""
    if (hit := _transpose_cache.get(forest.key)) is not None:
        return hit
    return _transpose_cache.put(forest.key, forest.size, _transpose_terms(forest))


def _transpose_terms(forest: Forest) -> _Exact:
    """The transpose of the weight-0 shuffle, by recursion over the target;
    each smaller forest through ``_transpose``."""
    if forest.is_empty:
        return {(EMPTY, EMPTY): 1}, 1
    trees = forest.trees
    if len(trees) == 1:
        tree = trees[0]
        return _root_terms(tree.decoration, _transpose(_below(tree)))

    parts = [({(forest, EMPTY): 1, (EMPTY, forest): 1}, 1, 1)]
    for i, core in enumerate(trees):
        # trees are sorted, so equal components sit next to each other
        if i and trees[i - 1] == core:
            continue
        nums, den = _transpose(core.as_forest())
        red = [
            (x, y, x.trees[0], y.trees[0], c)
            for (x, y), c in nums.items()
            if not (x.is_empty or y.is_empty)
        ]
        if not red:
            continue
        for first, second in _tree_splits(trees[:i] + trees[i + 1 :]):
            r1 = Forest._build(first, sum(t.size for t in first))
            r2 = Forest._build(second, sum(t.size for t in second))
            norm = (len(first) + 1) * (len(second) + 1)
            # one split maps distinct leg pairs to distinct leg pairs
            terms = {
                (concat(x, r1), concat(y, r2)): c * (1 + first.count(t)) * (1 + second.count(u))
                for x, y, t, u, c in red
            }
            parts.append((terms, den * norm, 1))
    return _combine(parts)


@_gc_paused
def dual_oracle(forest: Forest) -> TensorComb[Forest]:
    """The strict-duality coproduct sum <F, f1 ⧢ f2> f1⊗f2, as the transpose
    of the weight-0 shuffle recursion.

    The empty forest gives ∅⊗∅, and a tree B+^a(G) the root rule
    ``_root_terms`` on G's.  A forest of n >= 2 trees gives F⊗∅ + ∅⊗F plus,
    for each distinct component C (the rest R), each split of R into
    sub-multisets R1 and R2 and each term t⊗u of C's coproduct with two
    tree legs and coefficient c, (t R1)⊗(u R2) with coefficient
    c·m(t, t R1)·m(u, u R2)/((|R1|+1)(|R2|+1)), where m(t, G) is the
    multiplicity of the tree t in G.

    Equal to ``dual_oracle_brute`` term for term, which the tests and the
    dual verification suite check (the suite up to 4 vertices, where the
    brute is cheap).  Guarded to the same ``ORACLE_GUARD`` vertices.
    """
    GuardExceeded.check(forest.size, ORACLE_GUARD, "dual_oracle forest size")
    return TensorComb._wrap(_transpose_terms(forest))


# ---------------------------------------------------------------------------
# grafting products


def graft_leaves(base: Forest | RootedTree, scion: Forest | RootedTree) -> LinComb[Forest]:
    """Sum of the graftings of the scion onto each leaf of the base tree;
    the empty base acts as unit and returns the scion.

    The base and the scion are each a tree, a one-tree forest or the empty
    forest.  A scion of two or more trees raises ``ValueError``, whatever
    the base."""
    scion_f = _scion_forest(scion)
    base = base.as_forest() if isinstance(base, RootedTree) else base
    if base.is_empty:
        return LinComb.of(scion_f)
    tree = base.single_tree()
    return LinComb.sum_of(
        (graft_at(tree, leaf, scion_f).as_forest(), _ONE) for leaf in leaf_refs(tree)
    )


def graft_linear(base: Forest | RootedTree, scion: Forest | RootedTree) -> LinComb[Forest]:
    """As graft_leaves, but zero whenever the base has more than one leaf.

    Takes the same base and scion as ``graft_leaves``, and checks the scion
    before looking at the base."""
    _scion_forest(scion)
    base = base.as_forest() if isinstance(base, RootedTree) else base
    if not base.is_empty and len(leaf_refs(base.single_tree())) > 1:
        return LinComb.zero()
    return graft_leaves(base, scion)
