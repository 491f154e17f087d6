"""Quasi-shuffle products of rooted forests.

``forest_shuffle`` generalizes the word quasi-shuffle: two trees shuffle by
pulling off their roots (the weight term fuses the two roots, multiplying
their decorations), and forests shuffle component against component with an
exact 1/(kn) prefactor.  ``star_product`` and ``diamond_product`` are the
variants adapted to the commutative concatenation of forests; on a pair of
linear trees the star product coincides with the shuffle, but not on
branching trees in general.

All results are exact rational linear combinations; the weight is a rational
parameter per call, not a formal variable.  Memo caches are pure memos keyed
on canonical keys and are semantically invisible.
"""

from __future__ import annotations

from fractions import Fraction

from .forest import Forest, _gc_paused, _Memo, _preorder, b_plus, concat
from .linalg import LinComb, bilinear, lincomb_sum

__all__ = [
    "forest_shuffle",
    "star_product",
    "diamond_product",
    "shuffle_coefficient",
    "find_nonassociativity_witness",
]

# The public products and shuffle_coefficient pause the collector and trim
# their memos over private recursions (_shuffle, _star, _diamond, _coeff) that
# never call an entry.  The products sum their sub-results after plain loops,
# so a level costs one or two stack frames (see forest.MAX_TREE_DEPTH).
_shuffle_cache = _Memo()  # (first, second, lam) -> LinComb, by key
_star_cache = _Memo()
_diamond_cache = _Memo()
_coeff_cache = _Memo()  # (target, first, second, lam) -> Fraction, by key


# _graft_all and _concat_all map distinct forests to distinct forests and keep
# every coefficient, so a clean input gives a clean output without _clean.
def _graft_all(dec, x: LinComb[Forest]) -> LinComb[Forest]:
    """Linear extension of F -> B+^dec(F) (single-tree forests)."""
    return LinComb._trusted({b_plus(dec, f).as_forest(): c for f, c in x._terms.items()})


def _concat_all(x: LinComb[Forest], rest: Forest) -> LinComb[Forest]:
    if rest.is_empty:
        return x
    return LinComb._trusted({concat(f, rest): c for f, c in x._terms.items()})


def _without(forest: Forest, index: int) -> Forest:
    trees = forest.trees
    return Forest._build(trees[:index] + trees[index + 1 :], forest.size - trees[index].size)


def _component_pairs(first: Forest, second: Forest):
    """The component split of F = T1..Tk against F' = t1..tn behind the
    1/(kn) prefactor: every (Ti, tj, (F without Ti)(F' without tj)), lazily
    and with Ti, tj still trees."""
    for i, ti in enumerate(first.trees):
        rest_i = _without(first, i)
        for j, tj in enumerate(second.trees):
            yield ti, tj, concat(rest_i, _without(second, j))


@_gc_paused
def forest_shuffle(first: Forest, second: Forest, lam: Fraction | int = 0) -> LinComb[Forest]:
    """The weight-``lam`` shuffle of two rooted forests.

    For trees T = B+^a(f), T' = B+^a'(f'):

        T ⧢ T' = B+^a(f ⧢ T') + B+^a'(T ⧢ f') + lam B+^(a.a')(f ⧢ f')

    and for F = T1..Tk, F' = t1..tn with k+n >= 3:

        F ⧢ F' = 1/(kn) sum_ij (Ti ⧢ tj) · (F without Ti) · (F' without tj).

    The empty forest is the unit.  Every term's coefficient is an exact
    rational; at lam=0 every term has |F|+|F'| vertices.
    """
    _shuffle_cache.trim()
    return _shuffle(first, second, Fraction(lam))


def _shuffle(first: Forest, second: Forest, lam: Fraction) -> LinComb[Forest]:
    key = (first.key, second.key, lam)
    if (hit := _shuffle_cache.get(key)) is not None:
        return hit

    if first.is_empty:
        result = LinComb.of(second)
    elif second.is_empty:
        result = LinComb.of(first)
    elif first.is_tree and second.is_tree:
        t, u = first.single_tree(), second.single_tree()
        f = Forest(t.children)
        g = Forest(u.children)
        result = _graft_all(t.decoration, _shuffle(f, second, lam))
        result = result + _graft_all(u.decoration, _shuffle(first, g, lam))
        if lam:
            fused = _graft_all(t.decoration * u.decoration, _shuffle(f, g, lam))
            result = result + fused.scale(lam)
    else:
        parts = []
        for ti, tj, rest in _component_pairs(first, second):
            parts.append(_concat_all(_shuffle(ti.as_forest(), tj.as_forest(), lam), rest))
        result = lincomb_sum(parts).scale(Fraction(1, len(first.trees) * len(second.trees)))

    return _shuffle_cache.put(key, first.size + second.size, result)


@_gc_paused
def star_product(first: Forest, second: Forest, lam: Fraction | int = 0) -> LinComb[Forest]:
    """The auxiliary product mutually recursive with the diamond product.

    Unital on the empty forest.  For nonempty F = T1..Tk and F' = t1..tn
    with Ti = B+^(a_i)(f_i), tj = B+^(a'_j)(f'_j):

        F * F' = 1/k sum_i B+^(a_i)(f_i * F') (F without Ti)
               + 1/n sum_j B+^(a'_j)(F * f'_j) (F' without tj)
               + lam F ◇ F'.

    On a pair of linear trees this agrees with the forest shuffle; on
    branching trees it generally does not (at weight 0, a * a[a,a] is
    a[a,a[a]] + 2 a[a[a,a]], while a ⧢ a[a,a] is 2 a[a,a[a]] + a[a[a,a]]).
    """
    _star_cache.trim()
    _diamond_cache.trim()
    return _star(first, second, Fraction(lam))


def _star(first: Forest, second: Forest, lam: Fraction) -> LinComb[Forest]:
    key = (first.key, second.key, lam)
    if (hit := _star_cache.get(key)) is not None:
        return hit

    if first.is_empty:
        result = LinComb.of(second)
    elif second.is_empty:
        result = LinComb.of(first)
    else:
        left, right = [], []
        for i, ti in enumerate(first.trees):
            inner = _star(Forest(ti.children), second, lam)
            left.append(_concat_all(_graft_all(ti.decoration, inner), _without(first, i)))
        for j, tj in enumerate(second.trees):
            inner = _star(first, Forest(tj.children), lam)
            right.append(_concat_all(_graft_all(tj.decoration, inner), _without(second, j)))
        result = lincomb_sum(left).scale(Fraction(1, len(first.trees)))
        result = result + lincomb_sum(right).scale(Fraction(1, len(second.trees)))
        if lam:
            result = result + _diamond(first, second, lam).scale(lam)

    return _star_cache.put(key, first.size + second.size, result)


@_gc_paused
def diamond_product(first: Forest, second: Forest, lam: Fraction | int = 0) -> LinComb[Forest]:
    """The diamond product on nonempty forests.

    Two trees fuse their roots:  B+^a(F) ◇ B+^a'(F') = B+^(a.a')(F * F');
    general nonempty forests split with the 1/(kn) prefactor as the shuffle
    does.  Undefined on the empty forest.
    """
    if first.is_empty or second.is_empty:
        raise ValueError("diamond product is undefined on the empty forest")
    _star_cache.trim()
    _diamond_cache.trim()
    return _diamond(first, second, Fraction(lam))


def _diamond(first: Forest, second: Forest, lam: Fraction) -> LinComb[Forest]:
    """The diamond product of two nonempty forests."""
    key = (first.key, second.key, lam)
    if (hit := _diamond_cache.get(key)) is not None:
        return hit

    if first.is_tree and second.is_tree:
        t, u = first.single_tree(), second.single_tree()
        inner = _star(Forest(t.children), Forest(u.children), lam)
        result = _graft_all(t.decoration * u.decoration, inner)
    else:
        parts = []
        for ti, tj, rest in _component_pairs(first, second):
            parts.append(_concat_all(_diamond(ti.as_forest(), tj.as_forest(), lam), rest))
        result = lincomb_sum(parts).scale(Fraction(1, len(first.trees) * len(second.trees)))

    return _diamond_cache.put(key, first.size + second.size, result)


# ---------------------------------------------------------------------------
# targeted coefficient extraction


def _atom_multiset(forest: Forest) -> tuple[str, ...]:
    return tuple(
        sorted([a for t in forest.trees for _, node in _preorder(t) for a in node.decoration.atoms])
    )


def _multiset_difference(forest: Forest, part: Forest) -> Forest | None:
    """forest minus part as tree multisets, or None if part is not contained."""
    remaining = list(forest.trees)
    for t in part.trees:
        try:
            remaining.remove(t)
        except ValueError:
            return None
    # removing items from a sorted list keeps it sorted
    return Forest._build(tuple(remaining), forest.size - part.size)


@_gc_paused
def shuffle_coefficient(
    target: Forest, first: Forest, second: Forest, lam: Fraction | int = 0
) -> Fraction:
    """The coefficient of ``target`` in first ⧢_lam second.

    Equivalent to expanding the shuffle and extracting one coefficient, but
    implemented as a pruned structural recursion so that large bases can be
    paired against without materializing whole products.  This realizes the
    pairing <target, first ⧢ second> in the dual basis.
    """
    lam = Fraction(lam)
    _coeff_cache.trim()
    # a repeated query returns from the memo before any tree walk
    if (hit := _coeff_cache.get((target.key, first.key, second.key, lam))) is not None:
        return hit
    atoms = _atom_multiset(target)
    if tuple(sorted(_atom_multiset(first) + _atom_multiset(second))) != atoms:
        return Fraction(0)
    if lam == 0 and first.size + second.size != target.size:
        return Fraction(0)
    return _coeff(target, first, second, lam)


def _coeff(target: Forest, first: Forest, second: Forest, lam: Fraction) -> Fraction:
    if first.is_empty:
        return Fraction(1 if target == second else 0)
    if second.is_empty:
        return Fraction(1 if target == first else 0)
    key = (target.key, first.key, second.key, lam)
    if (hit := _coeff_cache.get(key)) is not None:
        return hit

    if first.is_tree and second.is_tree:
        # tree ⧢ tree only produces trees
        if not target.is_tree:
            result = Fraction(0)
        else:
            root = target.single_tree()
            body = Forest(root.children)
            t, u = first.single_tree(), second.single_tree()
            result = Fraction(0)
            if root.decoration == t.decoration:
                result += _coeff(body, Forest(t.children), second, lam)
            if root.decoration == u.decoration:
                result += _coeff(body, first, Forest(u.children), lam)
            if lam and root.decoration == t.decoration * u.decoration:
                result += lam * _coeff(body, Forest(t.children), Forest(u.children), lam)
    else:
        result = Fraction(0)
        for ti, tj, rest in _component_pairs(first, second):
            core = _multiset_difference(target, rest)
            if core is not None:
                result += _coeff(core, ti.as_forest(), tj.as_forest(), lam)
        result /= len(first.trees) * len(second.trees)

    _coeff_cache[key] = result
    return result


def find_nonassociativity_witness(max_degree: int) -> tuple[Forest, Forest, Forest] | None:
    """Search for forests x, y, z decorated by a, b, c, d with
    (x⧢y)⧢z != x⧢(y⧢z) at weight 0.

    Scans nonempty forests in canonical order by total degree; returns the
    first witness found, or None if none exists up to ``max_degree``.
    """
    from .sampling import default_alphabet, forests_of_size

    alphabet = default_alphabet(("a", "b", "c", "d"))
    pool: list[Forest] = []
    for n in range(1, max_degree - 1):
        pool.extend(forests_of_size(n, alphabet))
    for x in pool:
        for y in pool:
            if x.size + y.size >= max_degree:
                continue
            for z in pool:
                if x.size + y.size + z.size > max_degree:
                    continue
                left = bilinear(forest_shuffle, forest_shuffle(x, y), LinComb.of(z))
                right = bilinear(forest_shuffle, LinComb.of(x), forest_shuffle(y, z))
                if left != right:
                    return (x, y, z)
    return None
