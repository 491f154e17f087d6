"""Quasi-shuffle products of rooted forests.

``forest_shuffle`` generalizes the word quasi-shuffle: two trees shuffle by
pulling off their roots (the weight term fuses the two roots, multiplying
their decorations), and forests shuffle component against component with an
exact 1/(kn) prefactor.  ``star_product`` and ``diamond_product`` are the
variants adapted to the commutative concatenation of forests; on a pair of
linear trees the star product coincides with the shuffle, but not on
branching trees in general.

All results are exact rational linear combinations; the weight is a rational
parameter per call, not a formal variable, and a float weight is refused.
The four recursions carry their values as ``linalg._Exact`` (integer
numerators over one denominator) and key their memos on the weight's
(numerator, denominator); ``shuffle_coefficient``'s value has one key,
``_PAIRED``.  Each public entry wraps its recursion's value; ``items()``
and ``coefficient()`` give ``Fraction`` values.
Memo caches are pure memos keyed on canonical keys and are semantically
invisible.
"""

from __future__ import annotations

from fractions import Fraction

from .forest import _ATOM_RE, EMPTY, Forest, _below, _gc_paused, _grafted, _Memo, concat
from .linalg import LinComb, _combine, _exact, _Exact, bilinear

__all__ = [
    "forest_shuffle",
    "star_product",
    "diamond_product",
    "shuffle_coefficient",
    "find_nonassociativity_witness",
]

# The public products and shuffle_coefficient are paused entries over
# private recursions (_shuffle, _star, _diamond, _coeff) that never call an
# entry.  The products sum their sub-results after plain loops, so a level
# costs one or two stack frames (see forest.MAX_TREE_DEPTH).
_shuffle_cache = _Memo()  # (first, second, (p, q)) -> (numerators, denominator), by key
_star_cache = _Memo()
_diamond_cache = _Memo()
_coeff_cache = _Memo()  # (target, first, second, (p, q)) -> ({_PAIRED: numerator}, denominator), by key

# _coeff's values keep the coefficient of their target under one key; _MATCH
# and _MISS are the values 1 and 0, shared by every entry worth 1 or 0.
_PAIRED = "paired"
_MATCH, _MISS = ({_PAIRED: 1}, 1), ({}, 1)


# _graft and _concat map distinct forests to distinct forests and keep every
# numerator, so a clean input gives a clean output.
def _graft(dec, terms: dict, rest: Forest = EMPTY) -> dict:
    """F -> B+^dec(F) rest on every forest of ``terms``, keeping its
    coefficient: the one-tree forest ``_grafted`` builds, joined to ``rest``
    by ``concat``."""
    if rest.is_empty:
        return {_grafted(dec, f): c for f, c in terms.items()}
    return {concat(_grafted(dec, f), rest): c for f, c in terms.items()}


def _concat(nums: dict[Forest, int], rest: Forest) -> dict[Forest, int]:
    """Every forest of ``nums`` joined to ``rest``, keeping its coefficient.
    Both callers split a pair of forests of which one has two or more
    trees, so ``rest`` is never empty."""
    return {concat(f, rest): c for f, c in nums.items()}


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
    lam = _exact(lam)
    return LinComb._wrap(_shuffle(first, second, lam.numerator, lam.denominator))


def _shuffle(first: Forest, second: Forest, p: int, q: int) -> _Exact:
    key = (first.key, second.key, (p, q))
    if (hit := _shuffle_cache.get(key)) is not None:
        return hit

    if first.is_empty:
        result = ({second: 1}, 1)
    elif second.is_empty:
        result = ({first: 1}, 1)
    elif first.is_tree and second.is_tree:
        t, u = first.trees[0], second.trees[0]
        f, g = _below(t), _below(u)
        nums, den = _shuffle(f, second, p, q)
        parts = [(_graft(t.decoration, nums), den, 1)]
        nums, den = _shuffle(first, g, p, q)
        parts.append((_graft(u.decoration, nums), den, 1))
        if p:
            nums, den = _shuffle(f, g, p, q)
            parts.append((_graft(t.decoration * u.decoration, nums), den * q, p))
        result = _combine(parts)
    else:
        parts = []
        for ti, tj, rest in _component_pairs(first, second):
            nums, den = _shuffle(ti.as_forest(), tj.as_forest(), p, q)
            parts.append((_concat(nums, rest), den, 1))
        result = _combine(parts, len(first.trees) * len(second.trees))

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
    lam = _exact(lam)
    return LinComb._wrap(_star(first, second, lam.numerator, lam.denominator))


def _star(first: Forest, second: Forest, p: int, q: int) -> _Exact:
    key = (first.key, second.key, (p, q))
    if (hit := _star_cache.get(key)) is not None:
        return hit

    if first.is_empty:
        result = ({second: 1}, 1)
    elif second.is_empty:
        result = ({first: 1}, 1)
    else:
        parts = []
        k, n = len(first.trees), len(second.trees)
        for i, ti in enumerate(first.trees):
            nums, den = _star(_below(ti), second, p, q)
            parts.append((_graft(ti.decoration, nums, _without(first, i)), den * k, 1))
        for j, tj in enumerate(second.trees):
            nums, den = _star(first, _below(tj), p, q)
            parts.append((_graft(tj.decoration, nums, _without(second, j)), den * n, 1))
        if p:
            nums, den = _diamond(first, second, p, q)
            parts.append((nums, den * q, p))
        result = _combine(parts)

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
    lam = _exact(lam)
    return LinComb._wrap(_diamond(first, second, lam.numerator, lam.denominator))


def _diamond(first: Forest, second: Forest, p: int, q: int) -> _Exact:
    """The diamond product of two nonempty forests."""
    key = (first.key, second.key, (p, q))
    if (hit := _diamond_cache.get(key)) is not None:
        return hit

    if first.is_tree and second.is_tree:
        t, u = first.trees[0], second.trees[0]
        nums, den = _star(_below(t), _below(u), p, q)
        result = (_graft(t.decoration * u.decoration, nums), den)
    else:
        parts = []
        for ti, tj, rest in _component_pairs(first, second):
            nums, den = _diamond(ti.as_forest(), tj.as_forest(), p, q)
            parts.append((_concat(nums, rest), den, 1))
        result = _combine(parts, len(first.trees) * len(second.trees))

    return _diamond_cache.put(key, first.size + second.size, result)


# ---------------------------------------------------------------------------
# targeted coefficient extraction


def _atom_multiset(forest: Forest) -> tuple[str, ...]:
    """The forest's atoms with multiplicity, sorted, read off its key: the
    key names each atom once per occurrence, and "1" is the unit, not an
    atom."""
    return tuple(sorted([a for a in _ATOM_RE.findall(forest.key) if a != "1"]))


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
    lam = _exact(lam)
    p, q = lam.numerator, lam.denominator
    # a repeated query returns from the memo before any tree walk
    hit = _coeff_cache.get((target.key, first.key, second.key, (p, q)))
    if hit is None:
        atoms = _atom_multiset(target)
        if tuple(sorted(_atom_multiset(first) + _atom_multiset(second))) != atoms:
            return Fraction(0)
        if p == 0 and first.size + second.size != target.size:
            return Fraction(0)
        hit = _coeff(target, first, second, p, q)
    nums, den = hit
    return Fraction(nums.get(_PAIRED, 0), den)


def _coeff(target: Forest, first: Forest, second: Forest, p: int, q: int) -> _Exact:
    if first.is_empty:
        return _MATCH if target == second else _MISS
    if second.is_empty:
        return _MATCH if target == first else _MISS
    key = (target.key, first.key, second.key, (p, q))
    if (hit := _coeff_cache.get(key)) is not None:
        return hit

    parts = []
    if first.is_tree and second.is_tree:
        # tree ⧢ tree only produces trees
        if target.is_tree:
            root = target.single_tree()
            body = _below(root)
            t, u = first.single_tree(), second.single_tree()
            if root.decoration == t.decoration:
                nums, den = _coeff(body, _below(t), second, p, q)
                parts.append((nums, den, 1))
            if root.decoration == u.decoration:
                nums, den = _coeff(body, first, _below(u), p, q)
                parts.append((nums, den, 1))
            if p and root.decoration == t.decoration * u.decoration:
                nums, den = _coeff(body, _below(t), _below(u), p, q)
                parts.append((nums, den * q, p))
        result = _combine(parts)
    else:
        for ti, tj, rest in _component_pairs(first, second):
            core = _multiset_difference(target, rest)
            if core is not None:
                nums, den = _coeff(core, ti.as_forest(), tj.as_forest(), p, q)
                parts.append((nums, den, 1))
        result = _combine(parts, len(first.trees) * len(second.trees))
    # an entry worth 0 or 1 keeps the shared value (1,422 of the 3,868 entries
    # a seed-3 `duality` benchmark pass leaves)
    if result == _MISS:
        result = _MISS
    elif result == _MATCH:
        result = _MATCH
    # at size 0 every result stays at least for the query (see forest._Memo)
    return _coeff_cache.put(key, 0, result)


def find_nonassociativity_witness(max_degree: int) -> tuple[Forest, Forest, Forest] | None:
    """Search for forests x, y, z decorated by a, b, c, d with
    (x⧢y)⧢z != x⧢(y⧢z) at weight 0.

    Scans triples of nonempty forests by ascending total degree, and within
    one degree by ascending sizes (x, y, z), each size's forests in
    canonical order; returns the first witness found, or None if none exists
    up to ``max_degree``.
    """
    from .sampling import default_alphabet, forests_of_size, operand_tuples

    alphabet = default_alphabet(("a", "b", "c", "d"))
    for total in range(3, max_degree + 1):
        for x, y, z in operand_tuples(lambda n: forests_of_size(n, alphabet), total, 3):
            left = bilinear(forest_shuffle, forest_shuffle(x, y), LinComb.of(z))
            right = bilinear(forest_shuffle, LinComb.of(x), forest_shuffle(y, z))
            if left != right:
                return (x, y, z)
    return None
