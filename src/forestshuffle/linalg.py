"""Exact rational linear combinations over free bases.

LinComb is a finite formal sum of basis elements with nonzero rational
coefficients; TensorComb is a LinComb whose basis elements are ordered
tuples of basis elements, its legs.  A tensor's leg count is the length of
its terms, which all have the same length; the zero tensor has none.  Basis
elements only need to be hashable and to expose a ``key`` string used for
deterministic ordering.

A combination stores its coefficients in one exact form, ``_Exact``:
integer numerators over one denominator, in lowest terms, so equal
combinations store equal values.  The memoized recursions (in ``shuffle``,
``dual``, ``coalgebra`` and ``words``) build the same form, a prefactor
such as 1/(kn) multiplying the one denominator, and each public entry wraps
its value in O(1) through ``_wrap``; ``items()`` and ``coefficient()`` give
``Fraction`` values.  ``_combine`` is the one place where terms are summed.
The public constructors take each coefficient through ``_exact``, which
refuses a float.

Values are immutable: all operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Callable, Generic, Hashable, Iterable, Mapping, TypeVar

from .forest import _by_key

__all__ = [
    "LinComb",
    "TensorComb",
    "bilinear",
    "lincomb_json",
    "lincomb_sum",
    "render_lincomb",
    "tensor",
    "tensor_json",
    "tensor_map_basis",
]

B = TypeVar("B", bound=Hashable)
_ONE = Fraction(1)

# {basis: integer numerator} over one positive integer denominator, in lowest
# terms, with no zero numerator; zero is ({}, 1).  Memo values and the values
# combinations store are shared, so no dict in one is ever changed.
_Exact = tuple[dict[Hashable, int], int]


def _combine(parts: list[tuple[dict[Hashable, int], int, int]], split: int = 1) -> _Exact:
    """The sum of parts (numerators, denominator, factor), each worth
    factor * numerators / denominator, divided by ``split``: summed over the
    lcm of the denominators and reduced to lowest terms.  No parts sum to
    zero, ({}, 1).  The one place where terms are summed.

    A part is scaled only when its factor over the lcm is not 1.  A part
    whose basis elements the sum does not hold yet is merged whole with
    ``dict.update``, which reuses the hashes its dict stores; only a part
    that shares basis elements with the sum is added term by term.  The
    first part's dict is taken as it is and copied, once, before anything
    is merged into it, so no input dict is changed, and a lone part already
    in lowest terms comes back as the same dict: no stored dict is ever
    changed (see ``_Exact``)."""
    den = lcm(*[d for _, d, _ in parts])
    acc: dict = {}
    owned = True  # False while acc is a part's own dict, which must not change
    for nums, d, factor in parts:
        factor *= den // d
        if acc and not owned:
            acc, owned = acc.copy(), True
        if acc and not acc.keys().isdisjoint(nums.keys()):
            get = acc.get
            for b, c in nums.items():
                acc[b] = get(b, 0) + c * factor
            continue
        if factor != 1:
            nums = {b: c * factor for b, c in nums.items()}
        if acc:
            acc.update(nums)
        else:
            acc, owned = nums, factor != 1
    if 0 in acc.values():  # a negative factor cancelled terms, or a zero came in
        acc = {b: c for b, c in acc.items() if c}
    den *= split
    if den > 1:
        g = gcd(den, *acc.values())
        if g > 1:
            acc = {b: c // g for b, c in acc.items()}
            den //= g
    return acc, den


def _exact(c: Fraction | int) -> Fraction:
    """``c`` as a Fraction; an int or other rational converts exactly, and a
    float (whose value is not the decimal it prints) raises TypeError.  Used
    for coefficients and weights alike."""
    if type(c) is Fraction:
        return c
    if isinstance(c, Rational):
        return Fraction(c)
    raise TypeError(f"a coefficient or weight must be an int or a Fraction, not {type(c).__name__}")


class LinComb(Generic[B]):
    """A finite rational linear combination over a free basis."""

    __slots__ = ("_value",)

    def __init__(self, terms: Mapping[B, Fraction | int] | None = None):
        object.__setattr__(self, "_value", self._sum((terms or {}).items()))

    @classmethod
    def _wrap(cls, value: _Exact) -> "LinComb[B]":
        """A ``cls`` holding ``value``, which must be an ``_Exact``."""
        self = object.__new__(cls)
        object.__setattr__(self, "_value", value)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls) -> "LinComb[B]":
        return cls._wrap(({}, 1))

    @classmethod
    def of(cls, basis: B, coeff: Fraction | int = _ONE) -> "LinComb[B]":
        coeff = _exact(coeff)
        return cls._wrap(({basis: coeff.numerator}, coeff.denominator) if coeff else ({}, 1))

    @classmethod
    def sum_of(cls, pairs: Iterable[tuple[B, Fraction | int]]) -> "LinComb[B]":
        """The sum of (basis, coefficient) pairs; repeated basis elements add
        up."""
        return cls._wrap(cls._sum(pairs))

    @staticmethod
    def _sum(pairs: Iterable[tuple[B, Fraction | int]]) -> _Exact:
        """The value of the public constructors: the sum of (basis,
        coefficient) pairs, each coefficient taken through ``_exact``."""
        parts = []
        for b, c in pairs:
            c = _exact(c)
            parts.append(({b: c.numerator}, c.denominator, 1))
        return _combine(parts)

    @property
    def is_zero(self) -> bool:
        return not self._value[0]

    def coefficient(self, basis: B) -> Fraction:
        nums, den = self._value
        return Fraction(nums.get(basis, 0), den)

    def support(self) -> frozenset[B]:
        return frozenset(self._value[0])

    @staticmethod
    def _item_key(item: tuple[B, int]) -> str:
        return item[0].key

    @staticmethod
    def _basis_text(basis: B) -> str:
        return basis.key

    def items(self) -> list[tuple[B, Fraction]]:
        """Terms sorted by canonical key."""
        nums, den = self._value
        terms = sorted(nums.items(), key=self._item_key)
        if den == 1:  # Fraction(c) takes no gcd
            return [(b, Fraction(c)) for b, c in terms]
        return [(b, Fraction(c, den)) for b, c in terms]

    def __len__(self) -> int:
        return len(self._value[0])

    def _plus(self, other: "LinComb[B]", factor: int) -> "LinComb[B]":
        """self + factor * other, in one space."""
        if type(other) is not type(self):
            raise ValueError("arity mismatch")
        return self._wrap(_combine([(*self._value, 1), (*other._value, factor)]))

    def __add__(self, other: "LinComb[B]") -> "LinComb[B]":
        return self._plus(other, 1)

    def __sub__(self, other: "LinComb[B]") -> "LinComb[B]":
        return self._plus(other, -1)

    def __neg__(self) -> "LinComb[B]":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "LinComb[B]":
        c = _exact(c)
        if c == 1:
            return self
        return self._wrap(_combine([(*self._value, c.numerator)], c.denominator))

    def relabel(self, fn: Callable[[B], Hashable]) -> "LinComb":
        """Rename each basis element b to fn(b), keeping its coefficient;
        ``fn`` must be injective on the support, so no two terms meet."""
        nums, den = self._value
        return self._wrap(({fn(b): c for b, c in nums.items()}, den))

    def map_basis(self, fn: Callable[[B], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map."""
        return _extend(self, lambda b: fn(b)._value, LinComb)

    def __eq__(self, other: object) -> bool:
        # lowest terms make the stored value unique
        return type(other) is type(self) and self._value == other._value

    def __hash__(self) -> int:
        nums, den = self._value
        return hash((frozenset(nums.items()), den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_lincomb(self)!r})"


def _extend(x: LinComb, image: Callable[[Hashable], _Exact], cls: type[LinComb]) -> LinComb:
    """The linear extension to ``x`` of a map from basis elements to exact
    values, as a ``cls``."""
    nums, den = x._value
    return cls._wrap(_combine([(*image(b), c) for b, c in nums.items()], den))


def lincomb_sum(parts: Iterable[LinComb]) -> LinComb:
    return LinComb._wrap(_combine([(*part._value, 1) for part in parts]))


def bilinear(op: Callable[..., LinComb], x: LinComb, y: LinComb, *args) -> LinComb:
    """Bilinear extension of a basis operation ``op(b1, b2, *args)``: one
    part per pair of terms, summed once."""
    (xn, xd), (yn, yd) = x._value, y._value
    parts = [
        (*op(b1, b2, *args)._value, c1 * c2) for b1, c1 in xn.items() for b2, c2 in yn.items()
    ]
    return LinComb._wrap(_combine(parts, xd * yd))


class TensorComb(LinComb[tuple[B, ...]]):
    """A rational linear combination of tensors: tuples of legs, all of one
    length."""

    __slots__ = ()

    @staticmethod
    def _sum(pairs: Iterable[tuple[tuple[B, ...], Fraction | int]]) -> _Exact:
        # the one leg check of the public constructors
        value = LinComb._sum(pairs)
        if len({len(legs) for legs in value[0]}) > 1:
            raise ValueError("tensor terms differ in their number of legs")
        return value

    @staticmethod
    def _item_key(item: tuple[tuple[B, ...], int]) -> tuple[str, ...]:
        return tuple(map(_by_key, item[0]))

    @staticmethod
    def _basis_text(legs: tuple[B, ...]) -> str:
        return " (x) ".join(f"({leg.key})" for leg in legs)

    def _plus(self, other: "TensorComb[B]", factor: int) -> "TensorComb[B]":
        # zero has no legs; two nonzero tensors must agree on their count
        if isinstance(other, TensorComb) and self._value[0] and other._value[0]:
            if len(next(iter(self._value[0]))) != len(next(iter(other._value[0]))):
                raise ValueError("arity mismatch")
        return super()._plus(other, factor)

    def permute(self, perm: tuple[int, ...]) -> "TensorComb[B]":
        """Reorder legs: result leg i is input leg perm[i]; ``perm`` must be a
        permutation and every term must have ``len(perm)`` legs."""
        fits = sorted(perm) == list(range(len(perm)))
        if not fits or any(len(legs) != len(perm) for legs in self._value[0]):
            raise ValueError(f"permutation {perm} does not fit the legs of every term")
        return self.relabel(lambda legs: tuple(legs[p] for p in perm))

    def flip(self) -> "TensorComb[B]":
        return self.permute((1, 0))

    def tau23(self) -> "TensorComb[B]":
        """The usual flip of the middle legs: a⊗b⊗c⊗d -> a⊗c⊗b⊗d."""
        return self.permute((0, 2, 1, 3))

    def expand_leg(self, i: int, fn: Callable[[B], "TensorComb[B]"]) -> "TensorComb[B]":
        """Replace leg ``i`` by the legs of a tensor-valued map of it."""
        images = {legs[i]: fn(legs[i])._value for legs in self._value[0]}

        def image(legs):
            nums, den = images[legs[i]]
            return {legs[:i] + sub + legs[i + 1 :]: c for sub, c in nums.items()}, den

        return _extend(self, image, TensorComb)

    def contract(self, i: int, j: int, op: Callable[[B, B], LinComb]) -> "TensorComb[B]":
        """Combine legs i and j (i < j) through a bilinear basis operation."""
        if not i < j:
            raise ValueError("need i < j")

        def image(legs):
            nums, den = op(legs[i], legs[j])._value
            return {legs[:i] + (b,) + legs[i + 1 : j] + legs[j + 1 :]: c for b, c in nums.items()}, den

        return _extend(self, image, TensorComb)


def tensor_map_basis(x: LinComb, fn: Callable[[B], TensorComb]) -> TensorComb:
    """Linear extension of a basis map whose values are tensors;
    ``map_basis`` for tensor values."""
    return _extend(x, lambda b: fn(b)._value, TensorComb)


def tensor(*factors: LinComb) -> TensorComb:
    """Tensor product of linear combinations, one leg per factor."""
    nums: dict[tuple, int] = {(): 1}
    den = 1
    for factor in factors:
        fnums, fden = factor._value
        # distinct (legs, b) pairs give distinct tuples: no collisions
        nums = {legs + (b,): c * c2 for legs, c in nums.items() for b, c2 in fnums.items()}
        den *= fden
    # a product of values in lowest terms need not be in lowest terms
    return TensorComb._wrap(_combine([(nums, den, 1)]))


# ---------------------------------------------------------------------------
# text form: "p/q F" terms joined by " + ", negative terms use " - "; a
# tensor term writes its legs as "(F1) (x) (F2)"


def _texts(x: LinComb) -> list[tuple[Hashable, str]]:
    """(basis, coefficient text) in canonical order: the text ``str`` gives
    the coefficient as a Fraction, "p/q" in lowest terms or "p" when q is 1,
    written without building the Fraction."""
    nums, den = x._value
    terms = sorted(nums.items(), key=x._item_key)
    if den == 1:
        return [(b, str(c)) for b, c in terms]
    out = []
    for b, c in terms:
        g = gcd(c, den)  # the value is in lowest terms, not each term
        out.append((b, str(c // g) if g == den else f"{c // g}/{den // g}"))
    return out


def render_lincomb(x: LinComb) -> str:
    if x.is_zero:
        return "0"
    parts: list[str] = []
    for b, text in _texts(x):
        sign, digits = ("-", text[1:]) if text[0] == "-" else ("+", text)
        body = f"{digits} {x._basis_text(b)}"
        parts.append(body if not parts and sign == "+" else f"{sign} {body}")
    return " ".join(parts)


def lincomb_json(x: LinComb) -> dict:
    return {"terms": [{"coeff": text, "forest": b.key} for b, text in _texts(x)]}


def tensor_json(t: TensorComb) -> dict:
    if any(len(legs) != 2 for legs in t._value[0]):
        raise ValueError("JSON tensor form is for 2-leg tensors")
    return {
        "terms": [
            {"coeff": text, "left": legs[0].key, "right": legs[1].key}
            for legs, text in _texts(t)
        ]
    }
