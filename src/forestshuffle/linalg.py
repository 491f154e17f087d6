"""Exact rational linear combinations over free bases.

LinComb is a finite formal sum of basis elements with nonzero Fraction
coefficients; TensorComb is a LinComb whose basis elements are ordered
tuples of basis elements, its legs.  A tensor's leg count is the length of
its terms, which all have the same length; the zero tensor has none.  Basis
elements only need to be hashable and to expose a ``key`` string used for
deterministic ordering.

Terms that may repeat are summed in one place, ``_accumulate``.  Every linear
extension (``map_basis``, ``tensor_map_basis``, the leg maps and ``bilinear``)
runs on one kernel, ``_images``, where a term of coefficient 1 passes its
image terms through unmultiplied.  The constructors and ``scale`` store each
coefficient as a Fraction through ``_exact``, which refuses a float; the
public entries take their weights through it too.

The memoized recursions (the products and the pairing query in ``shuffle``,
the dual routes in ``dual``, the trunk coproduct in ``coalgebra``) carry
their coefficients in one exact form, ``_Exact``: integer numerators over
one common denominator, in lowest terms.  A prefactor such as 1/(kn), or a
weight's denominator, multiplies that one denominator instead of every
coefficient.  ``_combine`` sums such values and ``_lincomb`` turns one into
a LinComb or TensorComb with Fraction coefficients, once, at a public entry.

Values are immutable: all operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from typing import Callable, Generic, Hashable, Iterable, Mapping, TypeVar

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


def _accumulate(acc: dict, pairs: Iterable[tuple[B, Fraction]]) -> dict:
    """Add (basis, coefficient) pairs into ``acc``, dropping zero coefficients
    and sums that cancel, so a zero-free ``acc`` stays zero-free."""
    for b, c in pairs:
        if b in acc:
            total = acc[b] + c
            if total:
                acc[b] = total
            else:
                del acc[b]
        elif c:
            acc[b] = c
    return acc


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

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[B, Fraction] | None = None):
        pairs = ((b, _exact(c)) for b, c in (terms or {}).items())
        object.__setattr__(self, "_terms", _accumulate({}, pairs))

    @classmethod
    def _trusted(cls, terms: dict[B, Fraction]) -> "LinComb[B]":
        """Wrap ``terms`` without cleaning; every coefficient must be nonzero."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def _like(self, terms: dict[B, Fraction]) -> "LinComb[B]":
        """A trusted combination of the same class as ``self``."""
        return type(self)._trusted(terms)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls) -> "LinComb[B]":
        return cls({})

    @classmethod
    def of(cls, basis: B, coeff: Fraction | int = _ONE) -> "LinComb[B]":
        coeff = _exact(coeff)
        return cls._trusted({basis: coeff} if coeff else {})

    @classmethod
    def sum_of(cls, pairs: Iterable[tuple[B, Fraction]]) -> "LinComb[B]":
        """The sum of (basis, Fraction coefficient) pairs; repeated basis
        elements add up."""
        return cls._trusted(_accumulate({}, pairs))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, basis: B) -> Fraction:
        return self._terms.get(basis, Fraction(0))

    def support(self) -> frozenset[B]:
        return frozenset(self._terms)

    @staticmethod
    def _item_key(item: tuple[B, Fraction]) -> str:
        return item[0].key

    @staticmethod
    def _basis_text(basis: B) -> str:
        return basis.key

    def items(self) -> list[tuple[B, Fraction]]:
        """Terms sorted by canonical key."""
        return sorted(self._terms.items(), key=self._item_key)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "LinComb[B]") -> "LinComb[B]":
        if type(other) is not type(self):
            raise ValueError("arity mismatch")
        return self._like(_accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "LinComb[B]") -> "LinComb[B]":
        return self + other.scale(-1)

    def __neg__(self) -> "LinComb[B]":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "LinComb[B]":
        c = _exact(c)
        if not c:
            return self._like({})
        if c == 1:
            return self
        return self._like({b: c * v for b, v in self._terms.items()})

    def map_basis(self, fn: Callable[[B], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map."""
        return LinComb.sum_of(_images(self, lambda b: fn(b)._terms.items()))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_lincomb(self)!r})"


def _images(
    x: LinComb, fn: Callable[[B], Iterable[tuple[Hashable, Fraction]]]
) -> Iterable[tuple[Hashable, Fraction]]:
    """The terms of the linear extension to ``x`` of a map from basis elements
    to (basis, coefficient) pairs, unsummed.  The one extension kernel: a
    term of coefficient 1 passes its image terms through unmultiplied."""
    for b, c in x._terms.items():
        if c == 1:
            yield from fn(b)
        else:
            for b2, c2 in fn(b):
                yield b2, c * c2


def lincomb_sum(parts: Iterable[LinComb]) -> LinComb:
    return LinComb.sum_of(chain.from_iterable(part._terms.items() for part in parts))


def bilinear(op: Callable[..., LinComb], x: LinComb, y: LinComb, *args) -> LinComb:
    """Bilinear extension of a basis operation ``op(b1, b2, *args)``: the
    linear extension in ``x`` of the linear extension in ``y``."""
    return LinComb.sum_of(
        _images(x, lambda b1: _images(y, lambda b2: op(b1, b2, *args)._terms.items()))
    )


class TensorComb(LinComb[tuple[B, ...]]):
    """A rational linear combination of tensors: tuples of legs, all of one
    length."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[B, ...], Fraction] | None = None):
        super().__init__(terms)
        if len({len(legs) for legs in self._terms}) > 1:
            raise ValueError("tensor terms differ in their number of legs")

    @staticmethod
    def _item_key(item: tuple[tuple[B, ...], Fraction]) -> tuple[str, ...]:
        return tuple(leg.key for leg in item[0])

    @staticmethod
    def _basis_text(legs: tuple[B, ...]) -> str:
        return " (x) ".join(f"({leg.key})" for leg in legs)

    def __add__(self, other: "TensorComb[B]") -> "TensorComb[B]":
        # zero has no legs; two nonzero tensors must agree on their count
        if isinstance(other, TensorComb) and self._terms and other._terms:
            if len(next(iter(self._terms))) != len(next(iter(other._terms))):
                raise ValueError("arity mismatch")
        return super().__add__(other)

    def permute(self, perm: tuple[int, ...]) -> "TensorComb[B]":
        """Reorder legs: result leg i is input leg perm[i]; every term must
        have ``len(perm)`` legs."""
        if any(len(legs) != len(perm) for legs in self._terms):
            raise ValueError(f"permutation {perm} does not fit the legs of every term")
        return TensorComb.sum_of(
            (tuple(legs[p] for p in perm), c) for legs, c in self._terms.items()
        )

    def flip(self) -> "TensorComb[B]":
        return self.permute((1, 0))

    def tau23(self) -> "TensorComb[B]":
        """The usual flip of the middle legs: a⊗b⊗c⊗d -> a⊗c⊗b⊗d."""
        return self.permute((0, 2, 1, 3))

    def _releg(
        self, fn: Callable[[tuple[B, ...]], Iterable[tuple[tuple[B, ...], Fraction]]]
    ) -> "TensorComb[B]":
        """Linear extension of a map from one term's legs to (legs, coefficient)
        pairs."""
        return TensorComb.sum_of(_images(self, fn))

    def map_leg(self, i: int, fn: Callable[[B], LinComb]) -> "TensorComb[B]":
        """Apply a linear basis map to leg ``i``; the other legs are kept."""
        return self._releg(
            lambda legs: (
                (legs[:i] + (b,) + legs[i + 1 :], c) for b, c in fn(legs[i])._terms.items()
            ),
        )

    def expand_leg(self, i: int, fn: Callable[[B], "TensorComb[B]"]) -> "TensorComb[B]":
        """Replace leg ``i`` by the legs of a tensor-valued map of it."""
        images = {legs[i]: fn(legs[i]) for legs in self._terms}
        return self._releg(
            lambda legs: (
                (legs[:i] + sub + legs[i + 1 :], c) for sub, c in images[legs[i]]._terms.items()
            ),
        )

    def contract(self, i: int, j: int, op: Callable[[B, B], LinComb]) -> "TensorComb[B]":
        """Combine legs i and j (i < j) through a bilinear basis operation."""
        if not i < j:
            raise ValueError("need i < j")
        return self._releg(
            lambda legs: (
                (legs[:i] + (b,) + legs[i + 1 : j] + legs[j + 1 :], c)
                for b, c in op(legs[i], legs[j])._terms.items()
            ),
        )


def tensor_map_basis(x: LinComb, fn: Callable[[B], TensorComb]) -> TensorComb:
    """Linear extension of a basis map whose values are tensors;
    ``map_basis`` for tensor values."""
    return TensorComb.sum_of(_images(x, lambda b: fn(b)._terms.items()))


def tensor(*factors: LinComb) -> TensorComb:
    """Tensor product of linear combinations, one leg per factor."""
    terms: dict[tuple, Fraction] = {(): Fraction(1)}
    for factor in factors:
        # distinct (legs, b) pairs give distinct tuples: no collisions
        terms = {
            legs + (b,): c * c2 for legs, c in terms.items() for b, c2 in factor._terms.items()
        }
    return TensorComb._trusted(terms)


# ---------------------------------------------------------------------------
# the exact carrier of the recursions

# {basis: integer numerator} over one positive integer denominator, in lowest
# terms, with no zero numerator.  Memo values are shared, so no dict in one is
# ever changed.
_Exact = tuple[dict[Hashable, int], int]


def _combine(parts: list[tuple[dict[Hashable, int], int, int]], split: int = 1) -> _Exact:
    """The sum of parts (numerators, denominator, factor), each worth
    factor * numerators / denominator, divided by ``split``: summed over the
    lcm of the denominators and reduced to lowest terms.  No parts sum to
    zero, ({}, 1)."""
    den = lcm(*[d for _, d, _ in parts])
    acc: dict = {}
    get = acc.get
    for nums, d, factor in parts:
        factor *= den // d
        for b, c in nums.items():
            acc[b] = get(b, 0) + c * factor
    if 0 in acc.values():  # only a negative factor cancels terms
        acc = {b: c for b, c in acc.items() if c}
    den *= split
    if den > 1:
        g = gcd(den, *acc.values())
        if g > 1:
            acc = {b: c // g for b, c in acc.items()}
            den //= g
    return acc, den


def _lincomb(value: _Exact, cls: type[LinComb]) -> LinComb:
    """An exact value as a ``cls`` with Fraction coefficients."""
    nums, den = value
    if den == 1:  # Fraction(c) takes no gcd, unlike Fraction(c, 1)
        return cls._trusted({b: Fraction(c) for b, c in nums.items()})
    return cls._trusted({b: Fraction(c, den) for b, c in nums.items()})


# ---------------------------------------------------------------------------
# text form: "p/q F" terms joined by " + ", negative terms use " - "; a
# tensor term writes its legs as "(F1) (x) (F2)"


def render_lincomb(x: LinComb) -> str:
    if x.is_zero:
        return "0"
    parts: list[str] = []
    for b, c in x.items():
        body = f"{str(abs(c))} {x._basis_text(b)}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


def lincomb_json(x: LinComb) -> dict:
    return {"terms": [{"coeff": str(c), "forest": b.key} for b, c in x.items()]}


def tensor_json(t: TensorComb) -> dict:
    if any(len(legs) != 2 for legs in t._terms):
        raise ValueError("JSON tensor form is for 2-leg tensors")
    return {
        "terms": [
            {"coeff": str(c), "left": legs[0].key, "right": legs[1].key}
            for legs, c in t.items()
        ]
    }
