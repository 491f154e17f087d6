"""Exact rational linear combinations over free bases.

LinComb is a finite formal sum of basis elements with nonzero Fraction
coefficients; TensorComb is the same over ordered tuples of basis elements
(tensors of a fixed arity).  Basis elements only need to be hashable and to
expose a ``key`` string used for deterministic ordering.

Values are immutable: all operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Generic, Hashable, Iterable, Mapping, TypeVar

B = TypeVar("B", bound=Hashable)

Q = Fraction


def _clean(terms: Mapping[B, Fraction]) -> dict[B, Fraction]:
    return {b: c for b, c in terms.items() if c}


def _add_into(acc: dict[B, Fraction], terms: Mapping[B, Fraction]) -> None:
    """Add nonzero ``terms`` into ``acc``, dropping sums that cancel, so a
    zero-free ``acc`` stays zero-free."""
    for b, c in terms.items():
        if b in acc:
            total = acc[b] + c
            if total:
                acc[b] = total
            else:
                del acc[b]
        else:
            acc[b] = c


class LinComb(Generic[B]):
    """A finite rational linear combination over a free basis."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[B, Fraction] | None = None):
        object.__setattr__(self, "_terms", _clean(terms or {}))

    @classmethod
    def _trusted(cls, terms: dict[B, Fraction]) -> "LinComb[B]":
        """Wrap ``terms`` without cleaning; every coefficient must be nonzero."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LinComb is immutable")

    @classmethod
    def zero(cls) -> "LinComb[B]":
        return cls({})

    @classmethod
    def of(cls, basis: B, coeff: Fraction | int = 1) -> "LinComb[B]":
        return cls({basis: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, basis: B) -> Fraction:
        return self._terms.get(basis, Fraction(0))

    def support(self) -> frozenset[B]:
        return frozenset(self._terms)

    def items(self) -> list[tuple[B, Fraction]]:
        """Terms sorted by canonical key."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].key)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "LinComb[B]") -> "LinComb[B]":
        terms = dict(self._terms)
        _add_into(terms, other._terms)
        return LinComb._trusted(terms)

    def __sub__(self, other: "LinComb[B]") -> "LinComb[B]":
        return self + other.scale(-1)

    def __neg__(self) -> "LinComb[B]":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "LinComb[B]":
        c = Fraction(c)
        if not c:
            return LinComb({})
        if c == 1:
            return self
        return LinComb._trusted({b: c * v for b, v in self._terms.items()})

    def map_basis(self, fn: Callable[[B], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map."""
        acc: dict = {}
        for b, c in self._terms.items():
            for b2, c2 in fn(b)._terms.items():
                if b2 in acc:
                    acc[b2] += c * c2
                else:
                    acc[b2] = c * c2
        return LinComb(acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LinComb({render_lincomb(self)!r})"


def lincomb_sum(parts: Iterable[LinComb]) -> LinComb:
    acc: dict = {}
    for part in parts:
        _add_into(acc, part._terms)
    return LinComb._trusted(acc)


class TensorComb(Generic[B]):
    """A rational linear combination of tensors (tuples) of fixed arity."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[tuple[B, ...], Fraction] | None = None):
        object.__setattr__(self, "arity", arity)
        cleaned = _clean(terms or {})
        for legs in cleaned:
            if len(legs) != arity:
                raise ValueError(f"tensor term {legs} does not have arity {arity}")
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TensorComb is immutable")

    @classmethod
    def zero(cls, arity: int) -> "TensorComb[B]":
        return cls(arity, {})

    @classmethod
    def of(cls, legs: tuple[B, ...], coeff: Fraction | int = 1) -> "TensorComb[B]":
        return cls(len(legs), {legs: Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, legs: tuple[B, ...]) -> Fraction:
        return self._terms.get(legs, Fraction(0))

    def support(self) -> frozenset[tuple[B, ...]]:
        return frozenset(self._terms)

    def items(self) -> list[tuple[tuple[B, ...], Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: tuple(leg.key for leg in kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TensorComb[B]") -> "TensorComb[B]":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self._terms)
        for legs, c in other._terms.items():
            if legs in terms:
                terms[legs] += c
            else:
                terms[legs] = c
        return TensorComb(self.arity, terms)

    def __sub__(self, other: "TensorComb[B]") -> "TensorComb[B]":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "TensorComb[B]":
        c = Fraction(c)
        if not c:
            return TensorComb(self.arity, {})
        return TensorComb(self.arity, {legs: c * v for legs, v in self._terms.items()})

    def permute(self, perm: tuple[int, ...]) -> "TensorComb[B]":
        """Reorder legs: result leg i is input leg perm[i]."""
        return TensorComb(
            self.arity,
            {tuple(legs[p] for p in perm): c for legs, c in self._terms.items()},
        )

    def flip(self) -> "TensorComb[B]":
        if self.arity != 2:
            raise ValueError("flip is for arity-2 tensors")
        return self.permute((1, 0))

    def tau23(self) -> "TensorComb[B]":
        """The usual flip of the middle legs: a⊗b⊗c⊗d -> a⊗c⊗b⊗d."""
        if self.arity != 4:
            raise ValueError("tau23 is for arity-4 tensors")
        return self.permute((0, 2, 1, 3))

    def map_leg(self, i: int, fn: Callable[[B], LinComb]) -> "TensorComb[B]":
        """Apply a linear basis map to leg ``i``; arity is preserved."""
        acc: dict = {}
        for legs, c in self._terms.items():
            for b2, c2 in fn(legs[i])._terms.items():
                new = legs[:i] + (b2,) + legs[i + 1 :]
                if new in acc:
                    acc[new] += c * c2
                else:
                    acc[new] = c * c2
        return TensorComb(self.arity, acc)

    def expand_leg(self, i: int, fn: Callable[[B], "TensorComb[B]"]) -> "TensorComb[B]":
        """Replace leg ``i`` by the legs of a tensor-valued map of it."""
        acc: dict = {}
        extra = None
        for legs, c in self._terms.items():
            expansion = fn(legs[i])
            extra = expansion.arity
            for sub, c2 in expansion._terms.items():
                new = legs[:i] + sub + legs[i + 1 :]
                if new in acc:
                    acc[new] += c * c2
                else:
                    acc[new] = c * c2
        if extra is None:
            raise ValueError("cannot expand a leg of the zero tensor")
        return TensorComb(self.arity + extra - 1, acc)

    def contract(self, i: int, j: int, op: Callable[[B, B], LinComb]) -> "TensorComb[B]":
        """Combine legs i and j (i < j) through a bilinear basis operation."""
        if not i < j:
            raise ValueError("need i < j")
        acc: dict = {}
        for legs, c in self._terms.items():
            for b2, c2 in op(legs[i], legs[j])._terms.items():
                new = legs[:i] + (b2,) + legs[i + 1 : j] + legs[j + 1 :]
                if new in acc:
                    acc[new] += c * c2
                else:
                    acc[new] = c * c2
        return TensorComb(self.arity - 1, acc)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorComb)
            and self.arity == other.arity
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"TensorComb({render_tensor(self)!r})"


def tensor(*factors: LinComb) -> TensorComb:
    """Tensor product of linear combinations, one leg per factor."""
    terms: dict[tuple, Fraction] = {(): Fraction(1)}
    for factor in factors:
        nxt: dict[tuple, Fraction] = {}
        for legs, c in terms.items():
            for b, c2 in factor._terms.items():
                # distinct (legs, b) pairs give distinct tuples: no collisions
                nxt[legs + (b,)] = c * c2
        terms = nxt
    return TensorComb(len(factors), terms)


# ---------------------------------------------------------------------------
# text form: "p/q F" terms joined by " + ", negative terms use " - "


def _coeff_text(c: Fraction) -> str:
    return str(c)


def render_lincomb(x: LinComb, wrap: Callable[[B], str] | None = None) -> str:
    if x.is_zero:
        return "0"
    wrap = wrap or (lambda b: b.key)
    parts: list[str] = []
    for b, c in x.items():
        sign = "-" if c < 0 else "+"
        body = f"{_coeff_text(abs(c))} {wrap(b)}"
        if not parts:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def render_tensor(t: TensorComb) -> str:
    if t.is_zero:
        return "0"
    parts: list[str] = []
    for legs, c in t.items():
        sign = "-" if c < 0 else "+"
        body = f"{_coeff_text(abs(c))} " + " (x) ".join(f"({leg.key})" for leg in legs)
        if not parts:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def lincomb_json(x: LinComb, field: str = "forest") -> dict:
    return {
        "terms": [{"coeff": str(c), field: b.key} for b, c in x.items()]
    }


def tensor_json(t: TensorComb) -> dict:
    if t.arity != 2:
        raise ValueError("JSON tensor form is for arity-2 tensors")
    return {
        "terms": [
            {"coeff": str(c), "left": legs[0].key, "right": legs[1].key}
            for legs, c in t.items()
        ]
    }
