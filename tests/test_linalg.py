"""The shared linear-combination core: TensorComb as a LinComb over leg
tuples, the one exact carrier every combination stores and ``_combine``,
which sums it behind every linear map, canonical equality, exact
coefficients at construction, and the package's exported names."""

from __future__ import annotations

import ast
import importlib
import math
import pkgutil
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forestshuffle
from forestshuffle.coalgebra import trunk_coproduct
from forestshuffle.dual import dual_combinatorial, dual_recursive, graft_leaves
from forestshuffle.forest import EMPTY, Decoration, parse_forest as P
from forestshuffle.linalg import (
    LinComb,
    TensorComb,
    _combine,
    bilinear,
    lincomb_json,
    lincomb_sum,
    render_lincomb,
    tensor,
    tensor_json,
    tensor_map_basis,
)
from forestshuffle.shuffle import diamond_product, forest_shuffle, shuffle_coefficient, star_product
from forestshuffle.rota_baxter import corrupted_forest_algebra, forest_algebra, word_algebra, word_diamond
from forestshuffle.words import Word, deshuffle, word_shuffle

from conftest import decorations, forests, nonempty_forests, trees


def assert_clean(x: LinComb) -> None:
    """``x`` stores a canonical exact value, nonzero int numerators over a
    positive int denominator in lowest terms, and reads out as Fractions."""
    nums, den = x._value
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    for b, c in x.items():
        assert type(c) is Fraction and c != 0
        got = x.coefficient(b)
        assert type(got) is Fraction and got == c


words = st.builds(Word, st.lists(decorations, max_size=4))
nonempty_words = st.builds(Word, st.lists(decorations, min_size=1, max_size=4))
# a unit, non-unit and negative coefficients: each kernel path
coefficients = st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-1), Fraction(-3, 2)])


def combinations(basis):
    return st.dictionaries(basis, coefficients, max_size=3).map(LinComb)


class TestCoefficientsStayNonzeroFractions:
    @given(f=nonempty_forests, g=nonempty_forests, lam=st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_products(self, f, g, lam):
        for op in (forest_shuffle, star_product, diamond_product):
            assert_clean(op(f, g, lam))

    @given(f=forests)
    @settings(max_examples=40, deadline=None)
    def test_dual_routes(self, f):
        assert_clean(dual_recursive(f))
        assert_clean(dual_combinatorial(f))

    @given(t=trees, scion=trees)
    @settings(max_examples=40, deadline=None)
    def test_coproduct_and_grafting(self, t, scion):
        assert_clean(trunk_coproduct(t))
        assert_clean(graft_leaves(t, scion))

    @given(w=words, v=words, lam=st.sampled_from([0, 1, Fraction(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_words(self, w, v, lam):
        assert_clean(word_shuffle(w, v, lam))
        assert_clean(deshuffle(w))

    @given(w=nonempty_words, v=nonempty_words, lam=st.sampled_from([0, 1, Fraction(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_word_diamond(self, w, v, lam):
        assert_clean(word_diamond(w, v, lam))

    @given(x=combinations(nonempty_forests), y=combinations(nonempty_forests), f=nonempty_forests)
    @settings(max_examples=40, deadline=None)
    def test_linear_extensions(self, x, y, f):
        assert_clean(bilinear(forest_shuffle, x, y, 1))
        assert_clean(x.map_basis(lambda g: star_product(g, f, 1)))
        t = tensor(x, y)
        assert_clean(t)
        assert_clean(t.contract(0, 1, forest_shuffle))

    @given(x=combinations(trees.map(lambda t: t.as_forest())), y=combinations(forests))
    @settings(max_examples=40, deadline=None)
    def test_tensor_extensions(self, x, y):
        assert_clean(tensor_map_basis(x, trunk_coproduct))
        assert_clean(tensor(x, y).expand_leg(0, trunk_coproduct))


class TestExactCoefficients:
    """Every constructor and ``scale`` take ints and Fractions exactly and
    read out as Fractions; a float is refused, and so is a float weight at
    every public entry."""

    def test_ints_become_fractions(self):
        a, ab = P("a"), (P("a"), P("b"))
        for x, basis, value in [
            (LinComb({a: 3}), a, 3),
            (LinComb.of(a, 3), a, 3),
            (LinComb.of(a), a, 1),
            (LinComb.of(a, Fraction(1, 2)).scale(6), a, 3),
            (TensorComb({ab: 3}), ab, 3),
            (TensorComb.of(ab, -2), ab, -2),
        ]:
            c = x.coefficient(basis)
            assert type(c) is Fraction and c == value
            assert_clean(x)

    def test_zero_coefficients_are_dropped(self):
        assert LinComb({P("a"): 0}).is_zero
        assert LinComb.of(P("a"), 0) == LinComb.zero()
        assert TensorComb.of((P("a"), P("b")), 0) == TensorComb.zero()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinComb({P("a"): 0.5}),
            lambda: LinComb.of(P("a"), 0.1),
            lambda: LinComb.of(P("a")).scale(0.5),
            lambda: LinComb.sum_of([(P("a"), 1), (P("b"), 0.5)]),
            lambda: TensorComb({(P("a"), P("b")): 0.5}),
            lambda: TensorComb.of((P("a"), P("b")), 1.0),
            lambda: forest_shuffle(P("a"), P("b"), 0.1),
            lambda: star_product(P("a"), P("b"), 0.1),
            lambda: diamond_product(P("a"), P("b"), 0.1),
            lambda: shuffle_coefficient(P("a*b"), P("a"), P("b"), 0.5),
            lambda: word_shuffle(Word([Decoration(["a"])]), Word([Decoration(["b"])]), 0.1),
            lambda: word_diamond(Word([Decoration(["a"])]), Word([Decoration(["b"])]), 0.1),
            lambda: word_algebra(0.1),
            lambda: forest_algebra(0.1),
            lambda: corrupted_forest_algebra(0.1),
        ],
        ids=[
            "LinComb", "of", "scale", "sum_of", "TensorComb", "TensorComb.of", "forest_shuffle",
            "star_product", "diamond_product", "shuffle_coefficient", "word_shuffle", "word_diamond", "word_algebra",
            "forest_algebra", "corrupted_forest_algebra",
        ],
    )
    def test_a_float_is_refused(self, build):
        with pytest.raises(TypeError, match="int or a Fraction, not float"):
            build()

    @given(x=combinations(nonempty_forests), f=nonempty_forests, g=nonempty_forests)
    @settings(max_examples=40, deadline=None)
    def test_text_is_the_fractions_text(self, x, f, g):
        """The text forms, written from the stored pair, against the same
        text written from ``items()``'s Fractions."""
        for y in (x, x.scale(Fraction(-3, 7)), forest_shuffle(f, g, Fraction(2, 3)), LinComb.zero()):
            assert lincomb_json(y)["terms"] == [{"coeff": str(c), "forest": b.key} for b, c in y.items()]
            parts = [f"{'-' if c < 0 else '+'} {abs(c)} {b.key}" for b, c in y.items()]
            expected = " ".join(parts).removeprefix("+ ") if parts else "0"
            assert render_lincomb(y) == expected
        t = tensor(x, LinComb.of(f, Fraction(-1, 2)))
        pairs = [{"coeff": str(c), "left": left.key, "right": right.key} for (left, right), c in t.items()]
        assert tensor_json(t)["terms"] == pairs

    def test_text_shows_the_exact_value(self):
        assert render_lincomb(LinComb({P("a"): Fraction(1, 10)})) == "1/10 a"
        assert render_lincomb(LinComb({P("a"): 3, P("b"): -1})) == "3 a - 1 b"


class TestExactCarrier:
    """``_combine`` and ``_wrap``, which every memoized recursion shares,
    and the values those recursions memoize."""

    def test_no_parts_sum_to_zero(self):
        assert _combine([]) == ({}, 1)
        assert _combine([], 6) == ({}, 1)

    def test_a_cancelled_term_is_dropped(self):
        a, b = P("a"), P("b")
        assert _combine([({a: 1, b: 2}, 3, 1), ({a: 1}, 3, -1)]) == ({b: 2}, 3)
        assert _combine([({a: 2}, 3, 1), ({a: 1}, 3, -2)]) == ({}, 1)

    def test_factor_and_split_reduce_to_lowest_terms(self):
        a, b = P("a"), P("b")
        # ((2a + 4b)/3 + a/3) / 2 = a/2 + 2b/3
        assert _combine([({a: 2, b: 4}, 3, 1), ({a: 1}, 3, 1)], 2) == ({a: 3, b: 4}, 6)
        # a + (2/3) a, a weight term's factor over its denominator
        assert _combine([({a: 1}, 1, 1), ({a: 1}, 3, 2)]) == ({a: 5}, 3)
        # 2a/4 + 2b/4 reduce by 2
        assert _combine([({a: 2}, 4, 1), ({b: 2}, 4, 1)]) == ({a: 1, b: 1}, 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        parts=st.lists(
            st.tuples(
                # a few basis elements, so parts both share and miss them
                st.dictionaries(st.sampled_from(["a", "b", "a b", "a[b]", "b[a]"]), st.integers(-4, 4), max_size=4),
                st.integers(1, 6),
                st.sampled_from([1, 1, 2, -1, -3]),
            ),
            max_size=5,
        ),
        split=st.sampled_from([1, 1, 2, 6]),
    )
    # a lone canonical part, alone, split, or after an empty one
    @example(parts=[({"a": 1, "b": -2}, 3, 1)], split=1)
    @example(parts=[({"a": 1, "b": -2}, 3, 1)], split=2)
    @example(parts=[({}, 1, 1), ({"a": 1, "b": -2}, 3, 1)], split=1)
    # scaled, or reduced by the denominator or the split
    @example(parts=[({"a": 1, "b": -2}, 3, 2)], split=1)
    @example(parts=[({"a": 2}, 4, 1)], split=1)
    @example(parts=[({"a": 2}, 3, 1)], split=2)
    # a second part sharing a basis element with the first, or none
    @example(parts=[({"a": 1, "b": -2}, 3, 1), ({"a": 1}, 3, 1)], split=1)
    @example(parts=[({"a": 1, "b": -2}, 3, 1), ({"a b": 1}, 3, 1)], split=1)
    def test_sum_matches_a_fraction_sum(self, parts, split):
        parts = [({P(k): c for k, c in nums.items()}, d, factor) for nums, d, factor in parts]
        before = [dict(nums) for nums, _, _ in parts]
        expected: dict = {}
        for nums, d, factor in parts:
            for b, c in nums.items():
                expected[b] = expected.get(b, 0) + Fraction(c * factor, d * split)
        nums, den = _combine(parts, split)
        assert type(den) is int and den > 0 and math.gcd(den, *nums.values()) == 1
        assert {b: Fraction(c, den) for b, c in nums.items()} == {b: c for b, c in expected.items() if c}
        # no input dict is changed, shared or not
        assert [nums for nums, _, _ in parts] == before
        nonempty = [i for i, (part, _, _) in enumerate(parts) if part]
        if len(nonempty) == 1:
            part, d, factor = parts[nonempty[0]]
            scale = factor * (math.lcm(*[d for _, d, _ in parts]) // d)
            lowest = 0 not in part.values() and math.gcd(d * split, *part.values()) == 1
            if scale != 1 or not lowest:
                # scaled or reduced: a new dict
                assert nums is not part
            elif nonempty == [len(parts) - 1]:
                # a lone canonical part, after empty ones only, comes back as is
                assert nums is part

    def test_leg_tuple_keys(self):
        a, b = P("a"), P("b")
        value = _combine([({(a, b): 1, (b, a): 1}, 2, 1), ({(a, b): 1}, 2, 1)])
        assert value == ({(a, b): 2, (b, a): 1}, 2)
        t = TensorComb._wrap(value)
        assert type(t) is TensorComb and t == TensorComb({(a, b): 1, (b, a): Fraction(1, 2)})
        assert_clean(t)

    def test_lincomb_returns_the_class_asked_for(self):
        a, b = P("a"), P("b")
        value = ({a: 3, b: -2}, 4)
        x = LinComb._wrap(value)
        assert type(x) is LinComb and x == LinComb({a: Fraction(3, 4), b: Fraction(-1, 2)})
        assert x._value is value  # wrapping copies nothing
        assert_clean(x)
        assert TensorComb._wrap(({}, 1)) == TensorComb.zero()

    def test_every_memo_value_is_exact(self):
        import forestshuffle.coalgebra as co
        import forestshuffle.dual as dual
        import forestshuffle.shuffle as sh

        memos = {
            "_shuffle": sh._shuffle_cache,
            "_star": sh._star_cache,
            "_diamond": sh._diamond_cache,
            "_coeff": sh._coeff_cache,
            "_dual": dual._dual_cache,
            "_trunk": co._trunk_cache,
        }
        for memo in memos.values():
            memo.clear()  # a pure memo: clearing it changes no result
        first, second = P("a[b] c"), P("b[c,a] a")
        query = (P("a*b[c] d"), P("a[c] d"), P("b"))  # lam/2: its weight term
        results = [forest_shuffle(EMPTY, first, Fraction(2, 3)), star_product(second, EMPTY)]
        for lam in (0, 1, -1, Fraction(2, 3)):
            for _ in range(2):  # fresh, then memo
                results += [op(first, second, lam) for op in (forest_shuffle, star_product, diamond_product)]
                assert type(shuffle_coefficient(*query, lam)) is Fraction
        for result in results:
            assert not result.is_zero
            assert all(type(c) is Fraction for _, c in result.items())
        assert shuffle_coefficient(*query, Fraction(2, 3)) == Fraction(1, 3)
        assert type(shuffle_coefficient(P("a"), P("a"), P("b"))) is Fraction
        for text in ["()", "a", "a[b,c[a]]", "a[b] a[b]", "a[b,c[a]] b c[a]", "a*b[1] c[a,a]"]:
            for route in (dual_recursive, dual_combinatorial):
                result = route(P(text))
                assert not result.is_zero
                assert all(type(c) is Fraction and c > 0 for _, c in result.items())
        for text in ["a", "a[b[c]]", "a[b[c[d,e]]]"]:
            assert all(type(c) is Fraction and c == 1 for _, c in trunk_coproduct(P(text)).items())

        for name, memo in memos.items():
            assert memo, name
            for nums, den in memo.values():
                assert type(den) is int and den > 0, name
                assert all(type(c) is int and c != 0 for c in nums.values()), name
                assert math.gcd(den, *nums.values()) == 1, name
        for name in ("_shuffle", "_star", "_diamond", "_coeff"):
            # keyed on the weight as (numerator, denominator)
            assert all(type(x) is int for key in memos[name] for x in key[-1]), name
        # the formulas' coefficients are positive integers
        for nums, den in dual._dual_cache.values():
            assert den == 1 and all(c > 0 for c in nums.values())


def _naive(pairs) -> dict:
    """Sum (basis, coefficient) pairs in a plain dict, then drop zeros."""
    acc: dict = {}
    for b, c in pairs:
        acc[b] = acc.get(b, 0) + c
    return {b: c for b, c in acc.items() if c}


class TestExtensionKernel:
    """Each linear extension on ``_combine`` against a naive double loop.  The
    inputs mix coefficient 1, a non-unit and negative coefficients, and
    each pair of terms that shares the other legs sums to zero, so the Z
    term every image carries cancels there."""

    Z = P("z")
    X = LinComb({P("a"): 1, P("b"): Fraction(2, 3), P("a b"): -1, P("c[d]"): Fraction(-2, 3)})
    Y = LinComb({P("e"): 1, P("a[b]"): -1})
    T = TensorComb(
        {(P("a"), P("e")): 1, (P("b"), P("e")): -1, (P("e"), P("a")): Fraction(2, 3), (P("e"), P("b")): Fraction(-2, 3)}
    )

    def image(self, f):
        return LinComb.of(self.Z) + forest_shuffle(f, P("e"), 1)

    def op(self, f, g):
        return LinComb.of(self.Z) + forest_shuffle(f, g, 1)

    def tensor_image(self, f):
        return tensor(self.image(f), LinComb.of(P("y"), Fraction(-1, 2)))

    def check(self, got, expected, cancelled):
        assert dict(got.items()) == expected
        assert_clean(got)
        assert cancelled not in got.support()

    def test_map_basis(self):
        expected = _naive(
            (b2, c * c2) for b, c in self.X.items() for b2, c2 in self.image(b).items()
        )
        self.check(self.X.map_basis(self.image), expected, self.Z)

    def test_bilinear(self):
        expected = _naive(
            (b, c1 * c2 * c)
            for b1, c1 in self.X.items()
            for b2, c2 in self.Y.items()
            for b, c in self.op(b1, b2).items()
        )
        self.check(bilinear(self.op, self.X, self.Y), expected, self.Z)

    def test_tensor_map_basis(self):
        expected = _naive(
            (legs, c * c2)
            for b, c in self.X.items()
            for legs, c2 in self.tensor_image(b).items()
        )
        self.check(tensor_map_basis(self.X, self.tensor_image), expected, (self.Z, P("y")))

    @pytest.mark.parametrize("i", [0, 1])
    def test_expand_leg(self, i):
        expected = _naive(
            (legs[:i] + sub + legs[i + 1 :], c * c2)
            for legs, c in self.T.items()
            for sub, c2 in self.tensor_image(legs[i]).items()
        )
        cancelled = (self.Z, P("y"), P("e")) if i == 0 else (P("e"), self.Z, P("y"))
        self.check(self.T.expand_leg(i, self.tensor_image), expected, cancelled)

    def test_contract(self):
        expected = _naive(
            ((b,), c * c2)
            for legs, c in self.T.items()
            for b, c2 in self.op(legs[0], legs[1]).items()
        )
        self.check(self.T.contract(0, 1, self.op), expected, (self.Z,))


class TestAccumulator:
    def test_sum_of_adds_repeats_and_drops_cancellations(self):
        x = LinComb.sum_of(
            [(P("a"), Fraction(1)), (P("b"), Fraction(2)), (P("a"), Fraction(-1)), (P("c"), Fraction(0))]
        )
        assert x == LinComb.of(P("b"), 2)
        assert_clean(x)

    def test_cancelled_term_can_come_back(self):
        a = P("a")
        x = LinComb.sum_of([(a, Fraction(1)), (a, Fraction(-1)), (a, Fraction(1, 3))])
        assert x == LinComb.of(a, Fraction(1, 3))

    def test_bilinear_extends_both_arguments(self):
        x = LinComb({P("a"): Fraction(2), P("b"): Fraction(1)})
        y = LinComb.of(P("c"), -1)
        expected = (
            forest_shuffle(P("a"), P("c"), 1).scale(-2) - forest_shuffle(P("b"), P("c"), 1)
        )
        assert bilinear(forest_shuffle, x, y, 1) == expected
        assert bilinear(forest_shuffle, x, LinComb.zero(), 1).is_zero

    def test_tensor_map_basis_keeps_the_arity(self):
        x = LinComb({P("a[b]"): Fraction(2), P("c"): Fraction(-1)})
        expected = trunk_coproduct(P("a[b]")).scale(2) - trunk_coproduct(P("c"))
        got = tensor_map_basis(x, trunk_coproduct)
        assert got == expected and {len(legs) for legs in got.support()} == {2}
        assert tensor_map_basis(LinComb.zero(), trunk_coproduct) == TensorComb.zero()


class TestCanonicalEquality:
    """A combination stores its value in lowest terms, so one value built by
    different routes stores one pair: equal and with equal hashes."""

    @staticmethod
    def assert_same(values):
        for x in values:
            assert_clean(x)
        first = values[0]
        assert all(x == first and hash(x) == hash(first) for x in values)

    @given(
        terms=st.dictionaries(nonempty_forests, coefficients, min_size=1, max_size=3),
        noise=combinations(nonempty_forests),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_to_one_value(self, terms, noise):
        x = LinComb(terms)
        chain = LinComb.zero()
        for f, c in terms.items():
            chain = chain + LinComb.of(f).scale(c)
        self.assert_same([
            x,
            chain,
            lincomb_sum(LinComb.of(f, 3).scale(c / 3) for f, c in terms.items()),
            (x + noise) - noise,
            noise - (noise - x),
            -(noise - x - noise - x).scale(Fraction(1, 2)),
            LinComb.sum_of([*terms.items(), *[(f, -c) for f, c in noise.items()], *noise.items()]),
            bilinear(forest_shuffle, x, LinComb.of(EMPTY), 1),  # the empty forest is the unit
            x.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
        ])

    @given(f=nonempty_forests, g=nonempty_forests, lam=st.sampled_from([0, 1, Fraction(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_a_product_entry_by_other_routes(self, f, g, lam):
        fg = forest_shuffle(f, g, lam)
        self.assert_same([
            fg,
            forest_shuffle(g, f, lam),
            bilinear(forest_shuffle, LinComb.of(f), LinComb.of(g), lam),
            LinComb(dict(fg.items())),
            LinComb.sum_of(fg.items()),
            fg.scale(3).scale(Fraction(1, 3)),
            (fg + fg) - fg,
        ])

    @given(x=combinations(nonempty_forests))
    @settings(max_examples=40, deadline=None)
    def test_a_lincomb_never_equals_a_tensor(self, x):
        one_leg = TensorComb({(f,): c for f, c in x.items()})
        assert x != one_leg and one_leg != x
        same_value = TensorComb._wrap(x._value)
        assert x != same_value and same_value != x


class TestTensorComb:
    def test_is_a_lincomb_over_leg_tuples(self):
        t = TensorComb.of((P("a"), P("b")), Fraction(1, 2))
        assert isinstance(t, LinComb)
        assert (t + t).coefficient((P("a"), P("b"))) == 1
        assert (t - t).is_zero and isinstance(t - t, TensorComb)
        assert {len(legs) for legs in (t + t).support()} == {2}
        assert repr(t) == "TensorComb('1/2 (a) (x) (b)')"

    def test_zeros_of_different_spaces_differ(self):
        # a tensor's leg count is the length of its terms: zero has none
        assert LinComb.zero() != TensorComb.zero()
        assert TensorComb.of((P("a"),)) != LinComb.of(P("a"))
        assert TensorComb.zero() == TensorComb.sum_of([])
        assert TensorComb.zero() == TensorComb.of((P("a"), P("b"))).scale(0)

    def test_terms_sort_by_the_tuple_of_leg_keys(self):
        # a space-joined string would put "a b c" before "a z"
        t = TensorComb({(P("a b"), P("c")): Fraction(1), (P("a"), P("z")): Fraction(1)})
        assert [legs for legs, _ in t.items()] == [(P("a"), P("z")), (P("a b"), P("c"))]
        assert render_lincomb(t) == "1 (a) (x) (z) + 1 (a b) (x) (c)"

    def test_arity_errors(self):
        two = TensorComb.of((P("a"), P("b")))
        three = TensorComb.of((P("a"), P("b"), P("c")))
        with pytest.raises(ValueError, match="arity mismatch"):
            two + three
        with pytest.raises(ValueError, match="arity mismatch"):
            three - two
        with pytest.raises(ValueError, match="arity mismatch"):
            LinComb.of(P("a")) + TensorComb.of((P("a"),))
        with pytest.raises(ValueError, match="arity mismatch"):
            TensorComb.of((P("a"),)) + LinComb.of(P("a"))
        with pytest.raises(ValueError, match="number of legs"):
            TensorComb({(P("a"),): Fraction(1), (P("a"), P("b")): Fraction(1)})
        # a wrong leg count never drops or repeats a leg silently
        with pytest.raises(ValueError, match="does not fit"):
            three.flip()
        with pytest.raises(ValueError, match="does not fit"):
            two.tau23()
        with pytest.raises(ValueError, match="does not fit"):
            two.permute((0, 0))  # not a permutation: two terms could meet
        with pytest.raises(ValueError, match="2-leg"):
            tensor_json(three)

    def test_both_constructors_check_the_legs(self):
        # sum_of once built a mixed tensor that only failed later, in + or flip
        mixed = [((P("a"),), 1), ((P("a"), P("b")), 1)]
        with pytest.raises(ValueError, match="number of legs"):
            TensorComb.sum_of(mixed)
        with pytest.raises(ValueError, match="number of legs"):
            TensorComb(dict(mixed))
        # the check reads the sum: cancelled terms leave no leg count behind
        cancelled = TensorComb.sum_of(mixed + [((P("a"), P("b")), -1)])
        assert cancelled == TensorComb.of((P("a"),))

    def test_zero_sums_with_any_leg_count(self):
        two = TensorComb.of((P("a"), P("b")))
        three = TensorComb.of((P("a"), P("b"), P("c")))
        assert two + TensorComb.zero() == two
        assert TensorComb.zero() + three == three
        assert TensorComb.zero().flip() == TensorComb.zero()
        assert tensor_json(TensorComb.zero()) == {"terms": []}

    def test_linear_maps_of_zero_are_zero(self):
        zero = TensorComb.zero()
        assert zero.expand_leg(0, trunk_coproduct) == zero
        assert zero.contract(0, 1, forest_shuffle) == zero
        assert tensor_map_basis(LinComb.zero(), trunk_coproduct) == zero

    def test_relegging(self):
        t = TensorComb.of((P("a[b]"), P("c")))
        assert {len(legs) for legs in t.expand_leg(0, trunk_coproduct).support()} == {3}
        merged = t.contract(0, 1, forest_shuffle)
        assert {len(legs) for legs in merged.support()} == {1}
        assert {legs[0] for legs in merged.support()} == forest_shuffle(P("a[b]"), P("c")).support()


def _modules():
    return [
        importlib.import_module(f"forestshuffle.{info.name}")
        for info in pkgutil.iter_modules(forestshuffle.__path__)
    ]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_namespace_resolves():
    """The package root re-exports nothing: every name has one import path,
    the module that defines it."""
    _modules()
    public = [
        name
        for name, value in vars(forestshuffle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert public == []
    assert isinstance(forestshuffle.__version__, str)


def _source_files():
    """The package's modules, the test files and the benchmark pair tool."""
    root = Path(forestshuffle.__file__).parent
    modules = sorted(p for p in root.glob("*.py") if p.name != "__init__.py")
    tests = Path(__file__).parent
    return modules + sorted(tests.glob("*.py")) + [tests.parent / "tools" / "bench_pairs.py"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (an ``__all__`` entry counts as
    a read)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _exports(tree: ast.Module) -> list[str]:
    """The names in a module's ``__all__``."""
    return [
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
        if isinstance(elt, ast.Constant)
    ]


@pytest.mark.parametrize("path", _source_files(), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_sees_one():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nprint(c)\n"
    assert _unused_imports(source) == ["os (line 2)", "e (line 3)"]


def _unread_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that no source
    reads: as a name, an attribute or an import, outside the top-level
    definition of that name itself (so a recursion is not a read)."""
    exported, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        exported += [f"{module}.{name}" for name in _exports(tree)]
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (*_DEFS, ast.ClassDef)):
                names.discard(stmt.name)
            read |= names
    return [name for name in exported if name.rpartition(".")[2] not in read]


def test_every_export_is_read():
    """Each exported name has a reader in the package or the benchmark; a
    name only tests call belongs in the tests."""
    root = Path(forestshuffle.__file__).parent
    paths = sorted(root.glob("*.py")) + sorted((root.parents[1] / "perfbench").glob("*.py"))
    assert _unread_exports({p.stem: p.read_text(encoding="utf-8") for p in paths}) == []


def test_unread_export_scan_sees_each_kind():
    sources = {
        "m": (
            '__all__ = ["used", "dead", "loop", "Kept", "CONST"]\n'
            "def used():\n    return CONST\n"
            "def dead():\n    return 1\n"
            "def loop(n):\n    return loop(n - 1)\n"
            "class Kept:\n    pass\n"
            "CONST = 1\n"
        ),
        "n": "from m import used\nimport m\nused()\nm.Kept()\n",
    }
    assert _unread_exports(sources) == ["m.dead", "m.loop"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, not descending into nested
    definitions (which are yielded themselves)."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _self_reaching(source: str) -> set[str]:
    """The functions of a module that can reach themselves through calls by
    name within it.  Methods are qualified by class (``self.f()`` and
    ``Class.f()`` resolve to ``Class.f``) and nested functions by the
    function they sit in; a bare name resolves to the innermost enclosing
    definition, then to the module level."""
    module = ast.parse(source)
    classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
    methods = {f"{c}.{m.name}" for c, node in classes.items() for m in node.body if isinstance(m, _DEFS)}
    calls: dict[str, set[str]] = {}
    todo = [(node.name, node, None) for node in module.body if isinstance(node, _DEFS)]
    todo += [(f"{c}.{m.name}", m, c) for c, node in classes.items() for m in node.body if isinstance(m, _DEFS)]
    visible = {name: name for name, _, _ in todo if "." not in name}
    scopes = {name: visible for name, _, _ in todo}
    while todo:
        name, fn, cls = todo.pop()
        nested = [node for node in _own_nodes(fn) if isinstance(node, _DEFS)]
        scope = scopes[name] | {node.name: f"{name}.{node.name}" for node in nested}
        for node in nested:
            scopes[f"{name}.{node.name}"] = scope
            todo.append((f"{name}.{node.name}", node, None))
        calls[name] = set()
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in scope:
                calls[name].add(scope[f.id])
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                owner = cls if f.value.id in ("self", "cls") else f.value.id
                if f"{owner}.{f.attr}" in methods:
                    calls[name].add(f"{owner}.{f.attr}")
    found = set()
    for start in calls:
        seen, frontier = set(), list(calls[start])
        while frontier:
            callee = frontier.pop()
            if callee == start:
                found.add(start)
                break
            if callee not in seen:
                seen.add(callee)
                frontier.extend(calls.get(callee, ()))
    return found


# The recursions left in the package, each with the bound that keeps its
# depth within the interpreter's stack.  Every whole-tree visit and fold
# runs on the iterative ``forest._preorder`` walk instead.
PINNED_RECURSIONS = {
    "cli._count_leaves": "MAX_TREE_DEPTH (the operands' depths in sum)",
    "coalgebra._trunk": "MAX_TREE_DEPTH",
    "dual._dual": "MAX_TREE_DEPTH",
    "dual._families": "MAX_TREE_DEPTH",
    "dual._family_sets": "MAX_TREE_DEPTH",
    "dual._transpose": "MAX_TREE_DEPTH",
    "dual._transpose_terms": "MAX_TREE_DEPTH",
    "forest._Parser.parse_tree": "MAX_TREE_DEPTH",
    "rota_baxter._phi_bar": "the size its caller asks for",
    "sampling._forests_on_multiset": "SHAPE_GUARD / ORACLE_GUARD",
    "sampling._trees_on_multiset": "SHAPE_GUARD / ORACLE_GUARD",
    "sampling.random_tree": "the size its caller asks for",
    "shuffle._coeff": "MAX_TREE_DEPTH",
    "shuffle._diamond": "MAX_TREE_DEPTH (the operands' depths in sum)",
    "shuffle._shuffle": "MAX_TREE_DEPTH (the operands' depths in sum)",
    "shuffle._star": "MAX_TREE_DEPTH (the operands' depths in sum)",
    "words._word_shuffle": "the size its caller asks for",
}


def test_recursions_are_pinned():
    root = Path(forestshuffle.__file__).parent
    found = {
        f"{path.stem}.{name}"
        for path in sorted(root.glob("*.py"))
        for name in _self_reaching(path.read_text(encoding="utf-8"))
    }
    assert found == set(PINNED_RECURSIONS)


# The functions that keep ``functools.cache``.  The enumerators' keys are
# bounded by SHAPE_GUARD / ORACLE_GUARD, and enumerate_shapes(12) needs
# 12-unit keys, which the 8-vertex rule of forest._Memo would drop.  The
# algebra factories keep one algebra per weight, the key of phi_bar's memo.
CACHED_ENUMERATORS = {
    "rota_baxter._grafting_algebra",
    "rota_baxter._word_algebra",
    "sampling._forests_on_multiset",
    "sampling._trees_on_multiset",
    "sampling.forests_of_size",
    "sampling.trees_of_size",
}
_CACHES = {"cache", "lru_cache"}


def _stored_value_reads(module: str, source: str) -> list[str]:
    """The places a module reads a combination's stored exact value: the
    ``_value`` attribute, or the name ``"_value"`` handed to getattr and
    its kin.  Only ``linalg`` may; a recursion hands its exact value to the
    class's wrapping constructor, ``_wrap``, and reads results through
    ``items()`` and ``coefficient()``."""
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "_value")
        or (isinstance(node, ast.Constant) and node.value == "_value")
    ]


def test_only_linalg_reads_the_stored_value():
    root = Path(forestshuffle.__file__).parent
    paths = sorted(root.glob("*.py")) + sorted((root.parents[1] / "perfbench").glob("*.py"))
    assert [p.stem for p in paths if p.stem == "linalg"] == ["linalg"]
    reads = [
        place
        for path in paths
        if path.stem != "linalg"
        for place in _stored_value_reads(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert reads == []


def test_stored_value_scan_sees_each_kind():
    source = (
        "from .linalg import LinComb, TensorComb\n"
        "def f(x, value):\n"
        "    nums, den = x._value\n"
        "    y = getattr(x, '_value')\n"
        "    return TensorComb._wrap(value), x.items(), x.coefficient(1), den\n"
    )
    assert _stored_value_reads("dual", source) == ["dual:3", "dual:4"]


def _memo_names(sources: dict[str, str]) -> set[str]:
    """The names the modules bind to a ``_Memo()`` at module level."""
    return {
        target.id
        for source in sources.values()
        for node in ast.parse(source).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "_Memo"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }


def _memo_empties(module: str, source: str, memos: set[str]) -> list[str]:
    """The places a module calls ``trim()`` or ``clear()`` on a module-level
    memo, by its name or as a module attribute.  Only ``forest`` may: its
    public-entry wrapper bounds every memo, so a recursion module calls
    only ``get`` and ``put``."""
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("trim", "clear")
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None)) in memos
    ]


def test_only_forest_empties_a_memo():
    root = Path(forestshuffle.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))}
    memos = _memo_names(sources)
    assert len(memos) == 13
    empties = [
        place
        for module, source in sources.items()
        if module != "forest"
        for place in _memo_empties(module, source, memos)
    ]
    assert empties == []


def test_memo_empty_scan_sees_each_kind():
    sources = {
        "forest": "_t = _Memo()\nclass _Memo(dict):\n    pass\n",
        "dual": "from .forest import _Memo\n_d_cache: _Memo = _Memo()\nlabels = {}\n",
    }
    assert _memo_names(sources) == {"_t", "_d_cache"}
    source = (
        "from . import forest\n"
        "def f(labels, memo):\n"
        "    _d_cache.trim()\n"
        "    forest._t.clear()\n"
        "    labels.clear(), memo.clear(), _d_cache.get(1), _d_cache.put(1, 1, 1)\n"
        "    return _d_cache.clear\n"
    )
    assert _memo_empties("dual", source, _memo_names(sources)) == ["dual:3", "dual:4"]


def _stray_memos(module: str, source: str) -> list[str]:
    """The memos of a module that are not a forest._Memo: a functools cache
    on a function outside CACHED_ENUMERATORS, a cache wrapper used any other
    way, and a module-level ``*_cache`` or empty dict that is not ``_Memo()``."""
    tree = ast.parse(source)
    stray, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            for dec in node.decorator_list:
                decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
                if f"{module}.{node.name}" not in CACHED_ENUMERATORS and _CACHES & {
                    getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(dec)
                }:
                    stray.append(f"{module}.{node.name}")
        elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorators:
            if getattr(node, "id", getattr(node, "attr", None)) in _CACHES:
                stray.append(f"{module}:{node.lineno}")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        is_memo = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_Memo"
        is_empty_dict = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
        )
        for target in targets:
            if isinstance(target, ast.Name) and not is_memo:
                if target.id.endswith("_cache") or is_empty_dict:
                    stray.append(f"{module}.{target.id}")
    return stray


def test_every_memo_is_a_memo():
    from forestshuffle.forest import _Memo

    root = Path(forestshuffle.__file__).parent
    stray = [
        name
        for path in sorted(root.glob("*.py"))
        for name in _stray_memos(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert stray == []
    named = {
        f"{module.__name__.rsplit('.', 1)[1]}.{attr}": value
        for module in _modules()
        for attr, value in vars(module).items()
        if isinstance(value, _Memo)
    }
    assert set(named) == {
        "coalgebra._trunk_cache",
        "dual._dual_cache",
        "dual._family_cache",
        "dual._transpose_cache",
        "forest._decoration_table",
        "forest._forest_table",
        "forest._tree_table",
        "rota_baxter._phi_cache",
        "shuffle._coeff_cache",
        "shuffle._diamond_cache",
        "shuffle._shuffle_cache",
        "shuffle._star_cache",
        "words._word_cache",
    }


_KEYED_RULES = ("__setattr__", "__eq__", "__hash__", "__lt__", "__repr__")


def _keyed_faults(classes) -> list[str]:
    """The classes with a ``key`` slot that do not take every keyed-value
    rule from ``forest._Keyed``: not a subclass, or one that defines a rule
    itself."""
    from forestshuffle.forest import _Keyed

    faults = []
    for cls in classes:
        if "key" not in getattr(cls, "__slots__", ()):
            continue
        if not issubclass(cls, _Keyed):
            faults.append(f"{cls.__name__} is no _Keyed")
        faults += [f"{cls.__name__}.{name}" for name in _KEYED_RULES if name in vars(cls)]
    return faults


def test_every_keyed_value_takes_the_one_base():
    from forestshuffle.forest import _Keyed

    classes = {
        value
        for module in _modules()
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    keyed = {cls.__name__ for cls in classes if "key" in getattr(cls, "__slots__", ())}
    assert keyed == {"Decoration", "RootedTree", "Forest", "Word"}
    assert _keyed_faults(classes) == []
    assert [name for name in _KEYED_RULES if name in vars(_Keyed)] == list(_KEYED_RULES)


def test_keyed_scan_sees_each_kind():
    from forestshuffle.forest import _Keyed

    class Plain:  # a key slot, no base
        __slots__ = ("key", "_hash")

    class Restated(_Keyed):  # the base, with one rule of its own
        __slots__ = ("key", "_hash")

        def __repr__(self):
            return "Restated"

    class Keyless:  # no key slot: out of the scan
        __slots__ = ("atoms",)

        def __eq__(self, other):
            return True

    assert _keyed_faults([Plain, Restated, Keyless]) == ["Plain is no _Keyed", "Restated.__repr__"]


# the slot setters each value class's builder writes its fields through
_SETTERS = {"_TREE_SETTERS": "RootedTree", "_FOREST_SETTERS": "Forest"}


class _FieldBuilders(ast.NodeVisitor):
    """Per function of a module (qualified by class and enclosing function),
    the value classes it builds field by field: it reads a class's slot
    setters or calls ``object.__new__`` on the class (``cls`` inside a
    class means that class)."""

    def __init__(self):
        self.scope: list[str] = []
        self.classes: list[str] = []
        self.found: dict[str, set[str]] = {}

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _scoped

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self._scoped(node)
        self.classes.pop()

    def _note(self, cls: str) -> None:
        if cls in _SETTERS.values():
            self.found.setdefault(".".join(self.scope) or "<module>", set()).add(cls)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in _SETTERS:
            self._note(_SETTERS[node.id])

    def visit_Call(self, node):
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "__new__"
            and getattr(fn.value, "id", None) == "object"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            arg = node.args[0].id
            self._note(self.classes[-1] if arg == "cls" and self.classes else arg)
        self.generic_visit(node)


def _field_builders(source: str) -> dict[str, set[str]]:
    visitor = _FieldBuilders()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_each_value_class_has_one_builder():
    """Only ``RootedTree._build`` makes a tree and only ``Forest._build`` a
    forest; every other builder goes through them, so the hash-consing
    table lookup and the field layout live in one place per class."""
    root = Path(forestshuffle.__file__).parent
    found = {
        f"{path.stem}.{where}": classes
        for path in sorted(root.glob("*.py"))
        for where, classes in _field_builders(path.read_text(encoding="utf-8")).items()
    }
    assert found == {"forest.RootedTree._build": {"RootedTree"}, "forest.Forest._build": {"Forest"}}


def test_field_builder_scan_sees_each_kind():
    source = (
        "class Forest:\n"
        "    def _build(cls):\n        return object.__new__(cls)\n"
        "class RootedTree:\n"
        "    def as_forest(self):\n"
        "        forest = object.__new__(Forest)\n"
        "        _FOREST_SETTERS[0](forest, (self,))\n"
        "class Decoration:\n"
        "    def __new__(cls):\n        return object.__new__(cls)\n"
        "_TREE_SETTERS = _slot_setters(RootedTree)\n"
        "def outer():\n    def inner():\n        return _TREE_SETTERS\n"
        "print(_FOREST_SETTERS)\n"
    )
    assert _field_builders(source) == {
        "Forest._build": {"Forest"},
        "RootedTree.as_forest": {"Forest"},
        "outer.inner": {"RootedTree"},
        "<module>": {"Forest"},
    }


def _guard_faults(module: str, source: str) -> tuple[list[str], list[str]]:
    """The bound names a module's ``GuardExceeded.check`` calls pass, and its
    faults: a ``GuardExceeded(...)`` built outside ``GuardExceeded.check``,
    and a check whose bound is not a module-level name (a literal, a local)."""
    tree = ast.parse(source)
    module_names = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {
        target.id
        for node in tree.body
        for target in (node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)])
        if isinstance(target, ast.Name)
    }
    bounds, faults = [], []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, *_DEFS)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "GuardExceeded" and scope[-2:] != ("GuardExceeded", "check"):
                faults.append(f"{module}:{node.lineno} builds GuardExceeded")
            owner = getattr(node.func, "value", None)
            if name == "check" and getattr(owner, "id", None) == "GuardExceeded":
                bound = node.args[1] if len(node.args) > 1 else None
                if isinstance(bound, ast.Name) and bound.id in module_names:
                    bounds.append(bound.id)
                else:
                    faults.append(f"{module}:{node.lineno} checks a bound that is no module-level name")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return bounds, faults


def test_every_guard_goes_through_check():
    root = Path(forestshuffle.__file__).parent
    bounds, faults = [], []
    for path in sorted(root.glob("*.py")):
        found, wrong = _guard_faults(path.stem, path.read_text(encoding="utf-8"))
        bounds += found
        faults += wrong
    assert faults == []
    assert set(bounds) == {
        "COUNT_GUARD",
        "FAMILY_GUARD",
        "GRAFT_GUARD",
        "MAX_TREE_DEPTH",
        "ORACLE_GUARD",
        "RB_DEGREE_GUARD",
        "SHAPE_GUARD",
        "SHUFFLE_GUARD",
    }


def test_guard_scan_sees_each_kind():
    source = (
        "from .forest import GuardExceeded, MAX_TREE_DEPTH\nLIMIT = 3\n"
        "class GuardExceeded(RuntimeError):\n"
        "    @staticmethod\n    def check(count, bound, what):\n"
        "        raise GuardExceeded(what)\n"
        "def f(n, limit):\n"
        "    GuardExceeded.check(n, LIMIT, 'n')\n"
        "    GuardExceeded.check(n, MAX_TREE_DEPTH, 'n')\n"
        "    GuardExceeded.check(n, 3, 'n')\n"
        "    GuardExceeded.check(n, limit, 'n')\n"
        "    raise GuardExceeded('n')\n"
    )
    assert _guard_faults("cli", source) == (
        ["LIMIT", "MAX_TREE_DEPTH"],
        [
            "cli:10 checks a bound that is no module-level name",
            "cli:11 checks a bound that is no module-level name",
            "cli:12 builds GuardExceeded",
        ],
    )


def test_memo_scan_sees_each_kind():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef a(n):\n    return n\n"
        "@functools.lru_cache(maxsize=None)\ndef b(n):\n    return n\n"
        "@cache\ndef _trees_on_multiset(ms):\n    return ms\n"
        "c = functools.cache(len)\n"
        "_d_cache = {}\n_e: dict = {}\nf = dict()\n_g_cache = _Memo()\nTABLE = {1: 2}\n"
    )
    assert sorted(_stray_memos("sampling", source)) == [
        "sampling._d_cache",
        "sampling._e",
        "sampling.a",
        "sampling.b",
        "sampling.f",
        "sampling:12",
    ]


def test_recursion_scan_sees_each_kind():
    source = (
        "def f(n):\n    return g(n)\n"
        "def g(n):\n    return f(n - 1) if n else h(n)\n"
        "def h(n):\n    return n\n"
        "def outer(n):\n"
        "    def inner(m):\n        return inner(m - 1) if m else 0\n"
        "    return inner(n)\n"
        "class C:\n"
        "    def walk(self, n):\n        return self.walk(n - 1) if n else C.stop()\n"
        "    @staticmethod\n    def stop():\n        return C.stop\n"
    )
    assert _self_reaching(source) == {"f", "g", "outer.inner", "C.walk"}
