from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from forestshuffle.coalgebra import (
    antipode_square_residual,
    counit,
    right_antipode,
    trunk_coproduct,
)
from forestshuffle.forest import EMPTY, parse_forest
from forestshuffle.linalg import LinComb, TensorComb, tensor, tensor_map_basis
from forestshuffle.sampling import default_alphabet, trees_of_size, trees_up_to
from forestshuffle.shuffle import forest_shuffle
from forestshuffle.words import Word, deconcatenation, is_linear, word_to_tree

from conftest import trees

P = parse_forest
Q = Fraction


def T2(pairs):
    return TensorComb({(P(l), P(r)): Q(c) for l, r, c in pairs})


class TestTrunkCoproduct:
    def test_empty(self):
        assert trunk_coproduct(EMPTY) == T2([("()", "()", 1)])

    def test_linear_two(self):
        assert trunk_coproduct(P("a[b]")) == T2(
            [("a[b]", "()", 1), ("a", "b", 1), ("()", "a[b]", 1)]
        )

    def test_branching_root(self):
        assert trunk_coproduct(P("a[b,c]")) == T2([("()", "a[b,c]", 1)])

    def test_trunk_cuts(self):
        # trunk of a[b[c,d]] is a, b; cuts below each trunk vertex
        assert trunk_coproduct(P("a[b[c,d]]")) == T2(
            [("()", "a[b[c,d]]", 1), ("a", "b[c,d]", 1)]
        )

    def test_rejects_non_connected(self):
        with pytest.raises(ValueError):
            trunk_coproduct(P("a b"))

    @given(t=trees)
    @settings(max_examples=80, deadline=None)
    def test_coassociative(self, t):
        d = trunk_coproduct(t.as_forest())
        assert d.expand_leg(0, trunk_coproduct) == d.expand_leg(1, trunk_coproduct)

    def test_coassociative_exhaustive_small(self):
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            d = trunk_coproduct(tf)
            assert d.expand_leg(0, trunk_coproduct) == d.expand_leg(1, trunk_coproduct)

    def test_deconcatenation_on_linear_trees(self):
        alphabet = default_alphabet(("a", "b"))
        for n in range(5):
            for letters in itertools.product(alphabet, repeat=n):
                w = Word(letters)
                got = trunk_coproduct(word_to_tree(w))
                expected = TensorComb(
                    {
                        (word_to_tree(x), word_to_tree(y)): c
                        for (x, y), c in deconcatenation(w).items()
                    },
                )
                assert got == expected


class TestCounit:
    def test_values(self):
        assert counit(EMPTY) == 1
        assert counit(P("a")) == 0
        assert counit(LinComb({EMPTY: Q(3), P("a[b]"): Q(2)})) == 3

    @given(t=trees)
    @settings(max_examples=60, deadline=None)
    def test_left_counit(self, t):
        acc = LinComb.zero()
        for (l, r), c in trunk_coproduct(t.as_forest()).items():
            acc = acc + LinComb.of(r, c * counit(l))
        assert acc == LinComb.of(t.as_forest())

    def test_right_counit_dichotomy(self):
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            acc = LinComb.zero()
            for (l, r), c in trunk_coproduct(tf).items():
                acc = acc + LinComb.of(l, c * counit(r))
            assert (acc == LinComb.of(tf)) == is_linear(tf)

    def test_right_counit_canonical_witness(self):
        tf = P("a[b,c]")
        acc = LinComb.zero()
        for (l, r), c in trunk_coproduct(tf).items():
            acc = acc + LinComb.of(l, c * counit(r))
        assert acc != LinComb.of(tf)


class TestRightAntipode:
    def test_single_vertex(self):
        assert right_antipode(P("a").single_tree()) == LinComb.of(P("a"))

    def test_two_chain_reverses_with_sign(self):
        assert right_antipode(P("a[b]").single_tree()) == LinComb.of(P("b[a]"), -1)

    def test_branching_vanishes(self):
        assert right_antipode(P("a[b,c]").single_tree()).is_zero

    @given(t=trees)
    @settings(max_examples=60, deadline=None)
    def test_square_vanishes_on_nonempty_trees(self, t):
        assert antipode_square_residual(t).is_zero

    def test_square_exhaustive_small(self):
        for tf in trees_up_to(5, default_alphabet(("a", "b"))):
            assert antipode_square_residual(tf.single_tree()).is_zero


class TestBialgebra:
    @staticmethod
    def _compatible(t1, t2, lam) -> bool:
        lhs = tensor_map_basis(forest_shuffle(t1, t2, lam), trunk_coproduct)
        big = (
            tensor(LinComb.of(t1), LinComb.of(t2))
            .expand_leg(0, trunk_coproduct)
            .expand_leg(2, trunk_coproduct)
            .tau23()
        )
        rhs = big.contract(2, 3, lambda a, b: forest_shuffle(a, b, lam)).contract(
            0, 1, lambda a, b: forest_shuffle(a, b, lam)
        )
        return lhs == rhs

    def test_exhaustive_small(self):
        alphabet = default_alphabet(("a", "b"))
        for total in range(0, 6):
            for k in range(0, total + 1):
                firsts = [EMPTY] if k == 0 else trees_of_size(k, alphabet)
                seconds = [EMPTY] if total == k else trees_of_size(total - k, alphabet)
                for t1 in firsts:
                    for t2 in seconds:
                        for lam in (Q(0), Q(1), Q(-1)):
                            assert self._compatible(t1, t2, lam), (t1.key, t2.key, lam)

    @given(t1=trees, t2=trees)
    @settings(max_examples=30, deadline=None)
    def test_random(self, t1, t2):
        assert self._compatible(t1.as_forest(), t2.as_forest(), Q(1))
