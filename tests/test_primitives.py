from __future__ import annotations

import hashlib
import random

import pytest

from forestshuffle.dual import reduced_dual
from forestshuffle.forest import UNIT, GuardExceeded, RootedTree, _redecorate, parse_forest
from forestshuffle.primitives import (
    count_shapes,
    decorate_distinct,
    enumerate_shapes,
    is_primitive,
    primitive_count_brute,
    primitive_count_recursive,
)
from forestshuffle.sampling import default_alphabet

P = parse_forest

# the published sequence of primitive-tree counts for 0..23 vertices
PT_TABLE = [
    0, 1, 0, 1, 1, 2, 3, 6, 10, 19, 35, 67, 127,
    248, 482, 952, 1885, 3765, 7546, 15221, 30802, 62620, 127702, 261335,
]


class TestIsPrimitive:
    def test_single_vertex(self):
        assert is_primitive(P("a").single_tree())

    def test_chain_is_not(self):
        assert not is_primitive(P("a[b]").single_tree())

    def test_cherry_is(self):
        assert is_primitive(P("a[b,c]").single_tree())

    def test_depends_only_on_shape(self):
        rng = random.Random(1)
        alphabet = default_alphabet(("a", "b", "c"))

        def redecorate(node: RootedTree) -> RootedTree:
            return RootedTree(rng.choice(alphabet), [redecorate(c) for c in node.children])

        for n in range(1, 8):
            for shape in enumerate_shapes(n):
                assert is_primitive(redecorate(shape)) == is_primitive(shape)
                assert _redecorate(decorate_distinct(shape), lambda _: UNIT) == shape


class TestEnumerateShapes:
    def test_counts(self):
        assert [len(enumerate_shapes(n)) for n in range(1, 10)] == [
            1, 1, 2, 4, 9, 20, 48, 115, 286,
        ]

    def test_counts_match_counting_recursion(self):
        for n in range(1, 10):
            assert len(enumerate_shapes(n)) == count_shapes(n)

    def test_unique_and_undecorated(self):
        shapes = enumerate_shapes(6)
        assert len({s.key for s in shapes}) == len(shapes)
        assert all(s.decoration == UNIT for s in shapes)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_shapes(13)

    def test_shape_order_is_pinned(self):
        # suite_primitives draws shapes with rng.choice and primitives --list
        # prints them, so their order reaches the output
        keys = [s.key for n in range(1, 13) for s in enumerate_shapes(n)]
        assert len(keys) == 7813
        digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
        assert digest == "98814d90a05176d6773c8689582c0f2f2850c4bffad150b39df58e1485a2b7bd"

    def test_distinct_forest_shapes_are_pinned(self):
        # the suites' forests: keys, decorations x0.. and order, n = 0..9
        from forestshuffle.suites import _distinct_forest_shapes

        digest = hashlib.sha256()
        counts = []
        for n in range(10):
            forests = _distinct_forest_shapes(n)
            counts.append(len(forests))
            for f in forests:
                digest.update((f.key + "\n").encode("utf-8"))
        assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
        assert digest.hexdigest() == "23d9b03d397ff789a320716a9687d8856b9f08e3ab22756f34d750f4cdde8c29"


class TestCounts:
    def test_recursive_table(self):
        assert [primitive_count_recursive(n) for n in range(24)] == PT_TABLE

    def test_brute_matches_recursive(self):
        for n in range(1, 10):
            assert primitive_count_brute(n) == primitive_count_recursive(n)

    def test_brute_cross_checks_coalgebra(self):
        # the n<=7 brute path re-derives each verdict from the reduced dual
        for n in range(1, 8):
            for shape in enumerate_shapes(n):
                t = decorate_distinct(shape)
                assert reduced_dual(t.as_forest()).is_zero == is_primitive(shape)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            primitive_count_brute(13)
