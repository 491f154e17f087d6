from __future__ import annotations

import hashlib
import itertools

import pytest

from forestshuffle.forest import EMPTY, UNIT, Decoration
from forestshuffle.sampling import (
    default_alphabet,
    forests_of_size,
    forests_up_to,
    operand_tuples,
    trees_of_size,
    words_of_size,
)
from forestshuffle.suites import _trees_or_empty
from forestshuffle.words import Word

# (alphabet, largest size): two atoms, the unit alone (shapes), three and four
# atoms, and decorations that are products of atoms
_RANGES = [
    (default_alphabet(("a", "b")), 9),
    ((UNIT,), 12),
    (default_alphabet(("a", "b", "c")), 6),
    (default_alphabet(("a", "b", "c", "d")), 4),
    ((UNIT, Decoration(["a"]), Decoration(["a", "b"])), 5),
]


class TestExhaustiveEnumeration:
    def test_keys_and_order_are_pinned(self):
        # every suite, enumerate_shapes and the duality sweep read these
        # tuples in order, so a dropped, repeated or moved forest changes
        # their output
        digest = hashlib.sha256()
        total = 0
        for alphabet, top in _RANGES:
            for n in range(top + 1):
                for kind, enum in (("T", trees_of_size), ("F", forests_of_size)):
                    forests = enum(n, alphabet)
                    total += len(forests)
                    digest.update(f"{kind} {n}\n".encode("utf-8"))
                    for f in forests:
                        digest.update((f.key + "\n").encode("utf-8"))
        assert total == 459979
        assert digest.hexdigest() == "fbfb2f30ba18c53875063fa26eb3ab9b986d3b769b752ea6aa6f26a975200b19"

    def test_degenerate_sizes(self):
        ab = default_alphabet(("a", "b"))
        assert trees_of_size(-1, ab) == forests_of_size(-1, ab) == ()
        assert trees_of_size(0, ab) == ()
        assert forests_of_size(0, ab) == (EMPTY,)
        # the alphabet's order and repeats do not matter
        assert forests_of_size(4, ab) == forests_of_size(4, ab[::-1] + ab)


class TestOperandSweeps:
    @pytest.mark.parametrize(
        "arity, names, top",
        [(1, ("a", "b"), 5), (2, ("a", "b"), 5), (3, ("a", "b"), 3), (3, ("a",), 4)],
        ids=["1-ab-5", "2-ab-5", "3-ab-3", "3-a-4"],
    )
    @pytest.mark.parametrize("least", [0, 1])
    def test_operand_tuples_match_a_filtered_product(self, arity, names, top, least):
        # the filtered product of the pool lists each tuple once, with the
        # last operand fastest; a stable sort by sizes puts them in the order
        # the sweep promises
        alphabet = default_alphabet(names)
        pool = forests_up_to(top, alphabet, include_empty=least == 0)

        def sizes(t):
            return tuple(f.size for f in t)

        want: dict[int, list] = {total: [] for total in range(top + 1)}
        for t in itertools.product(pool, repeat=arity):
            want.get(sum(sizes(t)), []).append(t)
        seen = []
        for total, tuples in want.items():
            got = list(operand_tuples(lambda n: forests_of_size(n, alphabet), total, arity, least))
            assert got == sorted(tuples, key=sizes)
            seen.extend(got)
        assert any(EMPTY in t for t in seen) == (least == 0)

    def test_trees_with_empty_pair_counts(self):
        # the {a,b}-tree pairs with ∅ of the bialgebra sweep, by top degree
        ab = default_alphabet(("a", "b"))
        trees = lambda n: _trees_or_empty(n, ab)
        counts = [len(list(operand_tuples(trees, total, 2, least=0))) for total in range(6)]
        assert sum(counts[:5]) == 237
        assert sum(counts) == 985

    @pytest.mark.parametrize("names", [("a",), ("a", "b"), ("b", "a", "c")])
    def test_words_of_size(self, names):
        alphabet = default_alphabet(names)
        for n in range(5):
            words = words_of_size(n, alphabet)
            assert len(words) == len(alphabet) ** n
            assert words == tuple(Word(letters) for letters in itertools.product(alphabet, repeat=n))
