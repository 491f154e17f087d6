from __future__ import annotations

import hashlib

from forestshuffle.forest import EMPTY, UNIT, Decoration
from forestshuffle.sampling import default_alphabet, forests_of_size, trees_of_size

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
