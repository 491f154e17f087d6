from __future__ import annotations

import gc
import itertools
import random
import re
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given

import forestshuffle.forest as forest
from forestshuffle.cli import main
from forestshuffle.dual import (
    admissible_families,
    contraction_fertility,
    contraction_product,
    family_count,
    is_admissible_direct,
)
from forestshuffle.forest import (
    EMPTY,
    MAX_TREE_DEPTH,
    UNIT,
    Decoration,
    Forest,
    GuardExceeded,
    RootedTree,
    TreeSyntaxError,
    _grafted,
    _Memo,
    _redecorate,
    b_plus,
    concat,
    graft_at,
    induced_subtree,
    leaf_refs,
    parse_forest,
    subtree_at,
    vertex_refs,
)
from forestshuffle.linalg import LinComb, TensorComb, tensor
from forestshuffle.primitives import decorate_distinct, is_primitive
from forestshuffle.sampling import default_alphabet, forests_up_to, random_forest
from forestshuffle.shuffle import _multiset_difference, _without
from forestshuffle.suites import SuiteConfig, run_suite
from forestshuffle.words import Word, is_linear, tree_to_word

from conftest import any_decorations, any_forests, any_trees, forests


def P(text: str) -> Forest:
    return parse_forest(text)


# three times the parser's MAX_TREE_DEPTH and past CPython's default
# recursion limit: the walks are iterative
DEEP_CHAIN_DEPTH = 1200


def deep_chain() -> RootedTree:
    """A chain of DEEP_CHAIN_DEPTH vertices decorated a and b, its leaf an a."""
    a, b = Decoration(["a"]), Decoration(["b"])
    chain = RootedTree(a)
    for i in range(DEEP_CHAIN_DEPTH - 1):
        chain = RootedTree(b if i % 2 else a, [chain])
    return chain


class TestDecoration:
    def test_unit(self):
        assert UNIT == Decoration()
        assert UNIT.key == "1"
        a = Decoration(["a"])
        assert a * UNIT == a == UNIT * a

    def test_product_is_multiset_union(self):
        a, b = Decoration(["a"]), Decoration(["b"])
        assert (a * b).key == "a*b"
        assert (a * a).key == "a*a"
        assert a * b == b * a

    @given(st1=forests)
    def test_associativity_probe(self, st1):
        # decoration product assoc on random triples drawn from tree labels
        decs = [t.decoration for t in st1.trees] or [UNIT]
        x, y, z = (decs * 3)[:3]
        assert (x * y) * z == x * (y * z)

    def test_rejects_reserved_atom(self):
        with pytest.raises(ValueError):
            Decoration(["1"])
        with pytest.raises(ValueError):
            Decoration(["a b"])

    def test_the_unit_sorts_by_its_key(self):
        # by key: "0" < "1"
        zero = Decoration(["0"])
        assert zero < UNIT and not UNIT < zero
        assert sorted([UNIT, zero]) == [zero, UNIT]

    def test_decorations_are_ordered_and_hashed_by_key(self):
        atoms = ["0", "0a", "10", "A", "_", "a", "a_", "b"]
        decs = [UNIT] + [Decoration(pair) for pair in itertools.combinations_with_replacement(atoms, 2)]
        decs += [Decoration([a]) for a in atoms]
        random.Random(0).shuffle(decs)
        assert [d.key for d in sorted(decs)] == sorted(d.key for d in decs)
        assert all(hash(d) == hash(d.key) for d in decs)


class TestParseRender:
    def test_direct_grammar(self):
        f = P("a[b,c]")
        t = f.single_tree()
        assert t.decoration.key == "a"
        assert [c.key for c in t.children] == ["b", "c"]

    def test_multiset_commutativity(self):
        assert P("c[b] a[d]") == P("a[d] c[b]")

    def test_children_sorted(self):
        assert P("a[c[x],b]").key == "a[b,c[x]]"

    def test_empty_forest(self):
        assert EMPTY.key == "()"
        assert P("()") == EMPTY

    def test_decoration_rendering(self):
        assert b_plus(Decoration(["a", "c"]), EMPTY).as_forest().key == "a*c"

    def test_tree_order(self):
        assert P("b a").key == "a b"

    def test_unit_atom(self):
        assert P("1[a]").single_tree().decoration == UNIT

    def test_syntax_errors(self):
        with pytest.raises(TreeSyntaxError):
            P("a[")
        with pytest.raises(TreeSyntaxError):
            P("a[b,,c]")
        with pytest.raises(TreeSyntaxError):
            P("")
        with pytest.raises(TreeSyntaxError):
            P("a*1")  # unit inside a composite
        with pytest.raises(TreeSyntaxError) as err:
            P("a[b c")
        assert err.value.position > 0

    # parse_forest returns a shared value's canonical text unparsed, so the
    # round trips run the grammar itself

    @given(f=any_forests)
    def test_roundtrip(self, f):
        assert forest._Parser(f.key).parse_forest() == f

    @staticmethod
    def assert_roundtrip(f: Forest) -> None:
        back = forest._Parser(f.key).parse_forest()
        assert back == f and back.key == f.key and back.size == f.size

    def test_roundtrip_at_the_depth_limit(self):
        a, b = Decoration(["a"]), Decoration(["b"])
        chain = comb = RootedTree(a)
        for i in range(MAX_TREE_DEPTH - 1):
            chain = RootedTree(b if i % 2 else a, [chain])
            comb = RootedTree(a, [comb, RootedTree(b)])  # a branch on every level
        for tree in (chain, comb):
            self.assert_roundtrip(tree.as_forest())
        assert chain.size == MAX_TREE_DEPTH and comb.size == 2 * MAX_TREE_DEPTH - 1

    def test_roundtrip_on_wide_input(self):
        rng = random.Random(5)
        decs = [Decoration(rng.choices(["a", "b", "c"], k=rng.randint(1, 3))) for _ in range(50)]
        # 500 children over 50 decorations: repeats, and leaves beside subtrees
        kids = [RootedTree(d, [RootedTree(decs[i % 7])] * (i % 3)) for i, d in enumerate(decs * 10)]
        wide = RootedTree(decs[0], kids)
        assert len(wide.children) == 500
        self.assert_roundtrip(wide.as_forest())
        # 600 trees with composite decorations, written out of order
        many = Forest([RootedTree(decs[i % 50], [RootedTree(decs[(7 * i) % 50])]) for i in range(600)])
        self.assert_roundtrip(many)
        assert parse_forest(" ".join(reversed(many.key.split(" ")))) == many

    def test_depth_past_the_limit_is_refused(self):
        deepest = "a[" * (MAX_TREE_DEPTH - 1) + "a" + "]" * (MAX_TREE_DEPTH - 1)
        assert parse_forest(deepest).size == MAX_TREE_DEPTH
        message = f"^tree depth is guarded to {MAX_TREE_DEPTH}, got {MAX_TREE_DEPTH + 1}$"
        with pytest.raises(GuardExceeded, match=message):
            parse_forest("a[" + deepest + "]")


class TestCanonicalKey:
    def test_planar_drawings_identify(self):
        assert P("a[b,c]").key == P("a[c,b]").key

    def test_distinct_roots_differ(self):
        assert P("a[b]").key != P("b[a]").key

    @given(f=forests)
    def test_permutation_invariance(self, f):
        rng = random.Random(0)

        def shuffled(node: RootedTree) -> RootedTree:
            kids = [shuffled(c) for c in node.children]
            rng.shuffle(kids)
            return RootedTree(node.decoration, kids)

        g = Forest([shuffled(t) for t in reversed(f.trees)])
        assert g.key == f.key


class TestKeyedValues:
    """Decoration, RootedTree, Forest and Word take their value rules from
    forest._Keyed."""

    def test_a_decoration_and_its_one_vertex_tree_differ(self):
        a = Decoration(["a"])
        assert a.key == RootedTree(a).key == "a"
        assert a != RootedTree(a) and RootedTree(a) != a

    def test_a_tree_and_its_one_tree_forest_differ(self):
        tree = P("a[b]").single_tree()
        assert tree.key == tree.as_forest().key
        assert tree != tree.as_forest() and tree.as_forest() != tree

    def test_the_empty_word_and_the_empty_forest_differ(self):
        assert Word(()).key == EMPTY.key == "()"
        assert Word(()) != EMPTY and EMPTY != Word(())
        assert Word(()) == Word([]) and hash(Word(())) == hash(Word([]))

    def test_reprs_name_the_class(self):
        a, b = Decoration(["a"]), Decoration(["b"])
        assert repr(P("a[b]").single_tree()) == "RootedTree('a[b]')"
        assert repr(P("b a")) == "Forest('a b')"
        assert repr(Word([a, b])) == "Word('(a b)')"
        assert repr(a * b) == "Decoration('a*b')" and repr(UNIT) == "Decoration('1')"

    @pytest.mark.parametrize(
        "value",
        [P("a[b]").single_tree(), P("a b"), Word([Decoration(["a"])]), Decoration(["a", "b"])],
        ids=repr,
    )
    def test_values_are_immutable(self, value):
        name = type(value).__name__
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.key = "b"
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.extra = 1
        assert value.key != "b"


class TestStructuralOps:
    def test_b_plus_counts(self):
        t = b_plus(Decoration(["a"]), P("b c"))
        assert t.size == 3
        assert t.as_forest() == P("a[b,c]")
        assert b_plus(UNIT, P("a[b]")).as_forest() == P("1[a[b]]")

    def test_concat_monoid_exhaustive(self):
        # emptied tables, so each value below of at most _MEMO_SIZE_LIMIT
        # vertices is the shared one of its key
        for table in _tables():
            table.clear()
        pool = forests_up_to(4, default_alphabet(("a", "b")))
        boundaries = set()
        for f in pool:
            assert concat(EMPTY, f) == f
            for g in pool:
                built = concat(f, g)
                assert_same_forest(built, Forest(f.trees + g.trees))
                if f.trees and g.trees:
                    # runs in order, reversed, interleaved, or meeting on an equal key
                    head, tail, g_head, g_tail = f.trees[0].key, f.trees[-1].key, g.trees[0].key, g.trees[-1].key
                    boundaries.add((tail <= g_head, g_tail <= head, tail == g_head or g_tail == head))
                    if built.size <= forest._MEMO_SIZE_LIMIT:
                        assert built is forest._forest_table[built.key]
                if f.size + g.size > 5:
                    continue
                assert concat(f, g) == concat(g, f)
                assert concat(f, g).size == f.size + g.size
        cases = {(True, False, False), (False, True, False), (False, False, False), (True, True, True)}
        assert cases | {(True, False, True), (False, True, True)} <= boundaries

    def test_graft_at(self):
        a = P("a").single_tree()
        assert graft_at(a, (), P("b")).as_forest() == P("a[b]")
        ab = P("a[b]").single_tree()
        assert graft_at(ab, (0,), P("c")).as_forest() == P("a[b[c]]")
        abc = P("a[b,c]").single_tree()
        # the leaf decorated b is child 0 in canonical order
        assert graft_at(abc, (0,), P("d[e]")).as_forest() == P("a[b[d[e]],c]")

    def test_graft_empty_is_identity(self):
        t = P("a[b[c],d]").single_tree()
        for ref in vertex_refs(t):
            assert graft_at(t, ref, EMPTY) == t

    def test_graft_invalid_ref(self):
        t = P("a[b]").single_tree()
        for ref in [(3,), (0, 0), (1,)]:
            message = rf"^vertex ref {re.escape(str(ref))} does not resolve in 'a\[b\]'$"
            for scion in (P("c"), EMPTY):
                with pytest.raises(ValueError, match=message):
                    graft_at(t, ref, scion)
            with pytest.raises(ValueError, match=message):
                subtree_at(t, ref)
            # the scion is checked before the ref
            with pytest.raises(ValueError, match="got a forest of 2 trees"):
                graft_at(t, ref, P("c d"))

    def test_induced_subtree(self):
        t = P("a[b[c],d]").single_tree()
        assert induced_subtree(t, vertex_refs(t)) == t.as_forest()
        assert induced_subtree(t, ()) == EMPTY
        # skip b: the edge a -> c bypasses it
        refs = {(), (0, 0), (1,)}
        assert induced_subtree(t, refs) == P("a[c,d]")
        # without a: two trees
        assert induced_subtree(t, refs - {()}) == P("c d")
        with pytest.raises(ValueError, match=r"vertex ref \(0, 1\) does not resolve in 'a\[b\[c\],d\]'"):
            induced_subtree(t, [(), (0, 1)])

    def test_leaf_refs(self):
        t = P("a[b[c],d]").single_tree()
        assert set(leaf_refs(t)) == {(0, 0), (1,)}

    def test_deep_chain_walks(self):
        chain = deep_chain()
        depth = DEEP_CHAIN_DEPTH
        refs = vertex_refs(chain)
        deepest = (0,) * (depth - 1)
        assert len(refs) == depth
        assert refs[0] == () and refs[-1] == deepest
        assert leaf_refs(chain) == (deepest,)
        grafted = graft_at(chain, deepest, P("c"))
        assert grafted.size == depth + 1
        assert subtree_at(grafted, deepest).key == "a[c]"
        assert induced_subtree(chain, refs) == chain.as_forest()
        # every other vertex from the root: the a's at even depth
        every_other = refs[::2]
        a = Decoration(["a"])
        expected = RootedTree(a)
        for _ in range(depth // 2 - 1):
            expected = RootedTree(a, [expected])
        assert induced_subtree(chain, every_other) == expected.as_forest()
        assert is_admissible_direct(chain, every_other)

    def test_deep_chain_visits_and_folds(self):
        # every whole-tree visit and fold outside forest.py reads its walk
        chain = deep_chain()
        depth = DEEP_CHAIN_DEPTH
        deepest = (0,) * (depth - 1)
        numbered = tree_to_word(decorate_distinct(chain).as_forest())
        assert [d.key for d in numbered.letters] == [f"v{i}" for i in range(depth)]
        assert not is_primitive(chain)
        assert is_linear(chain.as_forest())
        word = tree_to_word(chain.as_forest())
        assert len(word) == depth and word.letters[-1] == Decoration(["a"])
        assert family_count(chain) == 2**depth
        with pytest.raises(GuardExceeded):
            admissible_families(chain)
        # no full subtree but the leaf lies on one side, so nothing contracts
        cont, c = contraction_fertility(chain, [deepest])
        assert cont == _redecorate(chain, lambda _: UNIT) and c == 1 == contraction_product(chain, [deepest])


def assert_same_forest(built: Forest, reference: Forest) -> None:
    assert built.trees == reference.trees
    assert [t.key for t in built.trees] == [t.key for t in reference.trees]
    assert (built.key, built.size, hash(built)) == (reference.key, reference.size, hash(reference))
    assert built == reference


class TestDirectBuilders:
    """Every path that skips the sort agrees with the sorting constructor."""

    @given(d=any_decorations, f=any_forests)
    def test_b_plus(self, d, f):
        built, reference = b_plus(d, f), RootedTree(d, list(f.trees))
        assert built.decoration == reference.decoration
        assert built.children == reference.children
        assert [c.key for c in built.children] == [c.key for c in reference.children]
        assert (built.key, built.size, hash(built)) == (reference.key, reference.size, hash(reference))
        assert built == reference

    @given(t=any_trees)
    def test_as_forest(self, t):
        assert_same_forest(t.as_forest(), Forest([t]))

    @given(f=any_forests, g=any_forests)
    def test_concat(self, f, g):
        assert_same_forest(concat(f, g), Forest([*f.trees, *g.trees]))

    @given(f=any_forests)
    def test_without(self, f):
        for i in range(len(f.trees)):
            assert_same_forest(_without(f, i), Forest(f.trees[:i] + f.trees[i + 1 :]))

    @given(f=any_forests, g=any_forests)
    def test_multiset_difference(self, f, g):
        assert_same_forest(_multiset_difference(concat(f, g), g), Forest(list(f.trees)))

    def test_grafted_and_as_forest_share_the_tree_fields(self):
        rng = random.Random(3)
        alphabet = default_alphabet(("a", "b", "c"))
        cases = [(rng.choice(alphabet), random_forest(rng, rng.randint(1, 8), alphabet)) for _ in range(60)]
        cases += [(UNIT, EMPTY), (Decoration(["a"]), EMPTY), (Decoration(["a", "b"]), P("a*b[1,c] 1[a*b] c"))]
        chain = deep_chain()
        cases.append((Decoration(["b"]), chain.as_forest()))
        for d, f in cases:
            # the sorting constructors, one field at a time
            reference = Forest([RootedTree(d, list(f.trees))])
            for built in (_grafted(d, f), b_plus(d, f).as_forest()):
                assert_same_forest(built, reference)
                (tree,) = built.trees
                assert tree.decoration == d and tree.children == f.trees
                assert (tree.key, tree.size, hash(tree)) == (built.key, built.size, hash(built))
        grafted = _grafted(Decoration(["b"]), chain.as_forest())
        assert grafted.size == DEEP_CHAIN_DEPTH + 1 and grafted.trees[0].children == (chain,)

    def test_composite_and_unit_decorations(self):
        f = P("a*b[1,c] 1[a*b]")
        assert_same_forest(concat(f, P("1")), P("1 a*b[1,c] 1[a*b]"))
        assert b_plus(Decoration(["a", "b"]), f) == P("a*b[a*b[1,c],1[a*b]]").single_tree()
        assert_same_forest(_without(f, 0), P("a*b[1,c]"))


def _tables() -> tuple[_Memo, ...]:
    return forest._decoration_table, forest._tree_table, forest._forest_table


def _every_memo() -> list[_Memo]:
    import forestshuffle.coalgebra as coalgebra
    import forestshuffle.dual as dual
    import forestshuffle.shuffle as shuffle

    return [v for m in (forest, coalgebra, dual, shuffle) for v in vars(m).values() if isinstance(v, _Memo)]


def _chain(n: int) -> RootedTree:
    """The chain a[a[...[a]]] of n vertices, built bottom-up through the
    public constructor."""
    a = Decoration(["a"])
    tree = RootedTree(a)
    for _ in range(n - 1):
        tree = RootedTree(a, [tree])
    return tree


def _chain_text(n: int) -> str:
    """The canonical text of ``_chain(n)``."""
    return "[".join("a" * n) + "]" * (n - 1)


class TestInterning:
    """Values of at most _MEMO_SIZE_LIMIT vertices are hash-consed: every
    way of building one returns the same object.  Sharing is only an
    optimization, so larger values and emptied tables change no result."""

    @pytest.fixture(autouse=True)
    def empty_tables(self):
        # a full table shares no new value
        for table in _tables():
            table.clear()

    def test_small_values_are_one_object(self):
        a, b, c, d = (Decoration([x]) for x in "abcd")
        tree = P("a[b,c]").single_tree()
        assert RootedTree(a, [RootedTree(c), RootedTree(b)]) is tree
        assert b_plus(a, P("c b")) is tree
        assert graft_at(P("a[b]").single_tree(), (), RootedTree(c)) is tree
        assert tree.as_forest() is P("a[b,c]") is _grafted(a, P("b c"))
        for root in (a, b):
            for f in forests_up_to(4, default_alphabet(("a", "b"))):
                # the shared forest first, so _grafted has to return it
                shared = Forest([RootedTree(root, f.trees)])
                assert _grafted(root, f) is shared
        assert RootedTree(a, [RootedTree(b), RootedTree(c)]).as_forest() is Forest([tree])
        forest_ = P("a[b,c] d")
        assert P("d a[c,b]") is forest_
        assert Forest([RootedTree(d), tree]) is forest_
        assert concat(P("d"), P("a[c,b]")) is forest_ is concat(P("a[b,c]"), P("d"))
        assert forest_.trees[0] is tree and tree.decoration is a
        assert tree.children[0] is RootedTree(b) and tree.children[1] is P("c").single_tree()
        assert a * b is Decoration(["b", "a"]) is P("a*b").single_tree().decoration
        assert Decoration() is Decoration([]) and Decoration(["c", "a"]) * d is Decoration("dca")
        # the boundary: _MEMO_SIZE_LIMIT vertices, built by the parser and
        # bottom-up
        n = forest._MEMO_SIZE_LIMIT
        assert P(_chain_text(n)).single_tree() is _chain(n)
        assert P(_chain_text(n)) is _chain(n).as_forest() is _grafted(a, _chain(n - 1).as_forest())

    def test_larger_values_are_equal(self):
        # one vertex (or atom) over the boundary
        n = forest._MEMO_SIZE_LIMIT + 1
        over, edge = _chain_text(n), _chain_text(n - 1)
        star = "a[" + ",".join("a" * (n // 2 - 1)) + "]"  # two of them and b: n or n + 1 vertices
        a, b = Decoration(["a"]), P("b")
        pairs = [
            (P(over), _chain(n).as_forest()),
            (P(over), _grafted(a, _chain(n - 1).as_forest())),
            (concat(b, P(edge)), P(edge + " b")),
            (P(f"{star} {star} b"), concat(P(f"{star} b"), P(star))),
        ]
        for x, y in pairs:
            assert x.size > forest._MEMO_SIZE_LIMIT and x == y and hash(x) == hash(y) and x.key == y.key
            assert x.key not in forest._forest_table
        tree = P(over).single_tree()
        assert _chain(n) == tree and hash(_chain(n)) == hash(tree) and tree.key not in forest._tree_table
        many = Decoration("abcdefghijklmnopqrstuvwxyz"[:n])
        assert many == Decoration(reversed(many.atoms)) and many.atoms not in forest._decoration_table

    def test_tables_stay_bounded(self):
        for i in range(50_000):
            P(f"x{i}[y{i},z] z*x{i}")
            assert max(map(len, _tables())) <= forest._MEMO_ENTRIES

    def test_an_entry_leaves_a_full_table_whole(self, monkeypatch):
        from forestshuffle.coalgebra import trunk_coproduct

        monkeypatch.setattr(forest, "_MEMO_ENTRIES", 16)
        for x in "abcdefghijklmnopqrst":
            P(f"{x} {x}")
        table = forest._forest_table
        kept = dict(table)
        assert len(kept) == forest._MEMO_ENTRIES
        assert trunk_coproduct(P("a[b[c]]"))
        # a full table takes no entry and is never over the cap: no entry
        # empties it
        assert table == kept and all(table[key] is value for key, value in kept.items())

    def test_threads_build_equal_values(self, monkeypatch):
        # more threads than cores, switching often, build overlapping values
        # and fill the (shrunk) tables: a race may build a second, equal
        # object and overshoot a bound by one entry per thread, no more
        monkeypatch.setattr(forest, "_MEMO_ENTRIES", 256)
        texts = [f"x{i % 97}[y{i % 89},z] z*x{i % 83} w{i}" for i in range(3000)]
        built: list[list[Forest]] = [[] for _ in range(4)]
        sizes: list[int] = []

        def work(out: list[Forest]) -> None:
            for text in texts:
                out.append(P(text))
                sizes.append(max(map(len, _tables())))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in built:
            assert [f.key for f in out] == [f.key for f in built[0]] and len(out) == len(texts)
        assert built[0][-1] == P(texts[-1]) and max(sizes) <= forest._MEMO_ENTRIES + len(threads)

    def test_canonical_text_of_a_shared_value_is_not_parsed(self, monkeypatch):
        shared = [P(text) for text in ("a*b", "a*b[c] d", "1[a] q1_x[1,b]")]
        edge = _chain_text(forest._MEMO_SIZE_LIMIT)
        shared.append(_chain(forest._MEMO_SIZE_LIMIT).as_forest())

        def refuse(text):
            raise AssertionError(f"parsed {text!r}")

        monkeypatch.setattr(forest, "_Parser", refuse)
        for value in shared:
            assert P(value.key) is value
        assert P(edge) is shared[-1] and forest.parse_tree("a*b") is shared[0].single_tree()

    def test_other_text_runs_the_grammar(self, monkeypatch):
        shared = {text: P(text) for text in ("a b", "a[b,c]", "a")}
        over = _chain(forest._MEMO_SIZE_LIMIT + 1).as_forest()
        assert over.key not in forest._forest_table
        parsed = []
        parser = forest._Parser

        def counted(text):
            parsed.append(text)
            return parser(text)

        monkeypatch.setattr(forest, "_Parser", counted)
        # other spellings and extra whitespace of shared values
        for text, key in (("b a", "a b"), ("a[c,b]", "a[b,c]"), (" a", "a"), ("a  b", "a b")):
            assert P(text) is shared[key]
        assert parsed == ["b a", "a[c,b]", " a", "a  b"]
        # the canonical key of a value too large to share
        assert P(over.key) == over and parsed[-1] == over.key

    def test_malformed_text_fails_where_the_grammar_does(self):
        # shared values whose keys prefix the bad text; the positions are
        # the grammar's, as parse_forest reported them before it looked up
        P("a b")
        P("a[b]")
        cases = [("a b[", 4), ("a b,", 3), ("a[b", 3), ("a[b] ]", 5)]
        cases += [("a[b,,c]", 4), ("a*1", 3), ("  ", 2), ("a]", 1)]
        for text, position in cases:
            with pytest.raises(TreeSyntaxError) as err:
                P(text)
            assert err.value.position == position and str(err.value).endswith(f"(at position {position})")

    def test_every_shared_key_parses_to_its_value(self):
        run_suite("forest-core", SuiteConfig(max_degree=4))
        run_suite("shuffle", SuiteConfig(max_degree=4))
        assert len(forest._forest_table) > 100
        for key, value in list(forest._forest_table.items()):
            back = forest._Parser(key).parse_forest()
            assert back == value and back.key == key == value.key and back.size == value.size

    def test_output_does_not_depend_on_the_tables(self, capsys, monkeypatch):
        cleared = []

        def isenabled():
            # every public entry asks whether the collector is on first
            for table in _tables():
                table.clear()
            cleared.append(True)
            return gc.isenabled()

        outputs = []
        for emptied in (False, True):
            if emptied:
                shim = SimpleNamespace(isenabled=isenabled, enable=gc.enable, disable=gc.disable)
                monkeypatch.setattr(forest, "gc", shim)
            for memo in _every_memo():
                memo.clear()
            assert main(["verify", "--suite", "dual", "--json", "--max-degree", "4"]) == 0
            outputs.append(capsys.readouterr().out)
        assert cleared and outputs[0] == outputs[1]


class TestFreeModule:
    def test_coefficient_extraction(self):
        x = LinComb({P("a"): Fraction(2), P("b"): Fraction(3)})
        assert x.coefficient(P("a")) == 2
        assert x.coefficient(P("c")) == 0

    def test_pairing_is_kronecker(self):
        for f in (EMPTY, P("a"), P("a[b] c")):
            delta = LinComb.of(f)
            assert delta.coefficient(f) == 1
            assert delta.coefficient(P("z")) == 0

    def test_no_zero_terms(self):
        x = LinComb({P("a"): Fraction(1)}) - LinComb({P("a"): Fraction(1)})
        assert x.is_zero and len(x) == 0

    def test_tau23(self):
        t = tensor(
            LinComb.of(P("a")), LinComb.of(P("b")), LinComb.of(P("c")), LinComb.of(P("d"))
        )
        flipped = t.tau23()
        assert flipped.coefficient((P("a"), P("c"), P("b"), P("d"))) == 1

    def test_tensor_json_and_text(self):
        from forestshuffle.linalg import render_lincomb, tensor_json

        t = TensorComb({(P("a"), P("b")): Fraction(1, 2)})
        assert render_lincomb(t) == "1/2 (a) (x) (b)"
        assert tensor_json(t) == {
            "terms": [{"coeff": "1/2", "left": "a", "right": "b"}]
        }

    def test_lincomb_text(self):
        from forestshuffle.linalg import render_lincomb

        x = LinComb({P("a"): Fraction(1, 2), P("b"): Fraction(-2)})
        assert render_lincomb(x) == "1/2 a - 2 b"
        assert render_lincomb(LinComb.zero()) == "0"
