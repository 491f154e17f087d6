from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings

from forestshuffle.coalgebra import trunk_coproduct
from forestshuffle.dual import (
    FAMILY_GUARD,
    _dual_term_count,
    admissible_families,
    contraction_fertility,
    contraction_product,
    dual_combinatorial,
    dual_oracle,
    dual_oracle_brute,
    dual_recursive,
    family_count,
    graft_leaves,
    graft_linear,
    is_admissible_direct,
    reduced_dual,
)
from forestshuffle.forest import (
    EMPTY,
    Decoration,
    Forest,
    GuardExceeded,
    _preorder,
    _redecorate,
    graft_at,
    induced_subtree,
    leaf_refs,
    parse_forest,
    subtree_at,
    vertex_refs,
)
from forestshuffle.linalg import LinComb, TensorComb, bilinear
from forestshuffle.primitives import decorate_distinct, enumerate_shapes
from forestshuffle.sampling import (
    _forests_on_multiset,
    _trees_on_multiset,
    default_alphabet,
    forests_up_to,
    random_tree,
    trees_of_size,
    trees_up_to,
)
from forestshuffle.shuffle import shuffle_coefficient
from forestshuffle.suites import _relabel
from forestshuffle.words import Word, deshuffle, word_to_tree

from conftest import any_forests, any_trees

P = parse_forest
Q = Fraction


def T2(pairs):
    return TensorComb({(P(l), P(r)): Q(c) for l, r, c in pairs})


def distinct_forest_shapes(max_size):
    from forestshuffle.suites import _distinct_forest_shapes

    for n in range(max_size + 1):
        yield from _distinct_forest_shapes(n)


class TestAdmissibleFamilies:
    def test_family_unpacks_in_field_order(self):
        for fam in admissible_families(P("a[b[c],d]").single_tree()):
            gamma, t_gamma, t_complement, c_gamma = fam
            assert (gamma, t_gamma, t_complement, c_gamma) == (
                fam.gamma, fam.t_gamma, fam.t_complement, fam.c_gamma
            )

    def test_single_vertex(self):
        fams = admissible_families(P("a").single_tree())
        assert sorted((sorted(f.gamma), f.c_gamma) for f in fams) == [([], 1), ([()], 1)]

    def test_two_chain(self):
        fams = admissible_families(P("a[b]").single_tree())
        assert len(fams) == 4
        assert all(f.c_gamma == 1 for f in fams)
        assert {frozenset(f.gamma) for f in fams} == {
            frozenset(),
            frozenset({()}),
            frozenset({(0,)}),
            frozenset({(), (0,)}),
        }

    def test_four_vertex_example(self):
        t = P("a[b[c],d]").single_tree()
        fams = admissible_families(t)
        got = {frozenset(f.gamma): f.c_gamma for f in fams}
        v = frozenset(vertex_refs(t))
        expected = {
            frozenset(): 1,
            v: 1,
            frozenset({(0,)}): 2,          # the vertex decorated b
            frozenset({(0, 0)}): 2,        # the vertex decorated c
            v - frozenset({(0,)}): 2,
            v - frozenset({(0, 0)}): 2,
        }
        assert got == expected

    def test_fertility_gain_is_rejected(self):
        # {s,x,y} induces s[x,y] and its complement induces r[u,v]: both
        # trees, but r (one child in the ambient tree) would gain a second
        # child.  The tensor r[u,v] (x) s[x,y] never occurs in the dual
        # coproduct, so the set must not count as admissible.
        t = P("r[s[u[x],v[y]]]").single_tree()
        by_atom = {subtree_at(t, ref).decoration.key: ref for ref in vertex_refs(t)}
        gamma = frozenset(by_atom[x] for x in "sxy")
        assert induced_subtree(t, gamma) == P("s[x,y]")
        complement = frozenset(vertex_refs(t)) - gamma
        assert induced_subtree(t, complement) == P("r[u,v]")
        assert not is_admissible_direct(t, gamma)
        assert gamma not in {frozenset(f.gamma) for f in admissible_families(t)}
        assert shuffle_coefficient(t.as_forest(), P("r[u,v]"), P("s[x,y]")) == 0
        assert (P("r[u,v]"), P("s[x,y]")) not in dual_recursive(t.as_forest()).support()

    def test_lemma_matches_direct_definition(self):
        alphabet = default_alphabet(("a", "b"))
        for tf in trees_up_to(6, alphabet):
            t = tf.single_tree()
            refs = list(vertex_refs(t))
            direct = {}
            for r in range(len(refs) + 1):
                for sub in itertools.combinations(refs, r):
                    gamma = frozenset(sub)
                    if is_admissible_direct(t, gamma):
                        direct[gamma] = contraction_fertility(t, gamma)[1]
            via_lemma = {frozenset(f.gamma): f.c_gamma for f in admissible_families(t)}
            assert via_lemma == direct, t.key

    @settings(max_examples=200, deadline=None)
    @given(any_trees)
    def test_lemma_matches_direct_definition_on_any_tree(self, t):
        # unit, composite and 3-atom decorations, on every vertex subset
        assume(t.size <= 10)
        walk = _preorder(t)
        refs = [ref for ref, _ in walk]
        direct = {}
        for r in range(len(refs) + 1):
            for gamma in map(frozenset, itertools.combinations(refs, r)):
                if is_admissible_direct(t, gamma, walk):
                    direct[gamma] = contraction_product(t, gamma, walk)
        assert direct == {f.gamma: f.c_gamma for f in admissible_families(t)}, t.key

    def test_complement_closure(self):
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            t = tf.single_tree()
            refs = frozenset(vertex_refs(t))
            by_set = {frozenset(f.gamma): f.c_gamma for f in admissible_families(t)}
            for gamma, c in by_set.items():
                assert by_set[refs - gamma] == c

    def test_sides_are_trees(self):
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            for fam in admissible_families(tf.single_tree()):
                assert fam.t_gamma.is_connected
                assert fam.t_complement.is_connected

    @staticmethod
    def assert_sides_are_induced(t):
        refs = frozenset(vertex_refs(t))
        fams = admissible_families(t)
        for fam in fams:
            assert fam.t_gamma == induced_subtree(t, fam.gamma), (t.key, sorted(fam.gamma))
            assert fam.t_complement == induced_subtree(t, refs - fam.gamma), (t.key, sorted(fam.gamma))
        assert family_count(t) == len(fams)

    def test_sides_are_the_induced_subtrees(self):
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            self.assert_sides_are_induced(tf.single_tree())

    @settings(max_examples=200, deadline=None)
    @given(any_trees)
    def test_sides_are_the_induced_subtrees_on_any_tree(self, t):
        self.assert_sides_are_induced(t)

    def test_guard(self):
        def linear(n):
            return P("a[" * (n - 1) + "a" + "]" * (n - 1)).single_tree()

        assert family_count(linear(16)) == FAMILY_GUARD
        with pytest.raises(GuardExceeded, match="admissible family count is guarded to 65536, got 131072"):
            admissible_families(linear(17))
        with pytest.raises(GuardExceeded):
            dual_combinatorial(Forest([linear(30), P("b").single_tree()]))

    def test_family_count_is_at_most_two_to_the_size(self):
        # the bound that lets a tree of at most 16 vertices skip the count;
        # only a chain reaches it
        for tf in trees_up_to(7, default_alphabet(("a", "b"))):
            t = tf.single_tree()
            chain = all(len(node.children) <= 1 for _, node in _preorder(t))
            assert family_count(t) <= 2**t.size
            assert (family_count(t) == 2**t.size) == chain, t.key

    def test_only_a_tree_past_the_size_bound_is_counted(self, monkeypatch):
        import forestshuffle.dual as dual

        counted = []
        monkeypatch.setattr(dual, "family_count", lambda t: counted.append(t.size) or 2)
        for n in (16, 17):
            # a star: a root over n - 1 leaves has only its two boundary families
            star = P("a[" + ",".join(["b"] * (n - 1)) + "]").single_tree()
            assert len(admissible_families(star)) == 2
        assert counted == [FAMILY_GUARD.bit_length()] == [17]

    def test_families_walk_their_tree_once(self, monkeypatch):
        import forestshuffle.dual as dual

        walked = []
        walk = dual._preorder
        monkeypatch.setattr(dual, "_preorder", lambda t: walked.append(t.key) or walk(t))
        tree = P("a[b[c[a]],b[a,c[a,b]]]").single_tree()
        fams = admissible_families(tree)
        assert walked == [tree.key] and len(fams) == family_count(tree)

    def test_equal_components_are_enumerated_once(self, monkeypatch):
        import forestshuffle.dual as dual

        enumerated = []
        enumerate_families = dual._checked_families

        def counted(tree):
            enumerated.append(tree.key)
            return enumerate_families(tree)

        monkeypatch.setattr(dual, "_checked_families", counted)
        f = P("a[b] a[b] a[b] b[a,a] b[a,a] c")
        assert dual_combinatorial(f) == dual_recursive(f)
        assert enumerated == ["a[b]", "b[a,a]", "c"]

    def test_dual_term_count(self):
        # the terms both formulas sum before they merge: on distinct
        # decorations none merge, and the count depends only on the shape
        from forestshuffle.suites import _relabel

        for f in forests_up_to(6, default_alphabet(("a",))):
            distinct, _ = _relabel(f.trees)
            count = _dual_term_count(f)
            assert count == _dual_term_count(distinct) >= len(dual_recursive(f))
            assert count == len(dual_recursive(distinct)) == len(dual_combinatorial(distinct))


class TestIntegerBoundary:
    """The dual routes carry integer coefficients and convert to Fraction
    once, at each public entry."""

    FORESTS = ["()", "a", "a[b,c[a]]", "a[b] a[b]", "a[b,c[a]] b c[a]", "a*b[1] c[a,a]"]

    # sha256 of every family's gamma, sides and c_gamma, in order, over the
    # {a,b}-trees of at most 6 vertices; recorded from the enumeration that
    # built a vertex set at every level
    FAMILY_DIGEST = "86800a5edc28c86ad148fe7c041a4c5a88d1fa838edaa099dd4dbd45a9efcc05"

    def test_fraction_coefficients_and_an_integer_memo(self):
        import forestshuffle.dual as dual

        dual._dual_cache.clear()  # a pure memo: clearing it changes no result
        for text in self.FORESTS:
            f = P(text)
            for route in (dual_recursive, dual_combinatorial):
                result = route(f)
                assert not result.is_zero
                assert all(type(c) is Fraction and c > 0 for _, c in result.items())
        assert dual._dual_cache
        for nums, den in dual._dual_cache.values():
            # the formulas' coefficients: positive integers over denominator 1
            assert type(nums) is dict and den == 1
            assert all(type(c) is int and c > 0 for c in nums.values())

    def test_family_digest(self):
        import hashlib

        digest = hashlib.sha256()
        count = 0
        for tf in trees_up_to(6, default_alphabet(("a", "b"))):
            for fam in admissible_families(tf.single_tree()):
                row = (sorted(fam.gamma), fam.t_gamma.key, fam.t_complement.key, fam.c_gamma)
                digest.update(f"{row}\n".encode())
                count += 1
        assert (count, digest.hexdigest()) == (18844, self.FAMILY_DIGEST)


class TestContraction:
    def test_empty_family_contracts_to_point(self):
        cont, c = contraction_fertility(P("a[b[c],d]").single_tree(), set())
        assert cont.size == 1 and c == 1

    def test_inner_leaf_family(self):
        cont, c = contraction_fertility(P("a[b[c],d]").single_tree(), {(0, 0)})
        assert cont.size == 4 and c == 2

    def test_twenty_vertex_worked_example(self):
        t = P("a[b[c[d[g,h,i,j],e,f[k[l,m[n[o[r[s,t]],p,q]]]]]]]").single_tree()
        assert t.size == 20
        by_atom = {subtree_at(t, r).decoration.key: r for r in vertex_refs(t)}
        gamma = frozenset(by_atom[x] for x in "a c d e g h i j k l m r s t".split())
        assert is_admissible_direct(t, gamma)
        assert induced_subtree(t, gamma) == P("a[c[d[g,h,i,j],e,k[l,m[r[s,t]]]]]")
        complement = frozenset(vertex_refs(t)) - gamma
        assert induced_subtree(t, complement) == P("b[f[n[o,p,q]]]")
        cont, c = contraction_fertility(t, gamma)
        assert cont.size == 14
        assert c == 18
        assert contraction_product(t, gamma) == 18
        via_lemma = {frozenset(f.gamma): f.c_gamma for f in admissible_families(t)}
        assert via_lemma[gamma] == 18

    def test_product_without_the_tree_on_every_vertex_subset(self):
        # every subset, not only the families, and through a given walk
        for tf in trees_up_to(5, default_alphabet(("a", "b"))):
            t = tf.single_tree()
            walk = _preorder(t)
            refs = [ref for ref, _ in walk]
            for r in range(len(refs) + 1):
                for gamma in map(frozenset, itertools.combinations(refs, r)):
                    expected = contraction_fertility(t, gamma)[1]
                    assert contraction_product(t, gamma) == contraction_product(t, gamma, walk) == expected
                    assert is_admissible_direct(t, gamma, walk) == is_admissible_direct(t, gamma)

    def test_direct_check_on_a_deep_comb(self):
        # a[a[...,b],b], a branch on every level: the complement of the root
        # has two roots, found without recursing
        depth = 400
        comb = P("a[" * (depth - 1) + "a" + ",b]" * (depth - 1)).single_tree()
        assert comb.size == 2 * depth - 1
        assert not is_admissible_direct(comb, {()})
        assert is_admissible_direct(comb, vertex_refs(comb))

    def test_refs_that_do_not_resolve(self):
        t = P("a[b]").single_tree()
        for check in (contraction_fertility, contraction_product, is_admissible_direct):
            with pytest.raises(ValueError, match="do not resolve"):
                check(t, {(1,)})


class TestDualRecursive:
    def test_single_vertex(self):
        assert dual_recursive(P("a")) == T2([("a", "()", 1), ("()", "a", 1)])

    def test_two_chain(self):
        assert dual_recursive(P("a[b]")) == T2(
            [("a[b]", "()", 1), ("()", "a[b]", 1), ("a", "b", 1), ("b", "a", 1)]
        )

    def test_two_component_forest(self):
        assert dual_recursive(P("b[c] d")) == T2(
            [
                ("b[c] d", "()", 1),
                ("()", "b[c] d", 1),
                ("b", "c d", 2),
                ("b d", "c", 2),
                ("c", "b d", 2),
                ("c d", "b", 2),
            ]
        )

    def test_four_vertex_example_corrected(self):
        # a tempting wrong value pairs a[b,c] with d; removing the leaf d
        # would drop the root's fertility, so only b and c are removable
        assert dual_recursive(P("a[b[c],d]")) == T2(
            [
                ("a[b[c],d]", "()", 1),
                ("()", "a[b[c],d]", 1),
                ("a[b,d]", "c", 2),
                ("a[c,d]", "b", 2),
                ("b", "a[c,d]", 2),
                ("c", "a[b,d]", 2),
            ]
        )

    def test_three_component_forest_with_nested_tree(self):
        # only the component with a fertility-1 vertex has a nonzero
        # reduced part; the split coefficients are (|I|+1)(3-|I|)
        F = P("a[b,c] d e[f[g,h]]")
        assert dual_recursive(F) == T2(
            [
                ("a[b,c] d e[f[g,h]]", "()", 1),
                ("()", "a[b,c] d e[f[g,h]]", 1),
                ("e", "a[b,c] d f[g,h]", 3),
                ("f[g,h]", "a[b,c] d e", 3),
                ("a[b,c] e", "d f[g,h]", 4),
                ("a[b,c] f[g,h]", "d e", 4),
                ("d e", "a[b,c] f[g,h]", 4),
                ("d f[g,h]", "a[b,c] e", 4),
                ("a[b,c] d e", "f[g,h]", 3),
                ("a[b,c] d f[g,h]", "e", 3),
            ]
        )

    def test_reduced(self):
        assert reduced_dual(P("a")).is_zero
        assert reduced_dual(P("a[b]")) == T2([("a", "b", 1), ("b", "a", 1)])
        assert reduced_dual(P("a[b,c]")).is_zero

    def test_matches_combinatorial_distinct_shapes(self):
        for f in distinct_forest_shapes(7):
            assert dual_recursive(f) == dual_combinatorial(f), f.key

    def test_matches_combinatorial_with_repeated_decorations(self):
        for f in forests_up_to(5, default_alphabet(("a", "b"))):
            assert dual_recursive(f) == dual_combinatorial(f), f.key

    @pytest.mark.parametrize("route", [dual_recursive, dual_combinatorial])
    def test_commutes_with_relabelling(self, route):
        # the route's terms on the distinctly relabelled forest, mapped back
        # leg by leg and summed, are its terms on the forest itself.  A forest
        # rule that split equal components apart fewer times than distinct
        # ones fails only here: both routes share that rule, and the σ
        # reference relabels before it calls dual_recursive
        def back_to(leg, back):
            return Forest([_redecorate(t, back.__getitem__) for t in leg.trees])

        for f in forests_up_to(5, default_alphabet(("a", "b"))):
            g, back = _relabel(f.trees)
            projected = TensorComb.sum_of(
                ((back_to(x, back), back_to(y, back)), c) for (x, y), c in route(g).items()
            )
            assert route(f) == projected, f.key

    def test_cocommutative(self):
        for f in distinct_forest_shapes(6):
            d = dual_recursive(f)
            assert d == d.flip(), f.key

    def test_linear_trees_match_word_deshuffle(self):
        alphabet = default_alphabet(("a", "b"))
        for n in range(5):
            for letters in itertools.product(alphabet, repeat=n):
                w = Word(letters)
                expected = TensorComb(
                    {
                        (word_to_tree(x), word_to_tree(y)): c
                        for (x, y), c in deshuffle(w).items()
                    },
                )
                assert dual_recursive(word_to_tree(w)) == expected


class TestDualOracle:
    def test_linear_tree_agrees_with_recursive(self):
        assert dual_oracle(P("a[b]")) == dual_recursive(P("a[b]"))

    def test_strict_duality_coefficient(self):
        assert dual_oracle(P("b[c] d")).coefficient((P("b"), P("c d"))) == Q(1, 2)
        # that value is forced by <F, f1 shuffle f2>
        assert shuffle_coefficient(P("b[c] d"), P("b"), P("c d")) == Q(1, 2)

    def test_support_matches_recursive(self):
        for f in distinct_forest_shapes(6):
            assert dual_oracle(f).support() == dual_recursive(f).support(), f.key

    def test_inverse_coefficient_relation(self):
        # oracle(F1⊗F2) = σ(F1)σ(F2)/σ(F) times the reciprocal-coefficient
        # form (c -> 1/c, alpha -> 1/alpha), repeated components included
        from forestshuffle.suites import _sigma_refined_oracle, _symmetry

        for f in distinct_forest_shapes(6):
            assert dual_oracle(f) == _sigma_refined_oracle(f), f.key

        def reciprocal_form(f):
            # the σ-refined formula with the σ factors taken out again
            sigma_f = _symmetry(f.trees)
            return TensorComb(
                {
                    (a, b): c * sigma_f / (_symmetry(a.trees) * _symmetry(b.trees))
                    for (a, b), c in _sigma_refined_oracle(f).items()
                },
            )

        two_atoms = list(forests_up_to(5, default_alphabet(("a", "b"))))
        assert len(two_atoms) == 601
        for f in two_atoms:
            assert dual_oracle(f) == _sigma_refined_oracle(f), f.key
        # negative control: without σ the relation fails on repeated components
        assert sum(dual_oracle(f) != reciprocal_form(f) for f in two_atoms) == 272

        f, term = P("a[b] a[b]"), (P("a"), P("a[b] b"))
        assert dual_oracle(f).coefficient(term) == Q(1, 2)
        assert reciprocal_form(f).coefficient(term) == 1
        assert _sigma_refined_oracle(f).coefficient(term) == Q(1, 2)

    def test_guard(self):
        big = decorate_distinct(enumerate_shapes(9)[0])
        with pytest.raises(GuardExceeded):
            dual_oracle(big.as_forest())

    # the transpose against the brute pairing, coefficients included
    def test_transpose_equals_brute_on_two_atoms(self):
        for f in forests_up_to(5, default_alphabet(("a", "b"))):
            assert dual_oracle(f) == dual_oracle_brute(f), f.key

    def test_transpose_equals_brute_on_distinct_shapes(self):
        for f in distinct_forest_shapes(6):
            assert dual_oracle(f) == dual_oracle_brute(f), f.key

    @settings(max_examples=100, deadline=None)
    @given(any_forests.filter(lambda f: f.size <= 6))
    def test_transpose_equals_brute_on_any_forest(self, f):
        assert dual_oracle(f) == dual_oracle_brute(f)

    def test_brute_guard(self):
        big = decorate_distinct(enumerate_shapes(9)[0])
        with pytest.raises(GuardExceeded):
            dual_oracle_brute(big.as_forest())

    def test_basis_enumerations(self):
        a, b = Decoration(["a"]), Decoration(["b"])
        assert len(_trees_on_multiset((a,))) == 1
        assert len(_trees_on_multiset((a, b))) == 2
        assert len(_forests_on_multiset((a, b))) == 3
        assert {f.key for f in _forests_on_multiset((a, a))} == {"a a", "a[a]"}


class TestGrafting:
    def test_unit_base(self):
        assert graft_leaves(EMPTY, P("a")) == LinComb.of(P("a"))
        assert graft_linear(EMPTY, P("a")) == LinComb.of(P("a"))

    def test_single_leaf(self):
        assert graft_leaves(P("a"), P("b")) == LinComb.of(P("a[b]"))

    def test_scion_is_a_tree_or_empty(self):
        t = P("a[b]").single_tree()
        assert graft_at(t, (0,), P("c")) == graft_at(t, (0,), P("c").single_tree())
        assert graft_at(t, (0,), EMPTY) == t
        for scion in ("c c", "c d[a] e"):
            n = len(P(scion).trees)
            with pytest.raises(ValueError, match=f"tree, a one-tree forest or the empty forest, got a forest of {n} trees"):
                graft_at(t, (0,), P(scion))
            # the empty base and a multi-leaf base under graft_linear graft
            # nothing, yet the scion is checked on them too
            for op, base in ((graft_leaves, "a"), (graft_leaves, "()"), (graft_linear, "()"), (graft_linear, "a[b,c]")):
                with pytest.raises(ValueError, match=f"forest of {n} trees"):
                    op(P(base), P(scion))

    def test_two_leaves(self):
        assert graft_leaves(P("a[b,c]"), P("d")) == LinComb(
            {P("a[b[d],c]"): Q(1), P("a[b,c[d]]"): Q(1)}
        )

    def test_repeated_leaves_accumulate(self):
        got = graft_leaves(P("a[b,b]"), P("c"))
        assert got == LinComb({P("a[b,b[c]]"): Q(2)})

    def test_linear_variant(self):
        assert graft_linear(P("a[b,c]"), P("d")).is_zero
        assert graft_linear(P("a[b]"), P("c")) == LinComb.of(P("a[b[c]]"))
        assert graft_linear(P("a"), P("b[c,d]")) == LinComb.of(P("a[b[c,d]]"))

    def test_pairing_with_trunk_coproduct(self):
        # <T1 linear-graft T2, T> equals the coefficient of T1 (x) T2 in the
        # trunk coproduct of T, exhaustively in degree <= 6
        alphabet = default_alphabet(("a", "b"))
        pool = {0: [EMPTY]}
        for s in range(1, 7):
            pool[s] = list(trees_of_size(s, alphabet))
        for n in range(1, 7):
            accumulated: dict[Forest, dict[tuple[Forest, Forest], Fraction]] = {}
            for k in range(n + 1):
                for t1 in pool[k]:
                    for t2 in pool[n - k]:
                        for f, c in graft_linear(t1, t2).items():
                            accumulated.setdefault(f, {})
                            key = (t1, t2)
                            accumulated[f][key] = accumulated[f].get(key, Q(0)) + c
            for tf in pool[n]:
                got = {k: v for k, v in accumulated.get(tf, {}).items() if v}
                assert got == dict(trunk_coproduct(tf).items()), tf.key

    def test_pre_lie_identities(self):
        rng = random.Random(9)
        alphabet = default_alphabet(("a", "b"))
        for _ in range(120):
            x = LinComb.of(random_tree(rng, rng.randint(1, 3), alphabet))
            y = LinComb.of(random_tree(rng, rng.randint(1, 3), alphabet))
            z = LinComb.of(random_tree(rng, rng.randint(1, 3), alphabet))
            op = partial(bilinear, graft_linear)
            assoc = op(op(x, y), z) - op(x, op(y, z))
            assert assoc == op(op(y, x), z) - op(y, op(x, z))
            assert assoc == op(op(x, z), y) - op(x, op(z, y))
            lop = partial(bilinear, graft_leaves)
            left = lop(lop(x, y), z) - lop(x, lop(y, z))
            assert left == lop(lop(x, z), y) - lop(x, lop(z, y))

    def test_leaf_grafting_never_primitive(self):
        rng = random.Random(3)
        alphabet = default_alphabet(("a", "b"))
        for _ in range(40):
            base = random_tree(rng, rng.randint(1, 4), alphabet)
            scion = random_tree(rng, rng.randint(1, 6 - base.size or 1), alphabet)
            t = base.single_tree()
            ref = rng.choice(leaf_refs(t))
            grafted = graft_at(t, ref, scion)
            assert shuffle_coefficient(grafted.as_forest(), base, scion) != 0


class TestOraclePrimitivity:
    def test_agrees_with_structure_small(self):
        from forestshuffle.primitives import is_primitive

        # primitive for the brute: only the two trivial terms T⊗∅ and ∅⊗T
        for n in range(1, 6):
            for shape in enumerate_shapes(n):
                t = decorate_distinct(shape)
                assert (len(dual_oracle_brute(t.as_forest())) == 2) == is_primitive(t)
