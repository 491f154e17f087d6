from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from forestshuffle.cli import main
from forestshuffle.forest import EMPTY, UNIT, Decoration, b_plus, concat, parse_forest
from forestshuffle.linalg import LinComb
from forestshuffle.rota_baxter import (
    forest_algebra,
    phi_bar,
    rb_residual,
    word_P,
    word_algebra,
    word_diamond,
    word_embedding,
)
from forestshuffle.sampling import default_alphabet, forests_of_size, random_forest
from forestshuffle.shuffle import diamond_product
from forestshuffle.words import Word

from conftest import nonempty_forests, weights

P = parse_forest
Q = Fraction
A, B, X, Y = (Decoration([s]) for s in "abxy")


def rb_json(capsys, *flags):
    code = main(["rb", "--json", *flags])
    return code, json.loads(capsys.readouterr().out)


class TestWordOperator:
    def test_prepends_unit(self):
        assert word_P(Word(())) == Word((UNIT,))
        assert word_P(Word((A,))) == Word((UNIT, A))
        assert word_P(word_P(Word((A,)))) == Word((UNIT, UNIT, A))


class TestWordDiamond:
    def test_single_letters(self):
        assert word_diamond(Word((A,)), Word((B,))) == LinComb.of(Word((A * B,)))

    def test_tail_against_empty_tail(self):
        assert word_diamond(Word((A, X)), Word((B,)), 0) == LinComb.of(Word((A * B, X)))

    def test_general_tails_shuffle(self):
        got = word_diamond(Word((A, X)), Word((B, Y)), 1)
        head = A * B
        assert got == LinComb(
            {
                Word((head, X, Y)): Q(1),
                Word((head, Y, X)): Q(1),
                Word((head, X * Y)): Q(1),
            }
        )

    def test_empty_operand_rejected(self):
        with pytest.raises(ValueError):
            word_diamond(Word(()), Word((A,)))


class TestForestOperator:
    def test_unit_root(self):
        assert b_plus(UNIT, EMPTY).as_forest() == P("1")
        assert b_plus(UNIT, P("a b")).as_forest() == P("1[a,b]")
        assert b_plus(UNIT, P("a")).as_forest() == P("1[a]")


class TestRotaBaxterIdentity:
    def test_word_algebra_exhaustive_small(self):
        alphabet = default_alphabet(("a", "b"))
        for lam in (Q(0), Q(1), Q(-1), Q(2, 3)):
            algebra = word_algebra(lam)
            for total in range(2, 5):
                for k in range(1, total):
                    for l1 in itertools.product(alphabet, repeat=k):
                        for l2 in itertools.product(alphabet, repeat=total - k):
                            x, y = LinComb.of(Word(l1)), LinComb.of(Word(l2))
                            assert rb_residual(algebra, x, y).is_zero

    def test_forest_algebra_exhaustive_small(self):
        alphabet = default_alphabet(("a", "b"))
        for lam in (Q(0), Q(1), Q(-1), Q(2, 3)):
            algebra = forest_algebra(lam)
            for total in range(2, 5):
                for k in range(1, total):
                    for f1 in forests_of_size(k, alphabet):
                        for f2 in forests_of_size(total - k, alphabet):
                            assert rb_residual(
                                algebra, LinComb.of(f1), LinComb.of(f2)
                            ).is_zero

    @given(f=nonempty_forests, g=nonempty_forests, lam=weights)
    @settings(max_examples=40, deadline=None)
    def test_forest_algebra_random(self, f, g, lam):
        algebra = forest_algebra(lam)
        assert rb_residual(algebra, LinComb.of(f), LinComb.of(g)).is_zero

    def test_corrupted_operator_fails_with_residual(self, capsys):
        # operands of 1 to 3 vertices
        code, report = rb_json(capsys, "--corrupt", "--samples", "20", "--max-degree", "4")
        assert code == 1
        assert report["failed"] == report["cases"] == 20
        assert all(f["expected"] == "0" and f["actual"] != "0" for f in report["failures"])

    def test_rb_counts_a_case_per_check(self, capsys):
        # identity checks one pair per sample; morphism checks the
        # intertwining and the diamond morphism on each sampled forest
        for check, cases in (("identity", 7), ("morphism", 14)):
            code, report = rb_json(capsys, "--check", check, "--lambda", "1", "--samples", "7")
            assert code == 0
            assert (report["cases"], report["failed"]) == (cases, 0)


class TestPhiBar:
    def test_single_vertex(self):
        alg = word_algebra(Q(0))
        assert phi_bar(P("a"), alg, word_embedding) == LinComb.of(Word((A,)))

    def test_operator_image(self):
        alg = word_algebra(Q(0))
        assert phi_bar(P("1[a]"), alg, word_embedding) == LinComb.of(Word((UNIT, A)))

    def test_cherry(self):
        alg = word_algebra(Q(0))
        assert phi_bar(P("a[b,c]"), alg, word_embedding) == LinComb.of(
            Word((A, Decoration(["b"]) * Decoration(["c"])))
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi_bar(EMPTY, word_algebra(Q(0)), word_embedding)

    def test_intertwines_operators(self):
        for lam in (Q(0), Q(1)):
            alg = word_algebra(lam)
            rng = random.Random(4)
            alphabet = default_alphabet(("a", "b"))
            for _ in range(60):
                f = random_forest(rng, rng.randint(1, 5), alphabet)
                assert phi_bar(b_plus(UNIT, f).as_forest(), alg, word_embedding) == alg.operator(
                    phi_bar(f, alg, word_embedding)
                )

    def test_diamond_and_concat_morphisms(self):
        rng = random.Random(8)
        alphabet = default_alphabet(("a", "b"))
        for lam in (Q(0), Q(1)):
            alg = word_algebra(lam)
            for _ in range(50):
                f = random_forest(rng, rng.randint(1, 4), alphabet)
                g = random_forest(rng, rng.randint(1, 3), alphabet)
                lhs = alg.product(
                    phi_bar(f, alg, word_embedding), phi_bar(g, alg, word_embedding)
                )
                image = LinComb.zero()
                for h, c in diamond_product(f, g, lam).items():
                    image = image + phi_bar(h, alg, word_embedding).scale(c)
                assert image == lhs
                assert phi_bar(concat(f, g), alg, word_embedding) == lhs

    def test_multiplicative_on_composite_decorations(self):
        alg = word_algebra(Q(0))
        composite = P("a*b")
        assert phi_bar(composite, alg, word_embedding) == LinComb.of(Word((A * B,)))

    @pytest.mark.parametrize("weights", [(0, 1), (1, 0)])
    def test_the_memo_keeps_each_target_apart(self, weights):
        import forestshuffle.rota_baxter as rb

        rb._phi_cache.clear()  # a pure memo: clearing it changes no result
        # (a, b) ◇ (b, a): the heads fuse at every weight, the tails only at
        # weight 1; in either order, the second call reads none of the first's
        fused = Word((A * B, A * B))
        for lam in weights:
            image = phi_bar(P("a[b] b[a]"), word_algebra(lam), word_embedding)
            assert image.coefficient(fused) == lam
            assert image.coefficient(Word((A * B, A, B))) == 1

    def test_one_target_per_weight(self):
        cherry = P("a[b,c]")
        alg = word_algebra(0)
        # the memo is keyed on the target, so equal weights share one object
        assert word_algebra(Q(0)) is alg and word_algebra(1) is not alg
        assert forest_algebra(0) is forest_algebra(Q(0))
        assert phi_bar(cherry, alg, word_embedding) == LinComb.of(Word((A, B * Decoration(["c"]))))

    def test_a_second_suite_run_adds_no_entry(self):
        import forestshuffle.rota_baxter as rb
        from forestshuffle.suites import SuiteConfig, run_suite

        rb._phi_cache.clear()  # a pure memo: clearing it changes no result
        lengths = []
        for _ in range(2):
            (report,) = run_suite("rota-baxter", SuiteConfig(max_degree=4, seed=0))
            assert not report.failures
            lengths.append(len(rb._phi_cache))
        # each run asks the factories for its algebras, so the second run
        # reads the first run's entries and writes none
        assert 0 < lengths[0] == lengths[1]
