"""A wrong value in a recursion's memo is caught by a route that does not
read it.

The admissible families, the transpose of the shuffle and the induced map
``phi_bar`` keep their sub-results in a ``forest._Memo``.  Each test below
plants one wrong value under a key that a check reads, and asserts that
the check's independent side then records failures: the recursive formula
for the families, the brute-force pairing for the transpose, and a value
written out by hand for ``phi_bar``.
"""

from __future__ import annotations

import forestshuffle.dual as dual
import forestshuffle.rota_baxter as rb
from forestshuffle.forest import Decoration, parse_forest
from forestshuffle.linalg import LinComb
from forestshuffle.suites import SuiteConfig, run_suite
from forestshuffle.words import Word

P = parse_forest
A, B, C = (Decoration([s]) for s in "abc")


def _failed_families(suite: str, max_degree: int = 4) -> dict[str, int]:
    (report,) = run_suite(suite, SuiteConfig(max_degree=max_degree, seed=0))
    counts: dict[str, int] = {}
    for failure in report.failures:
        counts[failure.case] = counts.get(failure.case, 0) + 1
    return counts


def test_a_wrong_family_entry_fails_recursive_against_combinatorial(monkeypatch):
    # a 2-atom tree: the distinct-atom shapes are decorated x0, x1, ...
    tree = P("a[a]").single_tree()
    real = dual._family_sets(tree)
    assert type(real) is tuple  # a shared hit that no caller can change
    assert any(not (g.is_empty or h.is_empty) for _, g, h, _ in real)
    wrong = tuple((mask, g, h, 2 * c) for mask, g, h, c in real)
    monkeypatch.setitem(dual._family_cache, tree.key, wrong)
    # the asked tree's own families are computed, not read: a[a]'s entry
    # is read by the trees above it, such as b[a[a]]
    assert dual._checked_families(tree) == real
    assert dual._family_sets(tree) is wrong
    failed = _failed_families("dual")
    assert failed["recursive == combinatorial (2 atoms)"] > 0
    assert "recursive == combinatorial (distinct atoms)" not in failed


def test_a_wrong_transpose_entry_fails_the_brute_oracle(monkeypatch):
    forest = P("a[a]")
    nums, den = dual._transpose(forest)
    wrong = {pair: 2 * c for pair, c in nums.items()}, den
    monkeypatch.setitem(dual._transpose_cache, forest.key, wrong)
    # the asked forest's own transpose is computed, not read: a[a]'s entry
    # is read by the forests above it, such as b[a[a]]
    assert dual.dual_oracle(forest) == dual.dual_oracle_brute(forest)
    above = P("b[a[a]]")
    assert dual.dual_oracle(above) != dual.dual_oracle_brute(above)
    failed = _failed_families("dual")
    assert failed["transpose == brute oracle (2 atoms)"] > 0
    assert "transpose == brute oracle (distinct atoms)" not in failed


def test_a_wrong_phi_bar_entry_fails_a_value_check(monkeypatch):
    words = rb.word_algebra(0)
    cherry = P("a[b,c]")
    right = LinComb.of(Word((A, B * C)))
    assert rb.phi_bar(cherry, words, rb.word_embedding) == right
    # the body b c maps to the one fused letter b*c; plant the word b c,
    # and drop the cherry's own entry so that it is rebuilt from the body
    monkeypatch.setitem(rb._phi_cache, (P("b c").key, words, rb.word_embedding), LinComb.of(Word((B, C))))
    monkeypatch.delitem(rb._phi_cache, (cherry.key, words, rb.word_embedding), raising=False)
    assert rb.phi_bar(cherry, words, rb.word_embedding) == LinComb.of(Word((A, B, C)))
    assert rb.phi_bar(cherry, words, rb.word_embedding) != right
