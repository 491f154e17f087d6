"""Batch verification suites behind the ``verify`` CLI verb.

Each suite turns one module's invariants into individually counted cases.
Reports are deterministic for a fixed seed; the wall-clock duration is kept
out of the JSON form so that identical argv+seed give byte-identical output.

A suite may reuse, within one run, a value it computed itself (a table
local to the suite function, gone when it returns), but never a value of
the route it checks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .coalgebra import antipode_square_residual, counit, trunk_coproduct
from .dual import (
    admissible_families,
    contraction_product,
    dual_combinatorial,
    dual_oracle,
    dual_oracle_brute,
    dual_recursive,
    graft_leaves,
    graft_linear,
    is_admissible_direct,
    reduced_dual,
)
from .forest import (
    EMPTY,
    Decoration,
    Forest,
    RootedTree,
    _fold,
    _gc_paused,
    _Parser,
    _preorder,
    _redecorate,
    concat,
    graft_at,
    induced_subtree,
    leaf_refs,
    parse_forest,
    vertex_refs,
)
from .linalg import LinComb, TensorComb, bilinear, render_lincomb, tensor, tensor_map_basis
from .primitives import (
    count_shapes,
    decorate_distinct,
    enumerate_shapes,
    is_primitive,
    primitive_count_brute,
    primitive_count_recursive,
)
from .rota_baxter import (
    corrupted_forest_algebra,
    diamond_morphism_sides,
    forest_algebra,
    intertwining_sides,
    phi_bar,
    rb_residual,
    word_algebra,
    word_embedding,
)
from .sampling import (
    default_alphabet,
    forests_of_size,
    forests_up_to,
    operand_tuples,
    random_forest,
    random_tree,
    random_word,
    trees_of_size,
    trees_up_to,
    words_of_size,
)
from .shuffle import (
    diamond_product,
    find_nonassociativity_witness,
    forest_shuffle,
    shuffle_coefficient,
    star_product,
)
from .words import deconcatenation, deshuffle, is_linear, word_shuffle, word_shuffle_brute, word_to_tree

__all__ = ["SuiteConfig", "SuiteReport", "CaseFailure", "SUITES", "run_suite"]

WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))


@dataclass(frozen=True)
class SuiteConfig:
    max_degree: int | None = None
    samples: int | None = None
    seed: int = 0

    def degree(self, stated: int) -> int:
        return stated if self.max_degree is None else min(stated, self.max_degree)

    def count(self, stated: int) -> int:
        return stated if self.samples is None else min(stated, self.samples)


@dataclass(frozen=True)
class CaseFailure:
    case: str
    inputs: str
    expected: str
    actual: str


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seed: int = 0
    duration: float = 0.0

    @property
    def passed(self) -> int:
        return self.cases - len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, case: str, inputs: str, expected, actual) -> None:
        self.cases += 1
        if expected != actual:
            self.failures.append(
                CaseFailure(case=case, inputs=inputs, expected=_show(expected), actual=_show(actual))
            )

    def to_json(self) -> dict:
        # no duration: identical argv+seed must give byte-identical output
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [
                {"case": f.case, "inputs": f.inputs, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
            "notes": list(self.notes),
            "seed": self.seed,
        }


def _show(value) -> str:
    if isinstance(value, LinComb):
        return render_lincomb(value)
    if isinstance(value, Forest):
        return value.key
    return str(value)


def _alphabet2() -> tuple[Decoration, ...]:
    return default_alphabet(("a", "b"))


def _trees_or_empty(n: int, alphabet: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """The trees of n vertices, and ∅ alone at n = 0."""
    return (EMPTY,) if n == 0 else trees_of_size(n, alphabet)


def _relabel(trees) -> tuple[Forest, dict[Decoration, Decoration]]:
    """The forest of the given trees decorated x0, x1, ... in preorder, in
    the order the trees are given, and the map from each new decoration
    back to the old one."""
    back: dict[Decoration, Decoration] = {}

    def fresh(old: Decoration) -> Decoration:
        new = Decoration((f"x{len(back)}",))
        back[new] = old
        return new

    return Forest([_redecorate(t, fresh) for t in trees]), back


def _symmetry(trees) -> int:
    """σ: the product, over every vertex including the forest root, of the
    factorials of its child multiplicities.  Equal siblings sit next to
    each other (children are sorted): the k-th in a run multiplies by k."""
    sigma = 1
    for kids in [trees] + [node.children for t in trees for _, node in _preorder(t)]:
        run = 1
        for i in range(1, len(kids)):
            run = run + 1 if kids[i] == kids[i - 1] else 1
            sigma *= run
    return sigma


def _tabled(fn, table: dict):
    """fn, computed once per argument tuple through ``table``.  The table
    is the caller's, so what it holds lives only as long as the caller
    keeps it."""

    def once(*args):
        if (hit := table.get(args)) is None:
            hit = table[args] = fn(*args)
        return hit

    return once


def _placed_terms(g: Forest) -> list:
    """The terms of ``dual_recursive(g)`` for a forest g decorated x0, x1,
    ... in preorder, as (a, where a's vertices sit in g, b, where b's sit,
    coefficient): each position is the index i of the vertex's xi, in the
    leg's own preorder."""
    index = {Decoration((f"x{i}",)): i for i in range(g.size)}

    def where(leg: Forest) -> tuple[int, ...]:
        return tuple([index[node.decoration] for t in leg.trees for _, node in _preorder(t)])

    return [(a, where(a), b, where(b), c) for (a, b), c in dual_recursive(g).items()]


def _projected_leg(leg: Forest, labels: tuple[Decoration, ...]) -> tuple[Forest, int]:
    """The leg with its vertices decorated by ``labels`` in preorder, and
    that forest's σ."""
    relabel = iter(labels).__next__
    projected = Forest([_redecorate(t, lambda _: relabel()) for t in leg.trees])
    return projected, _symmetry(projected.trees)


def _sigma_refined_oracle(f: Forest, table: dict | None = None) -> TensorComb[Forest]:
    """The strict-duality coproduct of f by the σ-refined reciprocal formula.

    On f's relabelling by distinct decorations every admissible family and
    every component split gives ``dual_recursive`` a term of its own, so
    the termwise reciprocal is the reciprocal-coefficient form.  Each term
    A⊗B with coefficient c maps back to π(A)⊗π(B) with coefficient
    σ(πA)σ(πB)/(σ(f)·c), and the sum adds up the families that collide
    under π.

    ``table`` keeps, across the calls that share it, the placed terms of
    each relabelling and each projected leg with its σ, keyed on the leg
    and the labels it takes from f; without one, each call starts empty."""
    table = {} if table is None else table
    g, back = _relabel(f.trees)
    labels = tuple(back.values())  # f's decorations in preorder
    sigma_f = _symmetry(f.trees)
    project = _tabled(_projected_leg, table)
    pairs = []
    for a, where_a, b, where_b, c in _tabled(_placed_terms, table)(g):
        pa, sa = project(a, tuple([labels[i] for i in where_a]))
        pb, sb = project(b, tuple([labels[i] for i in where_b]))
        pairs.append(((pa, pb), Fraction(sa * sb, sigma_f) / c))
    return TensorComb.sum_of(pairs)


def _distinct_forest_shapes(n: int) -> list[Forest]:
    """One distinctly decorated representative per forest shape of size n.

    The forest shapes of size n are the child forests of the tree shapes of
    size n + 1.  Each forest's trees are taken in descending key order and
    decorated x0, x1, ... in preorder; the forests are sorted by the keys of
    their trees in that order."""
    shapes = sorted(
        (tree.children[::-1] for tree in enumerate_shapes(n + 1)),
        key=lambda trees: tuple(t.key for t in trees),
    )
    return [_relabel(trees)[0] for trees in shapes]


# ---------------------------------------------------------------------------


def _shuffled(tree: RootedTree, rng: random.Random) -> RootedTree:
    """The tree rebuilt with the children of every vertex passed in a
    random order, each vertex after its subtrees (reversed preorder)."""
    return _fold(
        _preorder(tree), lambda _, node, kids: RootedTree(node.decoration, rng.sample(kids, len(kids)))
    )


def suite_forest_core(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="forest-core", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    alphabet = _alphabet2()

    for n in range(0, cfg.degree(8) + 1):
        for _ in range(cfg.count(40) if n > 4 else 10):
            f = random_forest(rng, n, alphabet) if n else EMPTY
            # the parser returns a shared value's canonical text unparsed, so
            # the round trip runs the grammar itself
            rep.check("parse-render roundtrip", f.key, f, _Parser(f.key).parse_forest())

    for _ in range(cfg.count(100)):
        f = random_forest(rng, rng.randint(1, cfg.degree(8)), alphabet)
        g = Forest([_shuffled(t, rng) for t in rng.sample(f.trees, len(f.trees))])
        rep.check("canonical key permutation invariance", f.key, f.key, g.key)

    forests = lambda n: forests_of_size(n, alphabet)
    for total in range(0, cfg.degree(5) + 1):
        for f, g in operand_tuples(forests, total, 2, least=0):
            rep.check("concat commutative", f"{f.key} | {g.key}", concat(f, g), concat(g, f))
        for f, g, h in operand_tuples(forests, total, 3, least=0):
            rep.check(
                "concat associative",
                f"{f.key} | {g.key} | {h.key}",
                concat(concat(f, g), h),
                concat(f, concat(g, h)),
            )
        for f in forests(total):
            rep.check("concat unital", f.key, concat(EMPTY, f), f)

    for tf in trees_up_to(cfg.degree(5), alphabet):
        t = tf.single_tree()
        for v in vertex_refs(t):
            rep.check("graft empty is identity", f"{t.key} at {v}", t, graft_at(t, v, EMPTY))
        rep.check("induced full", t.key, tf, induced_subtree(t, vertex_refs(t)))
        rep.check("induced empty", t.key, EMPTY, induced_subtree(t, ()))
    return rep


def suite_shuffle(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="shuffle", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    alphabet = _alphabet2()

    for _ in range(cfg.count(20)):
        f = random_forest(rng, rng.randint(0, cfg.degree(6)), alphabet)
        rep.check("unit", f.key, LinComb.of(f), forest_shuffle(EMPTY, f, Fraction(1)))

    for lam in WEIGHTS:
        for _ in range(cfg.count(500 // len(WEIGHTS))):
            f = random_forest(rng, rng.randint(1, cfg.degree(4)), alphabet)
            g = random_forest(rng, rng.randint(1, cfg.degree(4)), alphabet)
            rep.check(
                f"shuffle commutative (weight {lam})",
                f"{f.key} | {g.key}",
                forest_shuffle(f, g, lam),
                forest_shuffle(g, f, lam),
            )
            rep.check(
                f"star commutative (weight {lam})",
                f"{f.key} | {g.key}",
                star_product(f, g, lam),
                star_product(g, f, lam),
            )
            rep.check(
                f"diamond commutative (weight {lam})",
                f"{f.key} | {g.key}",
                diamond_product(f, g, lam),
                diamond_product(g, f, lam),
            )

    # degree 4 is part of the property: no witness exists below it
    witness = find_nonassociativity_witness(4)
    rep.check("non-associativity witness found at degree <= 4", "-", True, witness is not None)
    if witness:
        rep.notes.append("non-associativity witness: " + ", ".join(w.key for w in witness))

    # word compatibility along the linear-tree injection; at weight 0 the
    # word shuffle is checked against its interleaving reference as well
    for lam in (Fraction(0), Fraction(1)):
        for total in range(0, cfg.degree(5) + 1):
            for w1, w2 in operand_tuples(lambda n: words_of_size(n, alphabet), total, 2, least=0):
                in_words = word_shuffle(w1, w2, lam)
                if not lam:
                    rep.check(
                        "word shuffle == interleavings",
                        f"{w1.key} | {w2.key}",
                        word_shuffle_brute(w1, w2),
                        in_words,
                    )
                lhs = forest_shuffle(word_to_tree(w1), word_to_tree(w2), lam)
                rhs = LinComb({word_to_tree(w): c for w, c in in_words.items()})
                rep.check(f"word compatibility (weight {lam})", f"{w1.key} | {w2.key}", rhs, lhs)

    # every coefficient is a positive rational times a power of the weight
    for _ in range(cfg.count(60)):
        f = random_forest(rng, rng.randint(1, cfg.degree(4)), alphabet)
        g = random_forest(rng, rng.randint(1, cfg.degree(4)), alphabet)
        at0 = forest_shuffle(f, g, Fraction(0))
        at1 = forest_shuffle(f, g, Fraction(1))
        at2 = forest_shuffle(f, g, Fraction(2))
        ok = True
        for basis, c1 in at1.items():
            c0, c2 = at0.coefficient(basis), at2.coefficient(basis)
            if c1 <= 0:
                ok = False
            elif c0 == c1 == c2:
                continue  # weight-free monomial
            else:
                ratio = c2 / c1
                ok = ok and c0 == 0 and ratio.denominator == 1 and ratio > 1 and (
                    ratio.numerator & (ratio.numerator - 1) == 0
                )
        rep.check("coefficients are positive weight-monomials", f"{f.key} | {g.key}", True, ok)

    # every basis tree of a shuffle of two nonempty trees has a fertility-1 vertex
    for total in range(2, cfg.degree(6) + 1):
        for t1, t2 in operand_tuples(lambda n: trees_of_size(n, alphabet), total, 2):
            ok = all(not is_primitive(f.single_tree()) for f, _ in forest_shuffle(t1, t2, Fraction(0)).items())
            rep.check("shuffle support has fertility-1 vertex", f"{t1.key} | {t2.key}", True, ok)

    # star agrees with the shuffle on linear operands
    for _ in range(cfg.count(50)):
        w1 = random_word(rng, rng.randint(1, 3), alphabet)
        w2 = random_word(rng, rng.randint(1, 3), alphabet)
        for lam in (Fraction(0), Fraction(1)):
            rep.check(
                f"star equals shuffle on linear trees (weight {lam})",
                f"{w1.key} | {w2.key}",
                forest_shuffle(word_to_tree(w1), word_to_tree(w2), lam),
                star_product(word_to_tree(w1), word_to_tree(w2), lam),
            )
    return rep


def suite_coalgebra(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="coalgebra", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    alphabet = _alphabet2()

    def coassociative(tf: Forest) -> bool:
        d = trunk_coproduct(tf)
        return d.expand_leg(0, trunk_coproduct) == d.expand_leg(1, trunk_coproduct)

    for tf in trees_up_to(cfg.degree(6), alphabet):
        rep.check("coassociativity (exhaustive)", tf.key, True, coassociative(tf))
    for _ in range(cfg.count(300)):
        tf = random_tree(rng, rng.randint(7, max(7, cfg.degree(9))), alphabet)
        rep.check("coassociativity (random)", tf.key, True, coassociative(tf))

    for tf in trees_up_to(cfg.degree(6), alphabet):
        left, right = _counit_sides(tf)
        rep.check("left counit", tf.key, LinComb.of(tf), left)
        rep.check(
            "right counit dichotomy (holds iff linear)",
            tf.key,
            is_linear(tf),
            right == LinComb.of(tf),
        )
    witness = parse_forest("a[b,c]")
    rep.check(
        "right counit fails on the canonical witness a[b,c]",
        "a[b,c]",
        False,
        _counit_sides(witness)[1] == LinComb.of(witness),
    )

    def bialgebra_case(t1: Forest, t2: Forest, lam: Fraction, split: TensorComb) -> bool:
        """Δ(t1 ⧢ t2) against the split square ``split`` of (t1, t2),
        multiplied out at weight lam."""
        lhs = tensor_map_basis(forest_shuffle(t1, t2, lam), trunk_coproduct)
        rhs = split.contract(2, 3, lambda a, b: forest_shuffle(a, b, lam)).contract(
            0, 1, lambda a, b: forest_shuffle(a, b, lam)
        )
        return lhs == rhs

    for total in range(0, cfg.degree(5) + 1):
        for t1, t2 in operand_tuples(lambda n: _trees_or_empty(n, alphabet), total, 2, least=0):
            # the split square holds no weight: one per pair
            split = _split_square(t1, t2)
            for lam in (Fraction(0), Fraction(1), Fraction(-1)):
                rep.check(
                    f"bialgebra compatibility (weight {lam})",
                    f"{t1.key} | {t2.key}",
                    True,
                    bialgebra_case(t1, t2, lam, split),
                )
    for lam in (Fraction(0), Fraction(1), Fraction(-1)):
        for _ in range(cfg.count(20)):
            t1 = random_tree(rng, rng.randint(1, 4), alphabet)
            t2 = random_tree(rng, rng.randint(1, max(1, cfg.degree(7) - 4)), alphabet)
            rep.check(
                f"bialgebra compatibility random (weight {lam})",
                f"{t1.key} | {t2.key}",
                True,
                bialgebra_case(t1, t2, lam, _split_square(t1, t2)),
            )

    for tf in trees_up_to(cfg.degree(5), alphabet):
        rep.check(
            "right antipode square vanishes",
            tf.key,
            LinComb.zero(),
            antipode_square_residual(tf.single_tree()),
        )

    for n in range(0, cfg.degree(5) + 1):
        for w in words_of_size(n, alphabet):
            lhs = trunk_coproduct(word_to_tree(w))
            rhs = TensorComb(
                {
                    (word_to_tree(x), word_to_tree(y)): c
                    for (x, y), c in deconcatenation(w).items()
                },
            )
            rep.check("deconcatenation compatibility", w.key, rhs, lhs)
    return rep


def _split_square(t1: Forest, t2: Forest) -> TensorComb[Forest]:
    """(Δ⊗Δ)(t1⊗t2) with its middle legs swapped: the right side of the
    bialgebra square before its two products."""
    return (
        tensor(LinComb.of(t1), LinComb.of(t2))
        .expand_leg(0, trunk_coproduct)
        .expand_leg(2, trunk_coproduct)
        .tau23()
    )


def _counit_sides(tf: Forest) -> tuple[LinComb[Forest], LinComb[Forest]]:
    """(ε⊗Id)Δ(tf) and (Id⊗ε)Δ(tf)."""
    terms = trunk_coproduct(tf).items()
    return (
        LinComb.sum_of((r, c * counit(l)) for (l, r), c in terms),
        LinComb.sum_of((l, c * counit(r)) for (l, r), c in terms),
    )


def suite_dual(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="dual", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    alphabet = _alphabet2()

    # three-way consistency: one distinct-atom representative per shape up
    # to degree 7, plus exhaustive small 2-atom forests for collisions
    for n in range(0, cfg.degree(7) + 1):
        for f in _distinct_forest_shapes(n):
            rep.check("recursive == combinatorial (distinct atoms)", f.key, dual_recursive(f), dual_combinatorial(f))
    for f in forests_up_to(cfg.degree(5), alphabet):
        rep.check("recursive == combinatorial (2 atoms)", f.key, dual_recursive(f), dual_combinatorial(f))

    for n in range(0, cfg.degree(6) + 1):
        for f in _distinct_forest_shapes(n):
            d = dual_recursive(f)
            rep.check("cocommutativity", f.key, d, d.flip())

    # one σ table for both families: the forests share few relabellings
    sigma: dict = {}
    for n in range(0, cfg.degree(6) + 1):
        for f in _distinct_forest_shapes(n):
            oracle = dual_oracle(f)
            rep.check(
                "support duality vs oracle",
                f.key,
                frozenset(oracle.support()),
                frozenset(dual_recursive(f).support()),
            )
            formula = _sigma_refined_oracle(f, sigma)
            rep.check("oracle == σ-refined reciprocal formula (distinct atoms)", f.key, oracle, formula)
    # repeated components are where the σ factors differ from 1
    for f in forests_up_to(cfg.degree(6), alphabet):
        oracle = dual_oracle(f)
        rep.check("oracle == σ-refined reciprocal formula (2 atoms)", f.key, oracle, _sigma_refined_oracle(f, sigma))

    # the transpose against its brute-force reference, which pairs every
    # basis split through shuffle_coefficient; degree 4 keeps the brute cheap
    for n in range(0, cfg.degree(4) + 1):
        for f in _distinct_forest_shapes(n):
            rep.check("transpose == brute oracle (distinct atoms)", f.key, dual_oracle_brute(f), dual_oracle(f))
    for f in forests_up_to(cfg.degree(4), alphabet):
        rep.check("transpose == brute oracle (2 atoms)", f.key, dual_oracle_brute(f), dual_oracle(f))

    for n in range(0, cfg.degree(5) + 1):
        for w in words_of_size(n, alphabet):
            rhs = TensorComb(
                {(word_to_tree(x), word_to_tree(y)): c for (x, y), c in deshuffle(w).items()}
            )
            rep.check("linear trees deshuffle", w.key, rhs, dual_recursive(word_to_tree(w)))

    # grafting/trunk-coproduct pairing, batched per degree
    for total in range(1, cfg.degree(6) + 1):
        cograft: dict[Forest, list[tuple[tuple[Forest, Forest], Fraction]]] = {}
        for t1, t2 in operand_tuples(lambda n: _trees_or_empty(n, alphabet), total, 2, least=0):
            for f, c in graft_linear(t1, t2).items():
                cograft.setdefault(f, []).append(((t1, t2), c))
        for tf in trees_of_size(total, alphabet):
            got = TensorComb.sum_of(cograft.get(tf, ()))
            rep.check("grafting pairs the trunk coproduct", tf.key, trunk_coproduct(tf), got)

    # at least 3 vertices, so that at every degree the samples reach a tree
    # with two leaves, where a leaf graft has more than one term
    cap = max(3, cfg.degree(5) - 2)
    # the samples draw from few small trees: graft each basis pair once
    op = partial(bilinear, _tabled(graft_linear, {}))
    lop = partial(bilinear, _tabled(graft_leaves, {}))
    for _ in range(cfg.count(300)):
        x = LinComb.of(random_tree(rng, rng.randint(1, cap), alphabet))
        y = LinComb.of(random_tree(rng, rng.randint(1, cap), alphabet))
        z = LinComb.of(random_tree(rng, rng.randint(1, cap), alphabet))
        assoc = op(op(x, y), z) - op(x, op(y, z))
        rep.check(
            "tip-grafting associator symmetric in first two",
            f"{render_lincomb(x)} | {render_lincomb(y)} | {render_lincomb(z)}",
            op(op(y, x), z) - op(y, op(x, z)),
            assoc,
        )
        rep.check(
            "tip-grafting associator symmetric in last two",
            f"{render_lincomb(x)} | {render_lincomb(y)} | {render_lincomb(z)}",
            op(op(x, z), y) - op(x, op(z, y)),
            assoc,
        )
        rep.check(
            "leaf-grafting associator symmetric in last two",
            f"{render_lincomb(x)} | {render_lincomb(y)} | {render_lincomb(z)}",
            lop(lop(x, z), y) - lop(x, lop(z, y)),
            lop(lop(x, y), z) - lop(x, lop(y, z)),
        )

    # grafting anywhere onto a leaf never yields an oracle-primitive tree
    for _ in range(cfg.count(40)):
        base = random_tree(rng, rng.randint(1, cfg.degree(6) - 1), alphabet)
        scion = random_tree(
            rng, rng.randint(1, max(1, cfg.degree(6) - base.size)), alphabet
        )
        t = base.single_tree()
        ref = rng.choice(leaf_refs(t))
        grafted = graft_at(t, ref, scion)
        c = shuffle_coefficient(grafted.as_forest(), base, scion, 0)
        rep.check(
            "leaf grafting is never primitive",
            f"{base.key} <- {scion.key} at {ref}",
            True,
            c != 0,
        )

    # complement closure and lemma-vs-direct fertility, all on one walk of
    # each tree
    for tf in trees_up_to(cfg.degree(6), alphabet):
        t = tf.single_tree()
        walk = _preorder(t)
        fams = admissible_families(t)
        by_set = {f.gamma: f.c_gamma for f in fams}
        refs = frozenset([ref for ref, _ in walk])
        ok_closure = all(refs - g in by_set and by_set[refs - g] == c for g, c in by_set.items())
        rep.check("complement closure with equal fertility", tf.key, True, ok_closure)
        ok_direct = all(is_admissible_direct(t, f.gamma, walk) for f in fams)
        ok_fert = all(contraction_product(t, f.gamma, walk) == f.c_gamma for f in fams)
        rep.check("families satisfy the direct definition", tf.key, True, ok_direct)
        rep.check("lemma fertility == contraction fertility", tf.key, True, ok_fert)
    return rep


def suite_primitives(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="primitives", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    for n in range(1, cfg.degree(9) + 1):
        rep.check(
            f"brute count equals recursive count (n={n})",
            str(n),
            primitive_count_recursive(n),
            primitive_count_brute(n),
        )
        rep.check("shape count == enumeration", str(n), count_shapes(n), len(enumerate_shapes(n)))
    table = [0, 1, 0, 1, 1, 2, 3, 6, 10, 19, 35, 67, 127, 248, 482, 952, 1885, 3765, 7546, 15221, 30802, 62620, 127702, 261335]
    rep.check(
        "recursive count table 0..23",
        "n=0..23",
        table,
        [primitive_count_recursive(n) for n in range(24)],
    )
    for n in range(1, min(cfg.degree(7), 7) + 1):
        for shape in enumerate_shapes(n):
            t = decorate_distinct(shape)
            struct = is_primitive(t)
            rep.check(
                "structural == reduced-dual primitivity",
                shape.key,
                struct,
                reduced_dual(t.as_forest()).is_zero,
            )
            # only the two trivial terms T⊗∅ and ∅⊗T
            rep.check("structural == oracle primitivity", shape.key, struct, len(dual_oracle(t.as_forest())) == 2)
    alphabet = default_alphabet(("a", "b", "c"))
    for _ in range(cfg.count(100)):
        shape = rng.choice(enumerate_shapes(rng.randint(1, 7)))
        redecorated = _redecorate(shape, lambda _: rng.choice(alphabet))
        rep.check(
            "decoration independence",
            redecorated.key,
            is_primitive(shape),
            is_primitive(redecorated),
        )
    return rep


def suite_rota_baxter(cfg: SuiteConfig) -> SuiteReport:
    rep = SuiteReport(suite="rota-baxter", seed=cfg.seed)
    rng = random.Random(cfg.seed)
    alphabet = _alphabet2()

    # exhaustive to total degree 4, random to degree 7
    for lam in WEIGHTS:
        walg = word_algebra(lam)
        falg = forest_algebra(lam)
        for total in range(2, cfg.degree(4) + 1):
            for w1, w2 in operand_tuples(lambda n: words_of_size(n, alphabet), total, 2):
                rep.check(
                    f"word Rota-Baxter identity (weight {lam})",
                    f"{w1.key} | {w2.key}",
                    LinComb.zero(),
                    rb_residual(walg, LinComb.of(w1), LinComb.of(w2)),
                )
            for f1, f2 in operand_tuples(lambda n: forests_of_size(n, alphabet), total, 2):
                rep.check(
                    f"forest Rota-Baxter identity (weight {lam})",
                    f"{f1.key} | {f2.key}",
                    LinComb.zero(),
                    rb_residual(falg, LinComb.of(f1), LinComb.of(f2)),
                )
        for _ in range(cfg.count(200 // len(WEIGHTS))):
            x = LinComb.of(random_forest(rng, rng.randint(1, cfg.degree(7) - 1), alphabet))
            y = LinComb.of(
                random_forest(rng, rng.randint(1, max(1, cfg.degree(7) - 4)), alphabet)
            )
            rep.check(
                f"forest Rota-Baxter identity random (weight {lam})",
                f"{render_lincomb(x)} | {render_lincomb(y)}",
                LinComb.zero(),
                rb_residual(falg, x, y),
            )
            xw = LinComb.of(random_word(rng, rng.randint(1, 3), alphabet))
            yw = LinComb.of(random_word(rng, rng.randint(1, 3), alphabet))
            rep.check(
                f"word Rota-Baxter identity random (weight {lam})",
                f"{render_lincomb(xw)} | {render_lincomb(yw)}",
                LinComb.zero(),
                rb_residual(walg, xw, yw),
            )

    bad = corrupted_forest_algebra(Fraction(0))
    violations = 0
    for _ in range(20):
        x = LinComb.of(random_forest(rng, rng.randint(1, 3), alphabet))
        y = LinComb.of(random_forest(rng, rng.randint(1, 3), alphabet))
        if not rb_residual(bad, x, y).is_zero:
            violations += 1
    rep.check("corrupted operator is detected", "graft-root operator with non-unit decoration", True, violations > 0)
    rep.notes.append(f"corrupted-operator violations: {violations}/20 sampled pairs")

    for lam in (Fraction(0), Fraction(1)):
        walg = word_algebra(lam)
        for f in forests_up_to(cfg.degree(5), alphabet, include_empty=False):
            rep.check(f"induced map intertwines the operators (weight {lam})", f.key, *intertwining_sides(f, walg))
        for _ in range(cfg.count(200 // 2)):
            f = random_forest(rng, rng.randint(1, 4), alphabet)
            g = random_forest(rng, rng.randint(1, 3), alphabet)
            product, image = diamond_morphism_sides(f, g, walg)
            rep.check(f"induced map is a diamond morphism (weight {lam})", f"{f.key} | {g.key}", product, image)
            rep.check(
                f"induced map is a concatenation morphism (weight {lam})",
                f"{f.key} | {g.key}",
                product,
                phi_bar(concat(f, g), walg, word_embedding),
            )
    return rep


SUITES = {
    "forest-core": suite_forest_core,
    "shuffle": suite_shuffle,
    "coalgebra": suite_coalgebra,
    "dual": suite_dual,
    "primitives": suite_primitives,
    "rota-baxter": suite_rota_baxter,
}


@_gc_paused
def run_suite(name: str, cfg: SuiteConfig) -> list[SuiteReport]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    reports = []
    for n in names:
        start = time.monotonic()
        report = SUITES[n](cfg)
        report.duration = time.monotonic() - start
        reports.append(report)
    return reports

