"""Seeded inputs, operations and correctness checks of the three workloads.

An input is an ``Op``: the argv of one ``forestshuffle`` CLI verb (the
``dual`` op of the duality workload bundles the verbs run on one target;
a trailing ``--oracle`` adds ``dual --mode oracle``).
Running an op makes the in-process calls that verb makes: it parses its
text operands, calls the library's public functions and renders the JSON
the verb prints with ``--json``.  Every call into a layer goes through
``Tracer.call``.  ``facts`` keeps what the checks need; ``checks`` runs
after the whole stream and uses identities the verification suites already
rely on.

Why these workloads:

* ``products`` -- no operand pair repeats, so every top-level product
  lookup misses: canonical construction, ``Fraction``/``LinComb``
  arithmetic and the product recursions do the work.  Half the ops run at
  lambda=1, the control for a lambda=0 integer fast path.
* ``duality`` -- every 2-atom forest up to 6 vertices plus larger 3-atom
  forests, in seeded order.  Its inputs share about twice as much structure
  as those of ``products`` (``distinct_subforest_frac``), so memos keyed on
  forests, in ``shuffle_coefficient`` and the dual routes, can reuse
  sub-results.
* ``verify`` -- ``verify --suite all --json --max-degree 5``: the suite
  loops no other workload reaches, such as the forest-core concat triple
  loop and the oracle-backed primitivity checks.  Default degrees take
  about 70 s a pass, too long for two passes in a run under a minute.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from forestshuffle.coalgebra import trunk_coproduct
from forestshuffle.dual import admissible_families, dual_combinatorial, dual_oracle, dual_recursive
from forestshuffle.forest import Forest, RootedTree, parse_forest
from forestshuffle.linalg import TensorComb, lincomb_json, tensor_json
from forestshuffle.primitives import primitive_count_recursive
from forestshuffle.sampling import default_alphabet, forests_up_to, random_forest, random_tree
from forestshuffle.shuffle import diamond_product, forest_shuffle, shuffle_coefficient, star_product

PRODUCTS = {"shuffle": forest_shuffle, "star": star_product, "diamond": diamond_product}

# Sizes of one pass.  ``tiny`` is for the benchmark's own smoke tests.
SIZES = {
    "full": {
        "products_ops": 1008,
        "products_vertices": (3, 8),
        "duality_sweep_vertices": 6,
        "duality_random": 300,
        "duality_random_vertices": (7, 11),
        "duality_primitives": 20,
        "verify_flags": ("--max-degree", "5"),
    },
    "tiny": {
        "products_ops": 24,
        "products_vertices": (2, 4),
        "duality_sweep_vertices": 3,
        "duality_random": 4,
        "duality_random_vertices": (7, 8),
        "duality_primitives": 2,
        "verify_flags": ("--max-degree", "3", "--samples", "3"),
    },
}

# The brute oracle runs on every target up to 5 vertices and on a seeded one
# in 16 of the 6-vertex targets: on all 2,058 of those it would take ~25 s,
# 3/4 of a pass.  Oracle and recursive supports are known to agree up to 6
# vertices.
ORACLE_ALL_VERTICES = 5
ORACLE_SAMPLED_VERTICES = 6
ORACLE_SAMPLE_EVERY = 16
# Operands deeper than this are redrawn.  Two 8-vertex chains at lambda=1
# expand to 27k terms in ~4 s, a third of a pass, so whether a seed drew
# one would decide the pass time.  At depth 5 the lambda=1 tree x tree tail
# stays at 1-3k terms.
MAX_HEIGHT = 5
# Random operand shapes come from one fixed draw, so that every seed asks
# for the same structural work and runs differ by host noise, not by whether
# a seed drew expensive shapes.  The seed picks decorations, order and the
# terms the checks sample.
SHAPE_SEED = 0
PAIR_QUERIES = 3  # pair queries per dual target, on its non-trivial terms
PRIMITIVE_COUNTS = (12, 20)  # range of N for ``primitives --count N``


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    probe: int  # seeded integer that picks which terms the checks sample

    def line(self) -> str:
        return "\x1f".join(self.argv) + f"\x1f{self.probe}"


def generate(workload: str, seed: int, size: str) -> list[Op]:
    cfg = SIZES[size]
    rng = random.Random(seed)
    if workload == "products":
        return _products(rng, cfg)
    if workload == "duality":
        return _duality(rng, cfg)
    if workload == "verify":
        return [Op(("verify", "--suite", "all", "--json", "--seed", str(seed)) + cfg["verify_flags"], 0)]
    raise ValueError(f"unknown workload {workload!r}")


def _height(tree) -> int:
    return 1 + max((_height(c) for c in tree.children), default=0)


def _decorate(shape: Forest, rng: random.Random, alphabet) -> Forest:
    """The shape with every vertex decoration drawn from ``rng``."""

    def walk(tree: RootedTree) -> RootedTree:
        return RootedTree(rng.choice(alphabet), [walk(c) for c in tree.children])

    return Forest([walk(t) for t in shape.trees])


def _products(rng: random.Random, cfg: dict) -> list[Op]:
    """Equal numbers of ops in each (tree or forest, product, lambda) cell;
    within a cell the operand sizes cycle through every pair in the size
    range."""
    alphabet = default_alphabet(("a", "b", "c"))
    lo, hi = cfg["products_vertices"]
    sizes = [(m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1)]
    cells = [(make, product, lam) for make in (random_tree, random_forest) for product in PRODUCTS for lam in "01"]
    shape_rng = random.Random(SHAPE_SEED)

    def operand(make, size):
        while True:
            shape = make(shape_rng, size, alphabet[:1])
            if max(_height(t) for t in shape.trees) <= MAX_HEIGHT:
                return _decorate(shape, rng, alphabet)

    ops = []
    for i in range(cfg["products_ops"]):
        make, product, lam = cells[i % len(cells)]
        m, n = sizes[(i // len(cells)) % len(sizes)]
        first, second = operand(make, m), operand(make, n)
        argv = ("shuffle", first.key, second.key, "--product", product, "--lambda", lam, "--json")
        ops.append(Op(argv, rng.randrange(1 << 30)))
    rng.shuffle(ops)
    return ops


def _duality(rng: random.Random, cfg: dict) -> list[Op]:
    sweep = forests_up_to(cfg["duality_sweep_vertices"], default_alphabet(("a", "b")), False)
    sampled = [i for i, f in enumerate(sweep) if f.size == ORACLE_SAMPLED_VERTICES]
    # Exactly one in ORACLE_SAMPLE_EVERY, so every seed asks the same number of oracles.
    sampled = set(rng.sample(sampled, len(sampled) // ORACLE_SAMPLE_EVERY))
    targets = [
        (f.key, "--oracle") if f.size <= ORACLE_ALL_VERTICES or i in sampled else (f.key,)
        for i, f in enumerate(sweep)
    ]
    alphabet = default_alphabet(("a", "b", "c"))
    lo, hi = cfg["duality_random_vertices"]
    shape_rng = random.Random(SHAPE_SEED)
    for i in range(cfg["duality_random"]):
        shape = random_forest(shape_rng, lo + i % (hi - lo + 1), alphabet[:1])
        targets.append((_decorate(shape, rng, alphabet).key,))
    ops = [Op(("dual", *t), rng.randrange(1 << 30)) for t in targets]
    lo, hi = PRIMITIVE_COUNTS
    ops += [
        Op(("primitives", "--count", str(lo + i % (hi - lo + 1)), "--json"), 0)
        for i in range(cfg["duality_primitives"])
    ]
    rng.shuffle(ops)
    return ops


def input_forests(ops: list[Op]) -> list[Forest]:
    """The forests an op list hands to the library, for the sharing count."""
    out = []
    for op in ops:
        if op.argv[0] == "shuffle":
            out += [parse_forest(op.argv[1]), parse_forest(op.argv[2])]
        elif op.argv[0] == "dual":
            out.append(parse_forest(op.argv[1]))
    return out


def distinct_subforest_frac(forests: list[Forest]) -> float:
    """Distinct proper sub-forests over all proper sub-forests of the inputs.

    The proper sub-forests of a forest are the child forests of its vertices,
    found through ``RootedTree.children``.  Those of one vertex are left out:
    any input over a few atoms shares them.  A low value means the inputs
    share much structure, which memos keyed on forests can reuse.
    """
    seen: set[str] = set()
    total = 0
    for forest in forests:
        stack = list(forest.trees)
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if sum(c.size for c in node.children) >= 2:
                total += 1
                seen.add(" ".join(c.key for c in node.children))
    return len(seen) / total if total else 0.0


def _emit(x) -> str:
    payload = tensor_json(x) if isinstance(x, TensorComb) else lincomb_json(x)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _families_json(families) -> str:
    rows = [
        {
            "gamma": [list(ref) for ref in sorted(fam.gamma)],
            "t_gamma": fam.t_gamma.key,
            "t_complement": fam.t_complement.key,
            "c_gamma": fam.c_gamma,
        }
        for fam in families
    ]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def run_op(tr, op: Op):
    """Run one op; returns the texts it emits and the context its checks need."""
    verb = op.argv[0]
    if verb == "shuffle":
        _, first_text, second_text, _, product, _, lam_text, _ = op.argv
        first = tr.call("forest.parse_forest", parse_forest, first_text)
        second = tr.call("forest.parse_forest", parse_forest, second_text)
        fn = PRODUCTS[product]
        lam = Fraction(lam_text)
        result = tr.call(f"shuffle.{fn.__name__}.lam{lam_text}", fn, first, second, lam)
        return [tr.call("linalg.emit", _emit, result)], (fn, first, second, lam, result)

    if verb == "dual":
        target = tr.call("forest.parse_forest", parse_forest, op.argv[1])
        rec = tr.call("dual.dual_recursive", dual_recursive, target)
        comb = tr.call("dual.dual_combinatorial", dual_combinatorial, target)
        texts = [tr.call("linalg.emit", _emit, rec), tr.call("linalg.emit", _emit, comb)]
        oracle = None
        if "--oracle" in op.argv:
            oracle = tr.call("dual.dual_oracle", dual_oracle, target)
            texts.append(tr.call("linalg.emit", _emit, oracle))
        terms = [legs for legs, _ in rec.items() if not (legs[0].is_empty or legs[1].is_empty)]
        for k in range(min(PAIR_QUERIES, len(terms))):
            left, right = terms[(op.probe + k * 7919) % len(terms)]
            first = tr.call("forest.parse_forest", parse_forest, left.key)
            second = tr.call("forest.parse_forest", parse_forest, right.key)
            c = tr.call("shuffle.shuffle_coefficient", shuffle_coefficient, target, first, second, Fraction(0))
            texts.append(json.dumps({"coeff": str(c)}) + "\n")
        if target.is_tree:
            cop = tr.call("coalgebra.trunk_coproduct", trunk_coproduct, target)
            texts.append(tr.call("linalg.emit", _emit, cop))
            families = tr.call("dual.admissible_families", admissible_families, target.single_tree())
            texts.append(_families_json(families))
        return texts, (rec, comb, oracle)

    if verb == "primitives":
        values = [
            tr.call("primitives.primitive_count_recursive", primitive_count_recursive, n)
            for n in range(int(op.argv[2]) + 1)
        ]
        return [json.dumps(values) + "\n"], None

    raise ValueError(f"no runner for verb {verb!r}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _support_keys(x: TensorComb) -> list[tuple[str, str]]:
    return sorted((left.key, right.key) for left, right in x.support())


def facts(op: Op, texts: list[str], ctx):
    """The plain data the op's checks need, taken right after the op.

    Nothing here calls into a memo, and no library object is kept, so the
    timed stream and its peak RSS are the same with and without checks.
    """
    verb = op.argv[0]
    if verb == "shuffle":
        fn, _first, _second, _lam, result = ctx
        sample = None
        if fn is forest_shuffle and len(result):
            items = result.items()
            term, c = items[op.probe % len(items)]
            sample = (term.key, c)
        return _sha(texts[0]), sample
    if verb == "dual":
        rec, _comb, oracle = ctx
        supports = None if oracle is None else (_support_keys(rec), _support_keys(oracle))
        return _sha(texts[0]), _sha(texts[1]), supports
    return None


def checks(op: Op, kept) -> list[tuple[str, object, object]]:
    """(label, expected, actual) triples for one op, computed after the stream."""
    verb = op.argv[0]
    out = []
    if verb == "shuffle":
        _, first_text, second_text, _, product, _, lam_text, _ = op.argv
        sha, sample = kept
        fn, lam = PRODUCTS[product], Fraction(lam_text)
        first, second = parse_forest(first_text), parse_forest(second_text)
        if op.probe % 16 == 0:
            out.append((f"{fn.__name__} is commutative", sha, _sha(_emit(fn(second, first, lam)))))
        if sample is not None:
            term, c = sample
            out.append(("shuffle_coefficient equals the expanded coefficient", c,
                        shuffle_coefficient(parse_forest(term), first, second, lam)))
    elif verb == "dual":
        rec_sha, comb_sha, supports = kept
        out.append(("recursive dual equals combinatorial dual", rec_sha, comb_sha))
        if supports is not None:
            out.append(("oracle support equals recursive support", *supports))
    return out
