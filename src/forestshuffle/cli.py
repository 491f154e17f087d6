"""Command-line front end.

Exit codes: 0 success; 1 verification failure; 2 usage error, or a file
the command cannot write; 3 parse error in a tree expression; 4 an
enumeration guard was exceeded; 141 (128 + SIGPIPE) the reader closed
standard output early, which ends the command quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from .coalgebra import trunk_coproduct
from .dual import (
    FAMILY_GUARD,
    _dual_term_count,
    admissible_families,
    dual_combinatorial,
    dual_oracle,
    dual_recursive,
    graft_leaves,
    graft_linear,
)
from .forest import (
    MAX_TREE_DEPTH,
    Forest,
    GuardExceeded,
    TreeSyntaxError,
    _below,
    _preorder,
    leaf_refs,
    parse_forest,
    parse_tree,
)
from .linalg import LinComb, TensorComb, lincomb_json, render_lincomb, tensor_json
from .primitives import COUNT_GUARD, _rooted_counts, enumerate_shapes, is_primitive
from .rota_baxter import (
    corrupted_forest_algebra,
    diamond_morphism_sides,
    forest_algebra,
    intertwining_sides,
    rb_residual,
    word_algebra,
)
from .sampling import default_alphabet, random_forest, random_word
from .shuffle import diamond_product, forest_shuffle, shuffle_coefficient, star_product
from .suites import SuiteConfig, SuiteReport, run_suite

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?$")

# rb draws operands of up to --max-degree vertices (words of half that
# length), and the products behind its checks grow exponentially with them.
# Single runs at --samples 3: morphism took at most 1.6 s at degree 16 on 30
# seeds but 44 s at degree 18 on one; words took at most 0.9 s at degree 20
# on 4 seeds but 70 s at degree 22 on one
RB_DEGREE_GUARD = 16

# Most leaves the recursion of the chosen product may have on the shuffle
# verb's operands (see _recursion_leaves).  The time per leaf grows with the
# operands' branching and the weight.  Two single runs each on a 2-core host,
# CPython 3.11: the product of two two-letter chains a[b[a[...]]] took 2.0-2.4
# us a leaf at weight 0 (0.38-0.45 s on 184,756 leaves at depth 10) and 6.6-7.2
# us at weight 1 (9.6-10.6 s on 1,462,563 at depth 9); the whole verb on 22
# random {a,b} tree/forest pairs of 9-30 vertices an operand and 30,038 to
# 62,366 leaves at weight 1 took 17-52 us a leaf (2.5 s at most)
SHUFFLE_GUARD = 2**16

# Most leaves x (base + scion vertices) the graft verb's --op leaves may take.
# graft_at rebuilds the path to the leaf and re-sorts the children along it,
# once per leaf.  Single runs on a 2-core host, CPython 3.11: stars of 2,000
# and 4,000 leaves took 0.56 and 1.97 s, a 400-level comb a[a[...,b],b] (400
# leaves, 320,000) 0.56 s, and a 300-level path ending in 2,000 leaves 10.5 s
GRAFT_GUARD = 2**19


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a rational like 2/3, got {text!r}")
    return Fraction(text)


def _build_parser() -> argparse.ArgumentParser:
    # each verb takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--lambda", dest="weight", type=_rational, default=Fraction(0),
                          help="quasi-shuffle weight as p/q (default 0)")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--max-degree", type=int, default=None, help="cap exhaustive degrees")
    sampled.add_argument("--seed", type=int, default=0, help="seed for sampled cases")
    sampled.add_argument("--samples", type=int, default=None, help="cap sampled case counts")

    parser = argparse.ArgumentParser(
        prog="forestshuffle",
        description="Exact shuffle products, coproducts and Rota-Baxter checks on decorated rooted forests.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("shuffle", parents=[common, weighted], help="shuffle of two forests")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--product", choices=("shuffle", "star", "diamond"), default="shuffle")

    p = sub.add_parser("coproduct", parents=[common], help="trunk coproduct of a tree")
    p.add_argument("tree")

    p = sub.add_parser("dual", parents=[common], help="dual coproduct of a forest")
    p.add_argument("forest")
    p.add_argument("--mode", choices=("recursive", "combinatorial", "oracle"), default="recursive")

    p = sub.add_parser("families", parents=[common], help="admissible vertex families of a tree")
    p.add_argument("tree")

    p = sub.add_parser("pair", parents=[common, weighted], help="coefficient of FOREST in F1 shuffle F2")
    p.add_argument("forest")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("graft", parents=[common], help="grafting products")
    p.add_argument("base")
    p.add_argument("scion")
    p.add_argument("--op", choices=("leaves", "linear"), default="leaves",
                   help="graft on every leaf, or only when the base has a single leaf")

    p = sub.add_parser("primitives", parents=[common], help="primitive-tree counts and shapes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", type=int, metavar="N", help="print p_0..p_N, one per line")
    group.add_argument("--list", type=int, metavar="N", dest="list_size",
                       help="print the primitive shapes with N vertices")
    p.add_argument("--csv", metavar="PATH", help="also write n,p_n rows to PATH")

    p = sub.add_parser("rb", parents=[common, weighted, sampled], help="quasi-universal Rota-Baxter checks")
    p.add_argument("--backend", choices=("words", "forests"), default="forests")
    p.add_argument("--check", choices=("identity", "morphism"), default="identity")
    p.add_argument("--corrupt", action="store_true", help="use the corrupted negative-control operator")

    p = sub.add_parser("verify", parents=[common, sampled], help="run verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    return parser


def _print_json(payload) -> None:
    """The indented JSON writer of every verb but the compact ``pair`` and
    ``primitives --count``."""
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit(x: LinComb, as_json: bool) -> None:
    if as_json:
        _print_json(tensor_json(x) if isinstance(x, TensorComb) else lincomb_json(x))
    else:
        print(render_lincomb(x))


def _depth(forest: Forest) -> int:
    """Vertices on the longest root-to-leaf path."""
    return max([len(ref) + 1 for t in forest.trees for ref, _ in _preorder(t)], default=0)


def _recursion_leaves(product: str, first: Forest, second: Forest, lam: Fraction) -> int:
    """The leaves of the recursion tree ``product`` runs on two operands,
    counted without expanding, by the same recursion on integers (memoized
    per call).  Each leaf is a unit case, so the count bounds the terms of
    the expansion before they merge."""
    return _count_leaves(product, first, second, lam, {})


# one frame per level, like the products (see forest.MAX_TREE_DEPTH)
def _count_leaves(
    op: str, f: Forest, g: Forest, lam: Fraction, memo: dict[tuple[str, str, str], int]
) -> int:
    key = (op, f.key, g.key)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = 0
    if op != "diamond" and (f.is_empty or g.is_empty):
        n = 1  # the empty forest is the unit
    elif op != "star" and not (f.is_tree and g.is_tree):
        # the 1/(kn) component split
        for t in f.trees:
            for u in g.trees:
                n += _count_leaves(op, t.as_forest(), u.as_forest(), lam, memo)
    elif op == "shuffle":
        below_f, below_g = _below(f.trees[0]), _below(g.trees[0])
        n = _count_leaves(op, below_f, g, lam, memo) + _count_leaves(op, f, below_g, lam, memo)
        if lam:
            n += _count_leaves(op, below_f, below_g, lam, memo)
    elif op == "diamond":
        # two trees fuse their roots
        n = _count_leaves("star", _below(f.trees[0]), _below(g.trees[0]), lam, memo)
    else:
        # star: a root of either operand comes off, plus the weight term
        for t in f.trees:
            n += _count_leaves(op, _below(t), g, lam, memo)
        for u in g.trees:
            n += _count_leaves(op, f, _below(u), lam, memo)
        if lam:
            n += _count_leaves("diamond", f, g, lam, memo)
    memo[key] = n
    return n


def _cmd_shuffle(args) -> int:
    first, second = parse_forest(args.first), parse_forest(args.second)
    # the products peel one root of either operand per level
    GuardExceeded.check(_depth(first) + _depth(second), MAX_TREE_DEPTH, "operand depth in sum")
    leaves = _recursion_leaves(args.product, first, second, args.weight)
    GuardExceeded.check(leaves, SHUFFLE_GUARD, "recursion leaf count")
    op = {"shuffle": forest_shuffle, "star": star_product, "diamond": diamond_product}[args.product]
    _emit(op(first, second, args.weight), args.json)
    return 0


def _cmd_coproduct(args) -> int:
    _emit(trunk_coproduct(parse_forest(args.tree)), args.json)
    return 0


def _cmd_dual(args) -> int:
    forest = parse_forest(args.forest)
    # the oracle has its own guard; the two formulas sum the same terms
    terms = _dual_term_count(forest) if args.mode != "oracle" else 0
    GuardExceeded.check(terms, FAMILY_GUARD, "dual term count")
    mode = {"recursive": dual_recursive, "combinatorial": dual_combinatorial, "oracle": dual_oracle}
    _emit(mode[args.mode](forest), args.json)
    return 0


def _cmd_families(args) -> int:
    tree = parse_tree(args.tree)
    rows = [
        {
            "gamma": [list(ref) for ref in sorted(fam.gamma)],
            "t_gamma": fam.t_gamma.key,
            "t_complement": fam.t_complement.key,
            "c_gamma": fam.c_gamma,
        }
        for fam in admissible_families(tree)
    ]
    if args.json:
        _print_json(rows)
    else:
        for row in rows:
            print(
                f"gamma={row['gamma']} c={row['c_gamma']} "
                f"t_gamma={row['t_gamma']} t_complement={row['t_complement']}"
            )
    return 0


def _cmd_pair(args) -> int:
    c = shuffle_coefficient(
        parse_forest(args.forest), parse_forest(args.first), parse_forest(args.second), args.weight
    )
    if args.json:
        print(json.dumps({"coeff": str(c)}))
    else:
        print(c)
    return 0


def _cmd_graft(args) -> int:
    base, scion = parse_forest(args.base), parse_forest(args.scion)
    if args.op == "leaves":
        # one graft per leaf, each rebuilding the base around the scion
        leaves = sum([len(leaf_refs(t)) for t in base.trees])
        GuardExceeded.check(leaves * (base.size + scion.size), GRAFT_GUARD, "graft leaves x vertices")
    op = graft_leaves if args.op == "leaves" else graft_linear
    _emit(op(base, scion), args.json)
    return 0


def _cmd_primitives(args) -> int:
    if args.list_size is not None:
        if args.csv:
            raise ValueError("--csv writes the --count table: --list takes no --csv")
        shapes = [s for s in enumerate_shapes(args.list_size) if is_primitive(s)]
        if args.json:
            _print_json([s.key for s in shapes])
        else:
            for s in shapes:
                print(s.key)
        return 0

    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    GuardExceeded.check(args.count, COUNT_GUARD, "--count")
    # one pass gives every p_n up to N
    values = _rooted_counts(args.count, single_child=False)
    # the file first: a path it cannot write leaves stdout empty
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.writelines(f"{n},{v}\n" for n, v in enumerate(values))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(values))
    else:
        for v in values:
            print(v)
    return 0


def _check_sampled(args) -> None:
    # smaller values leave the sampled checks an empty degree range or no cases
    if args.max_degree is not None and args.max_degree < 2:
        raise ValueError(f"--max-degree must be at least 2, got {args.max_degree}")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")


def _print_failures(report: SuiteReport) -> None:
    for f in report.failures[:20]:
        print(f"  FAIL {f.case} on {f.inputs}")
        print(f"       expected: {f.expected}")
        print(f"       actual:   {f.actual}")


def _cmd_rb(args) -> int:
    # a flag the chosen check would drop is an error, not a silent pass
    _check_sampled(args)
    if args.check == "morphism" and (args.backend == "words" or args.corrupt):
        raise ValueError("--check morphism maps forests to words: it takes no --backend words or --corrupt")
    if args.corrupt and args.backend == "words":
        raise ValueError("--corrupt corrupts the forest operator: it needs --backend forests")
    samples = args.samples if args.samples is not None else 100
    degree = args.max_degree if args.max_degree is not None else 5
    GuardExceeded.check(degree, RB_DEGREE_GUARD, "rb sample degree")
    rng = random.Random(args.seed)
    alphabet = default_alphabet(("a", "b"))
    rep = SuiteReport(suite="rb", seed=args.seed)
    lam = args.weight

    if args.check == "identity":
        if args.backend == "words":
            algebra, draw, size = word_algebra(lam), random_word, degree // 2
            case = f"word Rota-Baxter identity random (weight {lam})"
        else:
            algebra = corrupted_forest_algebra(lam) if args.corrupt else forest_algebra(lam)
            draw, size = random_forest, degree - 1
            case = f"forest Rota-Baxter identity random (weight {lam})"
        for _ in range(samples):
            x = LinComb.of(draw(rng, rng.randint(1, size), alphabet))
            y = LinComb.of(draw(rng, rng.randint(1, size), alphabet))
            rep.check(case, f"{render_lincomb(x)} | {render_lincomb(y)}", LinComb.zero(), rb_residual(algebra, x, y))
        name = algebra.name
    else:
        walg = word_algebra(lam)
        for _ in range(samples):
            f = random_forest(rng, rng.randint(1, degree - 1), alphabet)
            rep.check(f"induced map intertwines the operators (weight {lam})", f.key, *intertwining_sides(f, walg))
            g = random_forest(rng, rng.randint(1, 3), alphabet)
            rep.check(
                f"induced map is a diamond morphism (weight {lam})",
                f"{f.key} | {g.key}",
                *diamond_morphism_sides(f, g, walg),
            )
        name = "forests -> words"

    if args.json:
        payload = {
            "kind": "quasi-universal checks",
            "algebra": name,
            "weight": str(lam),
            "check": args.check,
            "cases": rep.cases,
            "failed": rep.failed,
            "failures": rep.to_json()["failures"],
            "seed": args.seed,
        }
        _print_json(payload)
    else:
        print(f"quasi-universal checks [{name}, weight {lam}, {args.check}]: {rep.passed}/{rep.cases} passed")
        _print_failures(rep)
    return 1 if rep.failed else 0


def _cmd_verify(args) -> int:
    _check_sampled(args)
    cfg = SuiteConfig(max_degree=args.max_degree, samples=args.samples, seed=args.seed)
    try:
        reports = run_suite(args.suite, cfg)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        _print_json([r.to_json() for r in reports])
    else:
        for r in reports:
            status = "ok" if r.failed == 0 else "FAILED"
            print(
                f"suite {r.suite}: {r.passed}/{r.cases} passed, {r.failed} failed "
                f"[{status}] ({r.duration:.2f}s, seed {r.seed})"
            )
            for note in r.notes:
                print(f"  note: {note}")
            _print_failures(r)
    return 1 if any(r.failed for r in reports) else 0


_COMMANDS = {
    "shuffle": _cmd_shuffle,
    "coproduct": _cmd_coproduct,
    "dual": _cmd_dual,
    "families": _cmd_families,
    "pair": _cmd_pair,
    "graft": _cmd_graft,
    "primitives": _cmd_primitives,
    "rb": _cmd_rb,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.verb](args)
        # a closed reader must show here, not in the exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point fd 1 at devnull, so the interpreter's exit flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except TreeSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
