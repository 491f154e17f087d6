from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import forestshuffle
from forestshuffle import shuffle
from forestshuffle.cli import (
    GRAFT_GUARD,
    RB_DEGREE_GUARD,
    SHUFFLE_GUARD,
    _build_parser,
    _recursion_leaves,
    main,
)
from forestshuffle.dual import FAMILY_GUARD, _dual_term_count
from forestshuffle.forest import MAX_TREE_DEPTH, parse_forest
from forestshuffle.primitives import COUNT_GUARD
from forestshuffle.sampling import default_alphabet, forests_up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShuffleVerb:
    def test_worked_example_weighted(self, capsys):
        code, out, _ = run(capsys, "shuffle", "a b", "c", "--lambda", "1")
        assert code == 0
        assert out.strip() == (
            "1/2 a b*c + 1/2 a b[c] + 1/2 a c[b] + 1/2 a*c b + 1/2 a[c] b + 1/2 b c[a]"
        )

    def test_weight_defaults_to_zero(self, capsys):
        code, out, _ = run(capsys, "shuffle", "a b", "c")
        assert code == 0
        assert "a*c" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "shuffle", "a", "b", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "terms": [
                {"coeff": "1", "forest": "a[b]"},
                {"coeff": "1", "forest": "b[a]"},
            ]
        }

    def test_star_and_diamond_products(self, capsys):
        code, out, _ = run(capsys, "shuffle", "a", "b", "--product", "diamond")
        assert code == 0 and out.strip() == "1 a*b"

    def test_leaf_count_is_the_unit_cases_of_the_product(self, monkeypatch):
        # with every product memo missing, each call of _shuffle or _star on
        # an empty operand is one leaf of the recursion the verb runs
        for memo in (shuffle._shuffle_cache, shuffle._star_cache, shuffle._diamond_cache):
            monkeypatch.setattr(memo, "get", lambda key: None)
        units = []
        for name in ("_shuffle", "_star"):
            def counted(first, second, p, q, real=getattr(shuffle, name)):
                if first.is_empty or second.is_empty:
                    units.append((first, second))
                return real(first, second, p, q)

            monkeypatch.setattr(shuffle, name, counted)
        products = {
            "shuffle": shuffle.forest_shuffle,
            "star": shuffle.star_product,
            "diamond": shuffle.diamond_product,
        }
        operands = forests_up_to(3, default_alphabet(("a", "b")), include_empty=False)
        assert len(operands) == 35
        for product, op in products.items():
            for lam in (0, 1):
                for f in operands:
                    for g in operands:
                        units.clear()
                        op(f, g, lam)
                        leaves = _recursion_leaves(product, f, g, Fraction(lam))
                        assert leaves == len(units), (product, lam, f.key, g.key)


class TestOtherVerbs:
    def test_coproduct(self, capsys):
        code, out, _ = run(capsys, "coproduct", "a[b]")
        assert code == 0
        assert out.strip() == "1 (()) (x) (a[b]) + 1 (a) (x) (b) + 1 (a[b]) (x) (())"

    def test_dual_modes_agree(self, capsys):
        outputs = set()
        for mode in ("recursive", "combinatorial"):
            code, out, _ = run(capsys, "dual", "a[b[c],d]", "--mode", mode)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_dual_oracle_mode(self, capsys):
        code, out, _ = run(capsys, "dual", "a[b]", "--mode", "oracle")
        assert code == 0
        assert out.strip() == (
            "1 (()) (x) (a[b]) + 1 (a) (x) (b) + 1 (a[b]) (x) (()) + 1 (b) (x) (a)"
        )
        code, _, _ = run(capsys, "dual", "x0[x1,x2,x3,x4,x5,x6,x7,x8]", "--mode", "oracle")
        assert code == 4

    def test_families_json(self, capsys):
        code, out, _ = run(capsys, "families", "a[b]", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(row["c_gamma"] == 1 for row in rows)

    def test_pair(self, capsys):
        code, out, _ = run(capsys, "pair", "b[c] d", "b", "c d")
        assert code == 0 and out.strip() == "1/2"

    def test_graft(self, capsys):
        code, out, _ = run(capsys, "graft", "a[b,c]", "d", "--op", "linear")
        assert code == 0 and out.strip() == "0"
        code, out, _ = run(capsys, "graft", "a[b,c]", "d")
        assert code == 0 and out.strip() == "1 a[b,c[d]] + 1 a[b[d],c]"

    def test_primitives_count(self, capsys, tmp_path):
        csv = tmp_path / "pt.csv"
        code, out, _ = run(capsys, "primitives", "--count", "12", "--csv", str(csv))
        assert code == 0
        assert [int(x) for x in out.split()] == [0, 1, 0, 1, 1, 2, 3, 6, 10, 19, 35, 67, 127]
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "0,0" and rows[12] == "12,127"

    # sha256 of primitives --count 300, as printed when each p_n was
    # recomputed from scratch
    COUNT_300_DIGEST = "537409da0dfde7d93547effb156cd28f5e988130ff6f9cdd51f48883d5eec3b9"

    def test_primitives_count_takes_one_pass(self, capsys):
        # recomputing every p_n from scratch took 68 s at N = 1,000
        start = time.perf_counter()
        code, out, _ = run(capsys, "primitives", "--count", "1000")
        assert time.perf_counter() - start < 2
        assert code == 0 and len(out.split()) == 1001
        code, out, _ = run(capsys, "primitives", "--count", "300")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.COUNT_300_DIGEST

    def test_primitives_list(self, capsys):
        code, out, _ = run(capsys, "primitives", "--list", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_rb_identity(self, capsys):
        code, out, _ = run(
            capsys, "rb", "--backend", "forests", "--check", "identity",
            "--lambda", "2/3", "--samples", "20", "--seed", "7",
        )
        assert code == 0
        assert "quasi-universal checks" in out

    def test_rb_corrupted_control_fails(self, capsys):
        code, out, _ = run(
            capsys, "rb", "--backend", "forests", "--corrupt", "--samples", "10", "--seed", "7",
        )
        assert code == 1

    def test_rb_morphism(self, capsys):
        code, out, _ = run(capsys, "rb", "--check", "morphism", "--samples", "10", "--seed", "3")
        assert code == 0


class TestErrorPaths:
    # each prints several hundred kB, far past a pipe's buffer, so the
    # command is still writing when the reader goes
    @pytest.mark.parametrize(
        "argv",
        [
            ("primitives", "--count", "2000"),
            ("dual", " ".join(f"a{i}[b{i}]" for i in range(9)), "--json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_is_status_141_and_quiet(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(forestshuffle.__file__).parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "forestshuffle.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_unwritable_csv_is_status_2_and_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "missing" / "pt.csv"
        code, out, err = run(capsys, "primitives", "--count", "3", "--csv", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_with_list_is_status_2_and_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "pt.csv"
        code, out, err = run(capsys, "primitives", "--list", "5", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--count" in err
        assert not path.exists()

    def test_parse_error_is_status_3(self, capsys):
        code, _, err = run(capsys, "shuffle", "a[", "b")
        assert code == 3
        assert "position" in err

    def test_guard_is_status_4(self, capsys):
        code, _, err = run(capsys, "primitives", "--list", "20")
        assert code == 4

    def test_usage_error_is_status_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["shuffle", "a"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "a[b]", "--lambda", "1"),
            ("coproduct", "a[b]", "--seed", "3"),
            ("verify", "--suite", "shuffle", "--lambda", "5"),
            ("families", "a[b]", "--max-degree", "3"),
            ("graft", "a", "b", "--samples", "2"),
            ("primitives", "--count", "3", "--seed", "1"),
            ("shuffle", "a", "b", "--seed", "1"),
            ("pair", "a[b]", "a", "b", "--max-degree", "3"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_flag_the_verb_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_verb_accepts_only_the_flags_it_reads(self, capsys):
        operands = {
            "shuffle": ["a", "b"], "coproduct": ["a"], "dual": ["a"], "families": ["a"],
            "pair": ["a", "a", "()"], "graft": ["a", "b"], "primitives": ["--count", "1"],
            "rb": [], "verify": [],
        }
        flags = {"--json": [], "--lambda": ["1"], "--max-degree": ["3"], "--seed": ["1"], "--samples": ["2"]}
        parser = _build_parser()
        accepted = set()
        for verb, rest in operands.items():
            for flag, value in flags.items():
                try:
                    parser.parse_args([verb, *rest, flag, *value])
                except SystemExit:
                    continue
                accepted.add((verb, flag))
        sampled = {"--max-degree", "--seed", "--samples"}
        assert accepted == (
            {(verb, "--json") for verb in operands}
            | {(verb, "--lambda") for verb in ("shuffle", "pair", "rb")}
            | {(verb, flag) for verb in ("rb", "verify") for flag in sampled}
        )
        assert len(accepted) == 18

    def test_bad_rational_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["shuffle", "a", "b", "--lambda", "0.5"])
        assert exc.value.code == 2

    def test_deep_tree_is_status_4(self, capsys):
        def linear(depth):
            return "a[" * (depth - 1) + "a" + "]" * (depth - 1)

        for argv in (["coproduct", linear(1200)], ["dual", linear(1200)], ["shuffle", linear(1200), "b"]):
            code, out, err = run(capsys, *argv)
            assert code == 4 and out == ""
            assert "depth" in err and "Traceback" not in err
        # at the limit a structural recursion still runs through every level
        deepest, below = linear(MAX_TREE_DEPTH), linear(MAX_TREE_DEPTH - 1)
        assert parse_forest(deepest).size == MAX_TREE_DEPTH
        code, out, _ = run(capsys, "pair", deepest, "a", below)
        assert code == 0 and int(out) > 0
        code, _, _ = run(capsys, "pair", linear(MAX_TREE_DEPTH + 1), "a", deepest)
        assert code == 4

    def test_coproduct_at_the_limit(self, capsys):
        from forestshuffle.coalgebra import _trunk_cache

        _trunk_cache.clear()  # so the recursion runs through every level
        deepest = "a[" * (MAX_TREE_DEPTH - 1) + "a" + "]" * (MAX_TREE_DEPTH - 1)
        code, out, err = run(capsys, "coproduct", deepest, "--json")
        assert (code, err) == (0, "")
        # a linear tree has a cut between every two levels and at both ends
        assert len(json.loads(out)["terms"]) == MAX_TREE_DEPTH + 1

    def test_branching_trees_at_the_limit(self, capsys):
        def comb(depth):  # a[a[...,b],b]: a branch on every level
            tree = "a"
            for _ in range(depth - 1):
                tree = f"a[{tree},b]"
            return tree

        # two stack frames per level: a tree, then the forest of its children
        deepest, below = comb(MAX_TREE_DEPTH), comb(MAX_TREE_DEPTH - 1)
        for argv in (
            ["shuffle", below, "b"],
            ["shuffle", "b", below],
            ["shuffle", below, "b", "--product", "star"],
            ["shuffle", comb(MAX_TREE_DEPTH - 2), "b[c]", "--product", "diamond"],
            ["dual", deepest],
            ["dual", deepest, "--mode", "combinatorial"],
            # below with its deepest leaf a replaced by a[b]
            ["pair", "a[" * (MAX_TREE_DEPTH - 2) + "a[b]" + ",b]" * (MAX_TREE_DEPTH - 2), "b", below],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and out.strip() not in ("", "0"), argv[:1]
        # a product recurses through both operands
        for first, second in ((deepest, "b"), (comb(MAX_TREE_DEPTH // 2 + 1), comb(MAX_TREE_DEPTH // 2))):
            code, out, err = run(capsys, "shuffle", first, second, "--product", "star")
            assert code == 4 and out == "" and "in sum" in err

    def test_families_guard_is_status_4(self, capsys):
        # 2^n admissible families on a linear tree of n vertices: 17 is the
        # smallest size the guard counts, 30 is far past it
        for n in (17, 30):
            linear = "a[" * (n - 1) + "a" + "]" * (n - 1)
            for argv, counted in (
                (["families", linear], "admissible family count"),
                (["dual", linear, "--mode", "combinatorial"], "dual term count"),
            ):
                start = time.perf_counter()
                code, out, err = run(capsys, *argv)
                assert time.perf_counter() - start < 5
                assert code == 4 and out == ""
                assert f"{counted} is guarded to {FAMILY_GUARD}, got {2**n}" in err

    def test_dual_terms_guard_is_status_4(self, capsys):
        # the terms summed before they merge: 2^n on a chain of n vertices,
        # and 2 + 2^(k-1)·Σ(2^2 - 2) on the forest a0[b0] … a{k-1}[b{k-1}]
        def chain(n):
            return "x0" + "".join(f"[x{i}" for i in range(1, n)) + "]" * (n - 1)

        def pairs(k):
            return " ".join(f"a{i}[b{i}]" for i in range(k))

        for refused in (chain(17), pairs(13), "a" + "[a" * 16 + "]" * 16):
            for mode in ("recursive", "combinatorial"):
                start = time.perf_counter()
                code, out, err = run(capsys, "dual", refused, "--mode", mode)
                assert time.perf_counter() - start < 1
                assert code == 4 and out == ""
                assert "dual term count is guarded to 65536" in err
        assert "got 131072" in run(capsys, "dual", chain(17))[2]
        assert "got 106498" in run(capsys, "dual", pairs(13))[2]
        # one step smaller, both are admitted: at the guard and under it
        assert _dual_term_count(parse_forest(chain(16))) == FAMILY_GUARD
        assert _dual_term_count(parse_forest(pairs(12))) == 49154

    def test_graft_scion_of_two_trees_is_status_2(self, capsys):
        code, out, err = run(capsys, "graft", "a", "a a")
        assert code == 2 and out == ""
        assert "one-tree forest" in err and "2 trees" in err

    # the empty base, and a multi-leaf base under --op linear, return without
    # grafting, but the scion is still checked
    @pytest.mark.parametrize(
        "argv",
        [("graft", "()", "a a"), ("graft", "a[b,c]", "a a", "--op", "linear")],
        ids=["empty-base", "linear-multi-leaf-base"],
    )
    def test_graft_scion_is_checked_before_the_early_returns(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "one-tree forest" in err and "2 trees" in err

    def test_trees_need_whitespace_between_them(self, capsys):
        code, out, err = run(capsys, "shuffle", "a[b,c]d", "e")
        assert code == 3 and out == ""
        assert "whitespace" in err and "position 6" in err
        code, out, _ = run(capsys, "shuffle", "a[b,c] d", "e")
        assert code == 0 and out

    def test_unknown_suite_is_status_2(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert out == ""
        assert err.startswith("error: unknown suite 'nope'") and len(err.splitlines()) == 1

    def test_negative_primitive_count_is_status_2(self, capsys):
        code, out, err = run(capsys, "primitives", "--count", "-1")
        assert code == 2
        assert out == ""
        assert "--count must be at least 0" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-degree", "1"), "--max-degree must be at least 2"),
            (("--max-degree", "-3"), "--max-degree must be at least 2"),
            (("--max-degree", "0", "--samples", "0"), "--max-degree must be at least 2"),
            (("--samples", "0"), "--samples must be at least 1"),
            (("--max-degree", "2", "--samples", "-1"), "--samples must be at least 1"),
        ],
    )
    def test_bad_verify_flags_are_status_2(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", "--suite", "all", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--samples", "0"), "--samples must be at least 1"),
            (("--samples", "-3"), "--samples must be at least 1"),
            (("--backend", "words", "--corrupt"), "--corrupt corrupts the forest operator"),
            (("--check", "morphism", "--backend", "words"), "--check morphism maps forests to words"),
            (("--check", "morphism", "--corrupt"), "--check morphism maps forests to words"),
            (("--max-degree", "-5", "--samples", "3"), "--max-degree must be at least 2"),
            (("--max-degree", "1"), "--max-degree must be at least 2"),
        ],
    )
    def test_bad_rb_flags_are_status_2(self, capsys, flags, message):
        # each of these dropped cases or a flag and still passed
        code, out, err = run(capsys, "rb", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_rb_degree_past_the_guard_is_status_4(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "rb", "--check", "morphism", "--max-degree", str(RB_DEGREE_GUARD + 1))
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert f"rb sample degree is guarded to {RB_DEGREE_GUARD}, got {RB_DEGREE_GUARD + 1}" in err

    def test_primitive_count_past_the_guard_is_status_4(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "primitives", "--count", str(COUNT_GUARD + 1))
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert f"--count is guarded to {COUNT_GUARD}" in err

    def test_shuffle_past_the_guard_is_status_4(self, capsys):
        def chain(depth):  # a[b[a[...]]]
            tree = "ab"[(depth - 1) % 2]
            for level in range(depth - 2, -1, -1):
                tree = f"{'ab'[level % 2]}[{tree}]"
            return tree

        # the leaves of the shuffle recursion on two chains of n vertices:
        # the paths of an n x n grid, and with the weight term the Delannoy
        # number (diagonal steps too)
        ten = parse_forest(chain(10))
        assert _recursion_leaves("shuffle", ten, ten, Fraction(0)) == 184756
        assert _recursion_leaves("shuffle", ten, ten, Fraction(1)) == 8097453
        for argv in (
            [chain(10), chain(10)],
            [chain(10), chain(10), "--lambda", "1"],
            [chain(10), chain(10), "--lambda", "1", "--product", "star"],
            [chain(10), chain(10), "--lambda", "1", "--product", "diamond"],
            [chain(12), chain(12)],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, "shuffle", *argv)
            assert time.perf_counter() - start < 1
            assert code == 4 and out == ""
            assert f"recursion leaf count is guarded to {SHUFFLE_GUARD}" in err

    def test_graft_past_the_guard_is_status_4(self, capsys):
        # every leaf re-sorts the root's 8,000 children: 8.9 s unguarded
        star = "a[" + ",".join(["b"] * 8000) + "]"
        start = time.perf_counter()
        code, out, err = run(capsys, "graft", star, "b")
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert f"graft leaves x vertices is guarded to {GRAFT_GUARD}, got {8000 * 8002}" in err
        # --op linear grafts at most once: a wide base returns zero
        assert run(capsys, "graft", star, "b", "--op", "linear")[:2] == (0, "0\n")

    def test_graft_on_a_comb_at_the_depth_guard_runs(self, capsys):
        comb = "a"  # a[a[...,b],b]: 400 levels, 400 leaves, 799 vertices
        for _ in range(MAX_TREE_DEPTH - 1):
            comb = f"a[{comb},b]"
        assert 400 * (799 + 1) <= GRAFT_GUARD
        code, out, _ = run(capsys, "graft", comb, "b")
        assert code == 0 and out.count(" + ") == 399


class TestVerify:
    def test_deterministic_json(self, capsys):
        args = ["verify", "--suite", "primitives", "--max-degree", "4", "--seed", "42", "--json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        reports = json.loads(out1)
        assert reports[0]["failed"] == 0
        assert "duration" not in reports[0]

    def test_all_suites_reachable(self, capsys):
        from forestshuffle.suites import SUITES

        for name in SUITES:
            code, out, _ = run(
                capsys, "verify", "--suite", name, "--max-degree", "3",
                "--samples", "5", "--seed", "1",
            )
            assert code == 0, (name, out)

    def test_smallest_accepted_flags_run(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--max-degree", "2", "--samples", "1", "--seed", "1",
        )
        assert code == 0, out
        assert out.count("[ok]") == 6

        # --samples 1 and --max-degree 2 still run a case of every check
        # family; only the brute counts are per degree, by design
        from forestshuffle.suites import SuiteReport

        labels: set[str] = set()
        check = SuiteReport.check

        def recording(self, case, *args):
            labels.add(case)
            check(self, case, *args)

        monkeypatch.setattr(SuiteReport, "check", recording)
        families = {}
        for flags in (("--max-degree", "5"), ("--max-degree", "5", "--samples", "1"), ("--max-degree", "2")):
            labels.clear()
            code, out, _ = run(capsys, "verify", "--suite", "all", *flags)
            assert code == 0, out
            families[flags] = {re.sub(r"\(n=\d+\)", "(n=k)", label) for label in labels}
        for flags, ran in families.items():
            assert families["--max-degree", "5"] - ran == set(), flags

    def test_verify_all_at_degree_five(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-degree", "5", "--seed", "42")
        assert code == 0
        assert out.count("[ok]") == 6 and "FAILED" not in out


class TestGoldenOutput:
    """The --json output of the product kernels, of the admissible-family
    routes, of the strict-duality oracle, of the induced-map checks, of the
    verification suites, of pair and of primitives, and the text form of
    families, pinned byte for byte."""

    PAIRS = [
        ("a", "b"),
        ("a[b]", "c"),
        ("a b", "c[a]"),
        ("a[b,c]", "b[a] c"),
        ("a*b[1]", "c c"),
        ("a[b[c]] b", "a[a] 1"),
        ("a[b] a*c", "b[c,a] b"),
    ]

    # sha256 of the concatenated outputs over PAIRS, in order
    DIGESTS = {
        ("shuffle", "0"): "5913ff7f7e3e48fd0feb5158c0e73d54cfa768dad484d2522716c3418aa964a0",
        ("shuffle", "1"): "055012c97c3695ef81031ac8c554c51baf92ba82340c87420af7720e753f181c",
        ("star", "0"): "7506e33ff36a590461d3be1fd72eef7bb7ccffae2553c015e6b3b06a5edfd7b2",
        ("star", "1"): "a746f3463f82ceaaee0fa8aebdb5f38db6d449977170c45eed37f4ff47b4803b",
        ("diamond", "0"): "2b6ed1faf5ba696477c106abf13df65f55259270add552553f94d60f0df3052f",
        ("diamond", "1"): "06bfcc0db944b1f0101875b992376d63321b1dac6ff0fcad01c258acd83b1dad",
    }

    # sha256 of verify --suite all --json --max-degree 5, per seed
    VERIFY_DIGESTS = {
        0: "a561e61b15c0aab7fa5a72b77857a51fb34412e3c589ae150c6c7ca49fe39e76",
        42: "7023255fb80ba82d8e22a889753769e3f18f1ec8ec28312d6ca55a4ffc5785fb",
    }

    # sha256 of verify --suite all --json --seed 0 at the suites' full degrees
    FULL_VERIFY_DIGEST = "c8049b39669cf18239b7755bb7cb0f05db2b0caee93b3c94e70839d53f81d849"

    # sha256 of rb --check morphism --json, per weight
    MORPHISM_DIGESTS = {
        "0": "4f3d9ef5dad356da07fbd0de06a6770e7afde47446b2dfdc1d02e2c1f5a15e34",
        "1": "ea3e07c017f74a3cf61a7819cd0a9b7a0bcd00429ce499c9e09d86135dc064ca",
    }

    # sha256 of rb --check identity --json, per backend and weight
    IDENTITY_DIGESTS = {
        ("forests", "0"): "75c698dac37eb2f861e7ea8038f9609c1b247c3e0b0cd9756a7bd2f0794d8ee3",
        ("forests", "2/3"): "872065d38c71d0c2238d2de389d197450a646fdd474609ba48c3dfc854a6de4c",
        ("words", "0"): "a2959a4819d277e0cddafd40cff459f77d81ead89da5d96921516fcdb8a7ecab",
        ("words", "2/3"): "36f749e03b068a98083baaa2c5638545efa9550b6c405085c4eec745bd125f8b",
    }

    FAMILY_TREES = ["a", "a[b[c],d]", "a[b,b]", "a[b[c],b[c],d]", "a*b[1[c],c[a,a]]", "r[s[u[x],v[y]]]"]
    DUAL_FORESTS = ["a[b] a[b]", "a[b,c[a]] d", "a[b[c],d]", "b[a] b[a] c", "a[b,b[c]] a", "a*b[1] c[a,a]"]

    # sha256 of the concatenated outputs over FAMILY_TREES / DUAL_FORESTS, in order
    FAMILY_DIGEST = "a1d6e49209dd513a893f789a3177701ec8cee23e56d8515b13af815ea12d28c8"
    DUAL_DIGEST = "5e286e43784596a752bbfa6e75d84f4071ac7eadd0f27a9bc8400f8b268bfb5f"
    ORACLE_DIGEST = "1adf9c196cba094a1b8c216fea0ef540f190b6b78166278e4ae74caa4fdd2136"

    # (target, first, second, weight): a fused root, split components, a
    # 1/(kn) prefactor, and a target outside the support
    PAIR_ARGS = [
        ("a[b]", "a", "b", "0"),
        ("a b*c", "a b", "c", "1"),
        ("a[b[a[b]]] c", "a[b]", "b[a] c", "0"),
        ("a*d[b,c]", "a[b,c]", "d", "2"),
        ("a[b,c[d]]", "a[b,c]", "d", "2/3"),
        ("a b", "a", "a", "1"),
    ]

    # sha256 of the concatenated outputs of the forms no other digest reaches
    FAMILY_TEXT_DIGEST = "002da50c5e776abf05ed337a66c08214f67a1cd68b00bfd2db71de1fe57160a6"
    PAIR_DIGEST = "01447457e972f965745aaf0390742943d97136139b6a84ea702afea15cfed861"
    PRIMITIVE_LIST_DIGEST = "6a41306d39d8b2778c26f665ce4b5d6e89434cf7e3f632ef8e75bad7d4faa862"
    PRIMITIVE_COUNT_DIGEST = "a40b8a2bd32f7eea93ccb482b5a6969d237a716b01ffbd20c898c1098b81588a"

    @pytest.mark.parametrize(
        "argvs, expected",
        [
            ([["families", t, "--json"] for t in FAMILY_TREES], FAMILY_DIGEST),
            ([["dual", f, "--mode", "combinatorial", "--json"] for f in DUAL_FORESTS], DUAL_DIGEST),
            ([["dual", f, "--mode", "oracle", "--json"] for f in DUAL_FORESTS], ORACLE_DIGEST),
            ([["families", t] for t in FAMILY_TREES], FAMILY_TEXT_DIGEST),
            ([["pair", f, a, b, "--lambda", lam, "--json"] for f, a, b, lam in PAIR_ARGS], PAIR_DIGEST),
            ([["primitives", "--list", str(n), "--json"] for n in (1, 2, 5, 8)], PRIMITIVE_LIST_DIGEST),
            ([["primitives", "--count", str(n), "--json"] for n in (0, 1, 30)], PRIMITIVE_COUNT_DIGEST),
        ],
        ids=[
            "families",
            "dual-combinatorial",
            "dual-oracle",
            "families-text",
            "pair-json",
            "primitives-list-json",
            "primitives-count-json",
        ],
    )
    def test_family_json_digest(self, capsys, argvs, expected):
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
    def test_verify_json_digest_at_degree_five(self, capsys, seed):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--json", "--max-degree", "5", "--seed", str(seed)
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.VERIFY_DIGESTS[seed]

    def test_verify_json_digest_at_full_degrees(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--json", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.FULL_VERIFY_DIGEST

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "all", "--json", "--max-degree", "4", "--seed", "0"),
            ("dual", "a[b[c],d] e a", "--mode", "combinatorial", "--json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_bytes_do_not_depend_on_the_hash_seed(self, argv):
        # string hashing can change the order of set walks, and with it
        # which results a full memo keeps or recomputes; the bytes must not
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(Path(forestshuffle.__file__).parent.parent),
                       PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "forestshuffle.cli", *argv],
                capture_output=True, env=env, timeout=300, check=False,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("lam", sorted(MORPHISM_DIGESTS))
    def test_rb_morphism_json_digest(self, capsys, lam):
        code, out, _ = run(capsys, "rb", "--check", "morphism", "--json", "--lambda", lam)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.MORPHISM_DIGESTS[lam]

    @pytest.mark.parametrize("backend, lam", sorted(IDENTITY_DIGESTS))
    def test_rb_identity_json_digest(self, capsys, backend, lam):
        code, out, _ = run(capsys, "rb", "--backend", backend, "--json", "--lambda", lam)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.IDENTITY_DIGESTS[backend, lam]

    @pytest.mark.parametrize("product, lam", sorted(DIGESTS))
    def test_product_json_digest(self, capsys, product, lam):
        digest = hashlib.sha256()
        for first, second in self.PAIRS:
            code, out, _ = run(
                capsys, "shuffle", first, second, "--product", product, "--lambda", lam, "--json"
            )
            assert code == 0
            digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == self.DIGESTS[product, lam]
