"""The pairing and summary of tools/bench_pairs.py, on synthetic run output."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _stdout(wall: float, ops: float, digest: str) -> str:
    report = {"workload": "products", "out_sha256": digest}
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "ops_per_s": {"value": ops, "unit": "1/s"}},
    }
    return "perfbench: a line\nperfbench report " + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def _run(seed: int, side: str, wall: float, ops: float, digest: str = "d", workload: str = "products") -> dict:
    report, result = bench_pairs.parse_output(_stdout(wall, ops, digest))
    return {"report": report, "result": result, "seed": seed, "side": side, "workload": workload}


def test_seeds_and_alternation():
    assert bench_pairs.parse_seeds("3..6") == [3, 4, 5, 6]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("6..3")
    assert bench_pairs.side_order(3) == ("parent", "change")
    assert bench_pairs.side_order(4) == ("change", "parent")
    assert bench_pairs.command("duality", 5) == [
        "python3", "perfbench/run.py", "--workload", "duality", "--seed", "5",
        "--seconds", "20", "--trace", "0",
    ]


def test_output_needs_a_report_line():
    report, result = bench_pairs.parse_output(_stdout(1.5, 2.0, "x"))
    assert report["out_sha256"] == "x" and result["metrics"]["wall_s"]["value"] == 1.5
    with pytest.raises(ValueError):
        bench_pairs.parse_output('{"metrics": {}}\n')


def test_summary_of_synthetic_pairs():
    parent = [4.0, 4.2, 4.1, 4.4, 4.3]
    change = [3.5, 3.6, 4.1, 3.4, 4.5]  # wins 3, ties 1, loses 1
    runs = [_run(s, "parent", w, 10 / w) for s, w in enumerate(parent)]
    runs += [_run(s, "change", w, 10 / w) for s, w in enumerate(change)]
    runs.append(_run(9, "parent", 1.0, 10.0))  # a seed without its pair is left out
    runs.append(_run(0, "parent", 4.0, 2.5, workload="verify"))
    runs.append(_run(0, "change", 4.0, 2.5, digest="other", workload="verify"))
    summary = bench_pairs.summarize(runs, METRICS)

    wall = summary["products"]["wall_s"]
    assert wall["parent"] == {"median": 4.2, "q1": 4.1, "q3": 4.3, "iqr": pytest.approx(0.2), "n": 5}
    assert wall["change"]["median"] == 3.6 and wall["change"]["n"] == 5
    assert wall["change"]["q1"] == 3.5 and wall["change"]["q3"] == 4.1
    assert wall["change_wins"] == "3 of 5"
    # higher is better for a rate: the same pairs win
    assert summary["products"]["ops_per_s"]["change_wins"] == "3 of 5"
    assert summary["products"]["out_sha256_equal_on_every_seed"] is True
    assert summary["verify"]["out_sha256_equal_on_every_seed"] is False
    assert summary["verify"]["wall_s"]["parent"]["iqr"] == 0 and summary["verify"]["wall_s"]["change_wins"] == "0 of 1"


def test_a_failing_run_keeps_the_finished_pairs(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH.json"
    kept = [_run(0, side, 4.0, 2.5, workload="verify") for side in ("parent", "change")]
    out.write_text(json.dumps({"description": "kept", "runs": kept}))

    def run_once(directory, workload, seed):
        if seed == 3 and directory.name == "change":
            raise bench_pairs.RunFailed(2, "Traceback (most recent call last):\nValueError: boom\n")
        return bench_pairs.parse_output(_stdout(3.0 if directory.name == "change" else 4.0, 1.0, "d"))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "products",
            "--seeds", "1..4", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == err[-1:]
    assert err[-1] == "error: the change run of products seed 3 exited 2: ValueError: boom"
    written = json.loads(out.read_text())
    # seed 3 runs the parent first: its unpaired run is left out with the later seeds
    assert [(r["workload"], r["seed"], r["side"]) for r in written["runs"]] == [
        ("verify", 0, "parent"), ("verify", 0, "change"),
        ("products", 1, "parent"), ("products", 1, "change"),
        ("products", 2, "change"), ("products", 2, "parent"),
    ]
    assert written["description"] == "kept"
    assert written["summary"]["products"]["wall_s"]["change_wins"] == "2 of 2"


def test_summary_ends_the_output(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    walls = {("parent", 1): 4.0, ("change", 1): 3.0, ("parent", 2): 4.2, ("change", 2): 4.5,
             ("parent", 3): 4.4, ("change", 3): 3.5}

    def run_once(directory, workload, seed):
        wall = walls[directory.name, seed]
        return bench_pairs.parse_output(_stdout(wall, 10 / wall, "d"))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "duality",
            "--seeds", "1..3", "--out", str(tmp_path / "BENCH.json")]
    assert bench_pairs.main(argv) == 0
    assert capsys.readouterr().err.splitlines()[-3:] == [
        "wall_s: parent 4.2 [0.2], change 3.5, change wins 2 of 3, shift -16.7% (bound 25.0%)",
        "ops_per_s: parent 2.381 [0.11], change 2.857, change wins 2 of 3, shift -20.0% (bound 25.0%)",
        "out_sha256: equal on every seed",
    ]


def test_a_shift_past_its_bound_is_flagged(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))

    def run_once(directory, workload, seed):
        # wall_s 20% worse, inside its bound; ops_per_s 30% worse, past it
        if directory.name == "change":
            return bench_pairs.parse_output(_stdout(4.8, 7.0, "d"))
        return bench_pairs.parse_output(_stdout(4.0, 10.0, "d"))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "products",
            "--seeds", "1..2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    summary = json.loads(out.read_text())["summary"]["products"]
    assert (summary["wall_s"]["shift"], summary["wall_s"]["bound"]) == (pytest.approx(0.2), 0.25)
    assert summary["wall_s"]["past_bound"] is False
    assert (summary["ops_per_s"]["shift"], summary["ops_per_s"]["bound"]) == (pytest.approx(0.3), 0.25)
    assert summary["ops_per_s"]["past_bound"] is True
    assert capsys.readouterr().err.splitlines()[-3:-1] == [
        "wall_s: parent 4 [0], change 4.8, change wins 0 of 2, shift +20.0% (bound 25.0%)",
        "ops_per_s: parent 10 [0], change 7, change wins 0 of 2, shift +30.0% (bound 25.0%) PAST BOUND",
    ]


def test_summary_lines_name_a_digest_mismatch():
    runs = [_run(0, "parent", 4.0, 2.5), _run(0, "change", 3.0, 3.0, digest="other")]
    lines = bench_pairs.summary_lines(bench_pairs.summarize(runs, METRICS)["products"], METRICS)
    assert lines == [
        "wall_s: parent 4 [0], change 3, change wins 1 of 1, shift -25.0% (bound 25.0%)",
        "ops_per_s: parent 2.5 [0], change 3, change wins 1 of 1, shift -20.0% (bound 25.0%)",
        "out_sha256: differs on some seed",
    ]


def test_a_shift_inside_the_parent_iqr_is_marked():
    # values exact in binary, so the medians' gap meets the IQR exactly
    parent = [(4.0, 2.0), (4.5, 2.5), (4.25, 3.0), (5.0, 3.5), (4.75, 4.0)]  # IQRs 0.5 and 1
    change = [(5.0, 1.0), (4.25, 1.5), (5.25, 1.75), (5.5, 2.0), (4.5, 2.5)]
    runs = [_run(s, "parent", w, ops) for s, (w, ops) in enumerate(parent)]
    runs += [_run(s, "change", w, ops) for s, (w, ops) in enumerate(change)]
    rows = bench_pairs.summarize(runs, METRICS)["products"]
    # medians 4.5 and 5, as far apart as the parent's quartiles: inside
    assert rows["wall_s"]["inside_parent_iqr"] is True
    # medians 3 and 1.75, past the parent's IQR of 1
    assert rows["ops_per_s"]["inside_parent_iqr"] is False
    assert bench_pairs.summary_lines(rows, METRICS)[:2] == [
        "wall_s: parent 4.5 [0.5], change 5, change wins 2 of 5, shift +11.1% (bound 25.0%) inside parent IQR",
        "ops_per_s: parent 3 [1], change 1.75, change wins 0 of 5, shift +41.7% (bound 25.0%) PAST BOUND",
    ]
    # equal medians are inside even a zero IQR
    rows = bench_pairs.summarize([_run(0, side, 4.0, 2.5) for side in bench_pairs.SIDES], METRICS)["products"]
    assert rows["wall_s"]["inside_parent_iqr"] is True and rows["ops_per_s"]["inside_parent_iqr"] is True


def test_a_workload_list_runs_every_workload_per_seed(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH.json"
    old = [_run(0, side, 4.0, 2.5, workload=w) for w in ("duality", "products") for side in bench_pairs.SIDES]
    out.write_text(json.dumps({"description": "kept", "runs": old}))
    calls = []

    def run_once(directory, workload, seed):
        calls.append((seed, workload, directory.name))
        wall = {"verify": 3.0, "products": 2.0}[workload] + (0.5 if directory.name == "parent" else 0)
        return bench_pairs.parse_output(_stdout(wall, 10 / wall, workload))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "verify,products",
            "--seeds", "1..2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        (1, "verify", "parent"), (1, "verify", "change"), (1, "products", "parent"), (1, "products", "change"),
        (2, "verify", "change"), (2, "verify", "parent"), (2, "products", "change"), (2, "products", "parent"),
    ]
    written = json.loads(out.read_text())
    # the listed workloads' old runs are replaced, the others kept
    assert [(r["workload"], r["seed"]) for r in written["runs"][:2]] == [("duality", 0)] * 2
    assert sorted({(r["workload"], r["seed"]) for r in written["runs"][2:]}) == [
        ("products", 1), ("products", 2), ("verify", 1), ("verify", 2),
    ]
    assert written["command"].startswith("python3 perfbench/run.py --workload {duality,verify,products} ")
    assert set(written["summary"]) == {"duality", "verify", "products"}
    assert written["summary"]["products"]["wall_s"]["change_wins"] == "2 of 2"
    err = capsys.readouterr().err.splitlines()
    assert err[-8:] == [
        "verify:",
        "wall_s: parent 3.5 [0], change 3, change wins 2 of 2, shift -14.3% (bound 25.0%)",
        "ops_per_s: parent 2.857 [0], change 3.333, change wins 2 of 2, shift -16.7% (bound 25.0%)",
        "out_sha256: equal on every seed",
        "products:",
        "wall_s: parent 2.5 [0], change 2, change wins 2 of 2, shift -20.0% (bound 25.0%)",
        "ops_per_s: parent 4 [0], change 5, change wins 2 of 2, shift -25.0% (bound 25.0%)",
        "out_sha256: equal on every seed",
    ]


def test_workload_lists():
    assert bench_pairs.parse_workloads("verify") == ["verify"]
    assert bench_pairs.parse_workloads("verify,products,duality") == ["verify", "products", "duality"]
    for bad in ("", "verify,", "verify,verify"):
        with pytest.raises(ValueError):
            bench_pairs.parse_workloads(bad)


def test_seed_lists():
    assert bench_pairs.parse_seeds("1..10,11") == list(range(1, 12))
    assert bench_pairs.parse_seeds("11,1..3,7") == [11, 1, 2, 3, 7]
    for bad in ("", ",", "1..10,", ",11", "1..", "..3", "1..3,,5", "1..3,2", "4,4", "6..3,7"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)
    assert bench_pairs.format_seeds({7}) == "7"
    assert bench_pairs.format_seeds(set(range(1, 11)) | {12}) == "1..10,12"
    assert bench_pairs.format_seeds({9, 1, 3, 4}) == "1,3..4,9"
    for text in ("1..10,12", "1,3..4,9", "5"):
        assert bench_pairs.format_seeds(set(bench_pairs.parse_seeds(text))) == text


def test_the_file_names_each_workloads_exact_seeds(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH.json"
    old = [_run(s, side, 4.0, 2.5, workload="duality") for s in (1, 2, 4) for side in bench_pairs.SIDES]
    out.write_text(json.dumps({"description": "kept", "runs": old}))
    seeds = []

    def run_once(directory, workload, seed):
        seeds.append(seed)
        return bench_pairs.parse_output(_stdout(3.0, 1.0, "d"))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "products",
            "--seeds", "1..3,12", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert seeds == [1, 1, 2, 2, 3, 3, 12, 12]
    # a range would call {1..3, 12} "1..12"
    assert "--seed {1..2,4 on duality, 1..3,12 on products} " in json.loads(out.read_text())["command"]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv[:-4] + ["--seeds", "1..3,3", "--out", str(out)])
    assert "argument --seeds: invalid parse_seeds value: '1..3,3'" in capsys.readouterr().err


def _pytest_stdout(passed: int, xfailed: int = 1, failed: int = 0, seconds: float = 90.61) -> str:
    """A Tier-1 run's stdout as ``pytest -q --durations=10`` prints it."""
    rows = [f"{13.4 - k:.2f}s call     tests/test_x.py::test_{k}" for k in range(9)]
    rows.append("2.10s setup    tests/test_y.py::TestZ::test_w[a b]")
    counts = ([f"{failed} failed"] if failed else []) + [f"{passed} passed", f"{xfailed} xfailed"]
    return "\n".join(
        ["....x" + "." * 60 + " [ 15%]", "=" * 29 + " slowest 10 durations " + "=" * 29, *rows,
         "(9 durations < 0.005s hidden.  Use -vv to show these durations.)",
         f"{', '.join(counts)} in {seconds}s (0:01:30)"]
    ) + "\n"


def test_tier1_output_is_parsed():
    report, result = bench_pairs.parse_tier1_output(_pytest_stdout(424, failed=1), 91.5)
    assert result == {"metrics": {"wall_s": {"value": 91.5, "unit": "s"}}}
    assert report["counts"] == {"passed": 424, "xfailed": 1, "failed": 1}
    assert report["summary"] == "1 failed, 424 passed, 1 xfailed in 90.61s (0:01:30)"
    assert len(report["slowest"]) == 10
    assert report["slowest"][0] == {"s": 13.4, "when": "call", "test": "tests/test_x.py::test_0"}
    assert report["slowest"][-1] == {"s": 2.1, "when": "setup", "test": "tests/test_y.py::TestZ::test_w[a b]"}
    # without -q the summary line is framed; an error and a warning are named in the singular
    framed = "= 1 error, 3 passed, 1 warning in 2.00s ="
    assert bench_pairs.parse_tier1_output(framed, 2.5)[0]["counts"] == {
        "passed": 3, "xfailed": 0, "failed": 0, "errors": 1, "warnings": 1,
    }
    with pytest.raises(ValueError):
        bench_pairs.parse_tier1_output("no tests ran\n", 1.0)


def test_a_tier1_workload_is_summarized_beside_the_others(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH.json"
    old = [_run(s, side, 4.0, 2.5) for s in (1, 2) for side in bench_pairs.SIDES]
    out.write_text(json.dumps({"description": "kept", "runs": old}))
    walls = {("parent", 1): 90.0, ("change", 1): 80.0, ("parent", 2): 92.0, ("change", 2): 84.0,
             ("parent", 3): 95.0, ("change", 3): 82.0}

    def run_once(directory, workload, seed):
        assert workload == "tier1"
        passed = 425 if directory.name == "parent" or seed < 3 else 424
        return bench_pairs.parse_tier1_output(_pytest_stdout(passed), walls[directory.name, seed])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "tier1",
            "--seeds", "1..3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["side"]) for r in written["runs"]][4:] == [
        ("tier1", 1, "parent"), ("tier1", 1, "change"), ("tier1", 2, "change"), ("tier1", 2, "parent"),
        ("tier1", 3, "parent"), ("tier1", 3, "change"),
    ]
    assert len(written["runs"][-1]["report"]["slowest"]) == 10
    assert written["command"] == (
        "python3 perfbench/run.py --workload {products} --seed {1..2 on products} --seconds 20 --trace 0; "
        "PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors --durations=10 (tier1, seeds 1..3)"
    )
    # tier1 has one metric, wall_s, and compares its outcome counts
    rows = written["summary"]["tier1"]
    assert set(rows) == {"wall_s", "counts_equal_on_every_seed"}
    assert rows["wall_s"]["parent"]["median"] == 92.0 and rows["wall_s"]["change"]["median"] == 82.0
    assert rows["wall_s"]["change_wins"] == "3 of 3" and rows["counts_equal_on_every_seed"] is False
    assert written["summary"]["products"]["out_sha256_equal_on_every_seed"] is True
    assert capsys.readouterr().err.splitlines()[-3:] == [
        "tier1:",
        "wall_s: parent 92 [2.5], change 82, change wins 3 of 3, shift -10.9% (bound 25.0%)",
        "counts: differ on some seed",
    ]


FULL_METRICS = METRICS + [{"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.2}]


def test_measured_reads_the_childs_own_peak(tmp_path):
    # Linux starts a child's peak at its parent's, so the harness runs in a
    # fresh process, as it does from the command line; a large child comes
    # first, whose peak RUSAGE_CHILDREN would report for the small one too
    script = f"""
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {str(_PATH)!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
big = "import sys; b = bytearray(64 << 20); sys.stdout.write('x' * 3)"
small = "import sys; sys.stderr.write('y'); sys.exit(3)"
runs = [bench_pairs.measured([sys.executable, "-c", code], pathlib.Path("."), {{}}) for code in (big, small)]
print(json.dumps([[code, out.decode(), err, wall, rss] for code, out, err, wall, rss in runs]))
"""
    harness = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, check=True)
    big, small = json.loads(harness.stdout)
    assert big[:3] == [0, "xxx", ""] and big[3] > 0 and big[4] > 64
    assert small[:3] == [3, "", "y"] and 0 < small[4] < 64


def test_a_verify_full_workload_is_summarized_beside_the_others(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": FULL_METRICS}))
    out = tmp_path / "BENCH.json"
    walls = {("parent", 1): 7.0, ("change", 1): 6.0, ("parent", 2): 7.4, ("change", 2): 6.2}

    def run_once(directory, workload, seed):
        assert workload == "verify-full"
        metrics = {"wall_s": {"value": walls[directory.name, seed], "unit": "s"},
                   "peak_rss_mib": {"value": 40.0, "unit": "MiB"}}
        return {"out_sha256": f"seed{seed}"}, {"metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--workload", "verify-full",
            "--seeds", "1..2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert written["command"] == (
        "PYTHONPATH=src python3 -m forestshuffle.cli verify --suite all --json --seed {1..2} (verify-full)"
    )
    rows = written["summary"]["verify-full"]
    assert set(rows) == {"wall_s", "peak_rss_mib", "out_sha256_equal_on_every_seed"}
    assert rows["wall_s"]["change_wins"] == "2 of 2" and rows["peak_rss_mib"]["change_wins"] == "0 of 2"
    assert rows["out_sha256_equal_on_every_seed"] is True
    assert capsys.readouterr().err.splitlines()[-4:] == [
        "verify-full:",
        "wall_s: parent 7.2 [0.2], change 6.1, change wins 2 of 2, shift -15.3% (bound 25.0%)",
        "peak_rss_mib: parent 40 [0], change 40, change wins 0 of 2, shift +0.0% (bound 20.0%) inside parent IQR",
        "out_sha256: equal on every seed",
    ]


_JSON_OUT = b'[\n  {"suite": "dual"}\n]\n'


def _digest_read(code):
    report = {"out_sha256": bench_pairs.hashlib.sha256(_JSON_OUT).hexdigest()}
    return report, {"metrics": {"wall_s": {"value": 7.25, "unit": "s"}, "peak_rss_mib": {"value": 41.5, "unit": "MiB"}}}


def _comb(depth):  # a[a[...,b],b]: a branch on every level
    tree = "a"
    for _ in range(depth - 1):
        tree = f"a[{tree},b]"
    return tree


# per kind: the argv of seed 3, whether the checkout's src comes first, the
# exit codes it accepts, the stdout of an accepted run and what the run reads
RUN_CASES = {
    "products": (
        ["python3", "perfbench/run.py", "--workload", "products", "--seed", "3", "--seconds", "20", "--trace", "0"],
        False, (0,), lambda code: _stdout(1.5, 2.0, "x").encode(),
        lambda code: bench_pairs.parse_output(_stdout(1.5, 2.0, "x")),
    ),
    "tier1": (
        ["python3", "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"],
        True, (0, 1), lambda code: _pytest_stdout(425, failed=code).encode(),
        lambda code: bench_pairs.parse_tier1_output(_pytest_stdout(425, failed=code), 7.25),
    ),
    "verify-full": (
        ["python3", "-m", "forestshuffle.cli", "verify", "--suite", "all", "--json", "--seed", "3"],
        True, (0,), lambda code: _JSON_OUT, _digest_read,
    ),
    "deep-comb": (
        ["python3", "-m", "forestshuffle.cli", "shuffle", _comb(398), "b", "--json"],
        True, (0,), lambda code: _JSON_OUT, _digest_read,
    ),
}


@pytest.mark.parametrize("workload", RUN_CASES)
def test_a_run_is_its_kinds_command(tmp_path, monkeypatch, workload):
    argv, src_first, accepted, stdout, reads = RUN_CASES[workload]
    calls = []

    def measured(argv, directory, env):
        calls.append((argv, directory, env))
        code = int(directory.name.removeprefix("exit"))
        if code in accepted:
            return code, stdout(code), "", 7.25, 41.5
        # a refused run names its last stderr line, or its last stdout line
        return code, b"out\nboom\n" if code == 3 else b"", "" if code == 3 else "ERROR: usage\n", 7.25, 41.5

    monkeypatch.setattr(bench_pairs, "measured", measured)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert bench_pairs.command(workload, 3) == argv
    runs = {code: bench_pairs.run_once(tmp_path / f"exit{code}", workload, 3) for code in accepted}
    for code in accepted:
        assert runs[code] == reads(code)
        assert calls[accepted.index(code)][:2] == (argv, tmp_path / f"exit{code}")
        env = calls[accepted.index(code)][2]
        if src_first:
            # the checkout's own source comes first
            assert env["PYTHONPATH"] == "src" + bench_pairs.os.pathsep + "elsewhere"
        else:
            # a perfbench run keeps the environment it was given
            assert env is None
    if workload == "tier1":
        # a failing test is counted, not fatal
        assert [runs[code][0]["counts"] for code in accepted] == [
            {"passed": 425, "xfailed": 1, "failed": 0}, {"passed": 425, "xfailed": 1, "failed": 1},
        ]
    for code in sorted({1, 2, 3, 4} - set(accepted)):
        with pytest.raises(bench_pairs.RunFailed) as failed:
            bench_pairs.run_once(tmp_path / f"exit{code}", workload, 3)
        assert (failed.value.returncode, failed.value.last_line) == (code, "boom" if code == 3 else "ERROR: usage")


def test_a_deep_comb_workload_is_summarized_beside_the_others(tmp_path):
    runs = [
        {"report": {"out_sha256": "d"}, "result": _digest_read(0)[1], "seed": seed, "side": side, "workload": w}
        for w in ("deep-comb", "products") for seed in (1, 2, 5) for side in bench_pairs.SIDES
    ]
    metrics = [m for m in FULL_METRICS if m["name"] != "ops_per_s"]
    bench_pairs.write(tmp_path / "BENCH.json", runs, "", metrics)
    written = json.loads((tmp_path / "BENCH.json").read_text())
    # the default kind comes first, and the comb is named, not spelled out
    assert written["command"] == (
        "python3 perfbench/run.py --workload {products} --seed {1..2,5 on products} --seconds 20 --trace 0; "
        "PYTHONPATH=src python3 -m forestshuffle.cli shuffle COMB b --json "
        "(deep-comb, seeds 1..2,5; COMB is the 398-level comb a[a[...,b],b])"
    )
    rows = written["summary"]["deep-comb"]
    assert set(rows) == {"wall_s", "peak_rss_mib", "out_sha256_equal_on_every_seed"}
    assert rows["peak_rss_mib"]["parent"]["median"] == 41.5 and rows["out_sha256_equal_on_every_seed"] is True
    assert bench_pairs.summary_lines(rows, metrics, bench_pairs.kind_of("deep-comb")) == [
        "wall_s: parent 7.25 [0], change 7.25, change wins 0 of 3, shift +0.0% (bound 25.0%) inside parent IQR",
        "peak_rss_mib: parent 41.5 [0], change 41.5, change wins 0 of 3, shift +0.0% (bound 20.0%) inside parent IQR",
        "out_sha256: equal on every seed",
    ]


def _committed_bench_files() -> list[str]:
    """Every committed BENCH_<n>.json with n >= 30, in order of n: the files
    written by ``bench_pairs.write``."""
    numbered = [
        (int(m.group(1)), path.name)
        for path in _PATH.parent.parent.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    return [name for n, name in sorted(numbered) if n >= 30]


@pytest.mark.parametrize("name", _committed_bench_files())
def test_write_reproduces_a_committed_file(tmp_path, name):
    # together they hold perfbench, tier1 and verify-full runs
    committed = _PATH.parent.parent / name
    data = json.loads(committed.read_text())
    metrics = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    bench_pairs.write(tmp_path / name, data["runs"], data["description"], metrics)
    assert (tmp_path / name).read_bytes() == committed.read_bytes()


# a perfbench stand-in: one report line, then one result line
_STUB_RUN = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
wall = {"parent": 4.0, "change": 3.0}[pathlib.Path.cwd().name] + int(args["--seed"]) / 10
print("perfbench report " + json.dumps({"argv": sys.argv[1:], "out_sha256": args["--workload"]}))
metrics = {"wall_s": (wall, "s"), "ops_per_s": (10 / wall, "1/s"), "peak_rss_mib": (30.0, "MiB")}
print(json.dumps({"metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}}))
"""


def test_main_runs_two_stub_checkouts(tmp_path, capsys):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_STUB_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": FULL_METRICS}))
        # found only through the checkout's src first on the path
        (tmp_path / side / "src" / "forestshuffle").mkdir(parents=True)
        (tmp_path / side / "src" / "forestshuffle" / "__init__.py").write_text("")
        (tmp_path / side / "src" / "forestshuffle" / "cli.py").write_text("import sys\nprint(*sys.argv[1:])\n")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "stub,verify-full", "--seeds", "1..2", "--out", str(out), "--description", "stubs"]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["side"]) for r in written["runs"]] == [
        ("stub", 1, "parent"), ("stub", 1, "change"), ("verify-full", 1, "parent"), ("verify-full", 1, "change"),
        ("stub", 2, "change"), ("stub", 2, "parent"), ("verify-full", 2, "change"), ("verify-full", 2, "parent"),
    ]
    assert written["runs"][0]["report"]["argv"] == ["--workload", "stub", "--seed", "1", "--seconds", "20",
                                                    "--trace", "0"]
    digest = bench_pairs.hashlib.sha256(b"verify --suite all --json --seed 2\n").hexdigest()
    assert written["runs"][-1]["report"] == {"out_sha256": digest}
    assert 0 < written["runs"][-1]["result"]["metrics"]["peak_rss_mib"]["value"] < 200
    assert written["description"] == "stubs" and written["command"] == (
        "python3 perfbench/run.py --workload {stub} --seed {1..2 on stub} --seconds 20 --trace 0; "
        "PYTHONPATH=src python3 -m forestshuffle.cli verify --suite all --json --seed {1..2} (verify-full)"
    )
    assert set(written["summary"]["stub"]) == {"wall_s", "ops_per_s", "peak_rss_mib", "out_sha256_equal_on_every_seed"}
    assert set(written["summary"]["verify-full"]) == {"wall_s", "peak_rss_mib", "out_sha256_equal_on_every_seed"}
    assert written["summary"]["verify-full"]["out_sha256_equal_on_every_seed"] is True
    err = capsys.readouterr().err.splitlines()
    assert err[-9:-3] == [
        "stub:",
        "wall_s: parent 4.15 [0.05], change 3.15, change wins 2 of 2, shift -24.1% (bound 25.0%)",
        "ops_per_s: parent 2.41 [0.029], change 3.175, change wins 2 of 2, shift -31.8% (bound 25.0%)",
        "peak_rss_mib: parent 30 [0], change 30, change wins 0 of 2, shift +0.0% (bound 20.0%) inside parent IQR",
        "out_sha256: equal on every seed",
        "verify-full:",
    ]
    assert err[-1] == "out_sha256: equal on every seed"
