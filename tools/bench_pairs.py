"""Alternating parent/change runs of perfbench workloads, into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W[,W2...] \\
        --seeds A..B[,C..D|,N...] --out BENCH_<pr>.json

DIR is a checkout of each commit (``git archive`` or ``git clone``).  The
seeds are a comma list of inclusive ranges and single seeds, such as
``1..10,11``, each seed at most once.  For each seed S in the order given,
and for each listed workload W in turn, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

from their own directory, one process at a time: the parent first on odd
seeds, the change first on even ones.  Each run keeps its report line and
its result line.  When ``--out`` exists, its runs of unlisted workloads are
kept and those of the listed ones are replaced, so one file can hold every
workload.  The file's command line names each workload's exact seed set.
The file is written after each completed pair, so a run that
fails (exit 1, with one ``error:`` line naming the side, workload, seed and
exit code) keeps every pair before it.

The workload ``tier1`` runs the Tier-1 test command instead,

    PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors --durations=10

in the same alternation (its seed only numbers the pair and picks the side
that runs first).  Each of its runs keeps the wall time the harness measured
around the command, the outcome counts of pytest's summary line (a failing
test is counted, not fatal) and the 10 slowest test phases.

The workload ``verify-full`` runs every verification suite at its default
degrees,

    PYTHONPATH=src python3 -m forestshuffle.cli verify --suite all --json --seed S

with its stdout sent to a file.  Each of its runs keeps the wall time the
harness measured around the command, the child's own peak RSS (from
``os.wait4``, since ``RUSAGE_CHILDREN`` reads the largest of all children
so far) and the sha256 of its stdout.  Linux starts a child's peak at its
parent's, so the peak reads at least the harness's own (about 19 MiB).  A
failing case exits 1 and stops the harness, like any other failed run.

The summary has, per workload, per end-to-end metric of BENCHMARK.json and
per side, the median, the quartiles (inclusive method), their distance and
the number of runs, and ``change_wins``: the seeds on which the change reads
better, ties counting for neither.  It also has ``shift``, the change's median
minus the parent's as a fraction of the parent's, signed so that a positive
shift is worse, beside the metric's ``bound`` from BENCHMARK.json, and
``past_bound``, whether the shift exceeds it: no metric may shift past its
bound, and ``inside_parent_iqr``, whether the medians differ by no more than
the parent's IQR, so that the shift cannot be told from the parent's own
spread.  ``verify-full`` reports ``wall_s`` and ``peak_rss_mib`` only.
``out_sha256_equal_on_every_seed`` says whether both sides emitted
the same bytes on every seed; for ``tier1``, whose only metric is
``wall_s``, ``counts_equal_on_every_seed`` says whether both sides counted
the same outcomes on every seed.  After the last pair each listed workload's
summary goes to stderr: a ``W:`` line, one line per end-to-end metric, ending
``PAST BOUND`` when its shift is and ``inside parent IQR`` when it is, and a
last line that says whether the output digests (or the counts) agreed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SECONDS = 20
SIDES = ("parent", "change")
TIER1 = "tier1"
TIER1_COMMAND = ["python3", "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
VERIFY_FULL = "verify-full"
# the seed follows
VERIFY_FULL_COMMAND = ["python3", "-m", "forestshuffle.cli", "verify", "--suite", "all", "--json", "--seed"]
# the end-to-end metrics of the workloads that do not run perfbench
OWN_METRICS = {TIER1: ("wall_s",), VERIFY_FULL: ("wall_s", "peak_rss_mib")}
# pytest's summary line, such as "1 failed, 424 passed, 1 xfailed in 90.61s"
_SUMMARY = re.compile(r" in \d+(\.\d+)?s\b")
_COUNT = re.compile(r"(\d+) ([a-z]+)")
# one row of --durations, such as "13.40s call     tests/test_dual.py::test_x"
_DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)")


def parse_seeds(text: str) -> list[int]:
    """A comma list of items, each ``A..B`` (inclusive) or a single seed,
    such as ``1..10,11``, in the order given.  An empty item or range and a
    seed named twice are refused (``int`` refuses an empty bound)."""
    seeds: list[int] = []
    for item in text.split(","):
        lo, sep, hi = item.partition("..")
        span = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
        if not span:
            raise ValueError(f"empty seed range {item!r}")
        seeds += span
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"a seed is named twice in {text!r}")
    return seeds


def format_seeds(seeds: set[int]) -> str:
    """The seeds as ``parse_seeds`` reads them: ascending, each run of
    consecutive seeds as ``A..B``, so {1..10, 12} is ``1..10,12``."""
    ordered, items = sorted(seeds), []
    start = ordered[0]
    for prev, seed in zip(ordered, ordered[1:] + [None]):
        if seed != prev + 1:
            items.append(f"{start}..{prev}" if prev > start else str(start))
            start = seed
    return ",".join(items)


def parse_workloads(text: str) -> list[str]:
    """A comma list of distinct workload names."""
    names = text.split(",")
    if "" in names or len(set(names)) != len(names):
        raise ValueError(f"need distinct, nonempty workload names, got {text!r}")
    return names


def side_order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def command(workload: str, seed: int) -> list[str]:
    if workload == TIER1:
        return list(TIER1_COMMAND)
    if workload == VERIFY_FULL:
        return [*VERIFY_FULL_COMMAND, str(seed)]
    return [
        "python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The report and the result object of one run's stdout."""
    lines = stdout.strip().splitlines()
    prefix = "perfbench report "
    reports = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    if not reports:
        raise ValueError("no perfbench report line in the output")
    return json.loads(reports[-1]), json.loads(lines[-1])


def parse_tier1_output(stdout: str, wall_s: float) -> tuple[dict, dict]:
    """The report and result of one Tier-1 run: the outcome counts of
    pytest's last summary line (``passed``, ``xfailed`` and ``failed`` always
    present; ``error``/``warning`` read as ``errors``/``warnings``), the
    slowest test phases as pytest lists them, and ``wall_s``."""
    summaries = [line.strip("= ") for line in stdout.splitlines() if _SUMMARY.search(line)]
    if not summaries:
        raise ValueError("no pytest summary line in the output")
    counts = {"passed": 0, "xfailed": 0, "failed": 0}
    for n, kind in _COUNT.findall(summaries[-1].rpartition(" in ")[0]):
        counts[{"error": "errors", "warning": "warnings"}.get(kind, kind)] = int(n)
    slowest = [
        {"s": float(s), "when": when, "test": test}
        for s, when, test in (m.groups() for m in map(_DURATION.fullmatch, stdout.splitlines()) if m)
    ]
    report = {"counts": counts, "slowest": slowest, "summary": summaries[-1]}
    return report, {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}


class RunFailed(Exception):
    """A run exited non-zero; carries its exit code and last stderr line."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(returncode, stderr)
        self.returncode = returncode
        self.last_line = (stderr.strip().splitlines() or [""])[-1]


def _src_env() -> dict:
    """The environment with the checkout's ``src`` first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH")))))


def measured(argv: list[str], directory: Path, env: dict) -> tuple[int, bytes, str, float, float]:
    """Run ``argv`` in ``directory`` with its stdout and stderr in files.
    Returns the exit code, the stdout bytes, the stderr text, the wall time
    around the run and the child's own peak RSS in MiB."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=directory, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # Linux counts ru_maxrss in KiB
        return proc.returncode, out.read(), err.read().decode(errors="replace"), wall_s, usage.ru_maxrss / 1024


def run_verify_full(directory: Path, seed: int) -> tuple[dict, dict]:
    """One ``verify-full`` run: its output digest, wall time and peak RSS."""
    code, stdout, stderr, wall_s, rss_mib = measured(command(VERIFY_FULL, seed), directory, _src_env())
    if code != 0:
        raise RunFailed(code, stderr or stdout.decode(errors="replace"))
    report = {"out_sha256": hashlib.sha256(stdout).hexdigest()}
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mib": {"value": rss_mib, "unit": "MiB"}}
    return report, {"metrics": metrics}


def run_once(directory: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One run in ``directory``.  A Tier-1 run reads the checkout's ``src``
    first and may exit 1, which pytest uses for a failing test."""
    if workload == VERIFY_FULL:
        return run_verify_full(directory, seed)
    tier1 = workload == TIER1
    env = _src_env() if tier1 else None
    start = time.perf_counter()
    proc = subprocess.run(
        command(workload, seed), cwd=directory, env=env, capture_output=True, text=True, check=False
    )
    wall_s = time.perf_counter() - start
    if proc.returncode not in ((0, 1) if tier1 else (0,)):
        raise RunFailed(proc.returncode, proc.stderr or proc.stdout)
    return parse_tier1_output(proc.stdout, wall_s) if tier1 else parse_output(proc.stdout)


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def workload_metrics(workload: str, metrics: list[dict]) -> list[dict]:
    """The end-to-end metrics a workload's runs report: all of them for a
    perfbench workload, those of ``OWN_METRICS`` for the others."""
    names = OWN_METRICS.get(workload)
    return metrics if names is None else [m for m in metrics if m["name"] in names]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: per metric, each side's spread and the change's wins
    over the seeds both sides ran; and whether the output digests (for
    ``tier1``, the outcome counts) agree."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        paired = [sides for sides in by_seed.values() if len(sides) == 2]
        rows: dict = {}
        for metric in workload_metrics(workload, metrics):
            name = metric["name"]
            row = {
                side: _stats([s[side]["result"]["metrics"][name]["value"] for s in paired])
                for side in SIDES
            }
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(
                1
                for s in paired
                if sign * (s["change"]["result"]["metrics"][name]["value"]
                           - s["parent"]["result"]["metrics"][name]["value"]) > 0
            )
            row["change_wins"] = f"{wins} of {len(paired)}"
            parent, change = row["parent"]["median"], row["change"]["median"]
            row["shift"] = (change - parent if sign < 0 else parent - change) / parent
            row["bound"] = metric["bound"]
            row["past_bound"] = row["shift"] > metric["bound"]
            row["inside_parent_iqr"] = abs(change - parent) <= row["parent"]["iqr"]
            rows[name] = row
        field = "counts" if workload == TIER1 else "out_sha256"
        rows[f"{field}_equal_on_every_seed"] = all(
            s["parent"]["report"][field] == s["change"]["report"][field] for s in paired
        )
        summary[workload] = rows
    return summary


def summary_lines(rows: dict, metrics: list[dict]) -> list[str]:
    """One workload's ``summarize`` entry as text: per metric the parent's
    median [IQR], the change's median, the change's wins, its shift beside
    the bound, and the marks past bound and inside the parent's IQR."""
    lines = []
    for metric in metrics:
        row = rows[metric["name"]]
        parent, change = row["parent"], row["change"]
        lines.append(
            f"{metric['name']}: parent {parent['median']:.4g} [{parent['iqr']:.2g}], "
            f"change {change['median']:.4g}, change wins {row['change_wins']}, "
            f"shift {row['shift']:+.1%} (bound {row['bound']:.1%})"
            + (" PAST BOUND" if row["past_bound"] else "")
            + (" inside parent IQR" if row["inside_parent_iqr"] else "")
        )
    if "counts_equal_on_every_seed" in rows:
        agreed = rows["counts_equal_on_every_seed"]
        lines.append(f"counts: {'equal on every seed' if agreed else 'differ on some seed'}")
    else:
        agreed = rows["out_sha256_equal_on_every_seed"]
        lines.append(f"out_sha256: {'equal on every seed' if agreed else 'differs on some seed'}")
    return lines


def write(path: Path, runs: list[dict], description: str, metrics: list[dict]) -> None:
    """The runs, with the command line and the summary, as one JSON file."""
    workloads: dict[str, set[int]] = {}
    for r in runs:
        workloads.setdefault(r["workload"], set()).add(r["seed"])
    tier1, full, commands = workloads.pop(TIER1, None), workloads.pop(VERIFY_FULL, None), []
    if workloads:
        seeds = ", ".join(f"{format_seeds(s)} on {w}" for w, s in workloads.items())
        commands.append(f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} "
                        f"--seed {{{seeds}}} --seconds {SECONDS} --trace 0")
    if tier1:
        commands.append(f"PYTHONPATH=src {' '.join(TIER1_COMMAND)} (tier1, seeds {format_seeds(tier1)})")
    if full:
        commands.append(f"PYTHONPATH=src {' '.join(VERIFY_FULL_COMMAND)} {{{format_seeds(full)}}} (verify-full)")
    out = {
        "command": "; ".join(commands),
        "description": description,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    path.write_text(json.dumps(out, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", dest="workloads", required=True, type=parse_workloads,
                    help="W or a comma list W1,W2,...")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="a comma list of A..B ranges (inclusive) and single seeds, such as 1..10,11")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--description", default="", help="what the change is, for the file's readers")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    old = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    kept = [r for r in old["runs"] if r["workload"] not in args.workloads]
    runs: list[dict] = []
    for seed in args.seeds:
        for workload in args.workloads:
            pair = []
            for side in side_order(seed):
                try:
                    report, result = run_once(dirs[side], workload, seed)
                except RunFailed as failed:
                    detail = f": {failed.last_line}" if failed.last_line else ""
                    print(f"error: the {side} run of {workload} seed {seed} exited "
                          f"{failed.returncode}{detail}", file=sys.stderr)
                    return 1
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.3f}", file=sys.stderr)
                pair.append({"report": report, "result": result, "seed": seed, "side": side,
                             "workload": workload})
            runs += pair
            write(args.out, kept + runs, args.description or old.get("description", ""), metrics)
    summary = summarize(runs, metrics)
    for workload in args.workloads:
        print(f"{workload}:", file=sys.stderr)
        for line in summary_lines(summary[workload], workload_metrics(workload, metrics)):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
