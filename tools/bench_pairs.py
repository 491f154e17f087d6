"""Alternating parent/change runs of named workloads, into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W[,W2...] \\
        --seeds A..B[,C..D|,N...] --out BENCH_<pr>.json

DIR is a checkout of each commit (``git archive`` or ``git clone``).  The
seeds are a comma list of inclusive ranges and single seeds, such as
``1..10,11``, each seed at most once.  For each seed S in the order given,
and for each listed workload W in turn, both sides run W's command from
their own directory, one process at a time: the parent first on odd seeds,
the change first on even ones.  When ``--out`` exists, its runs of unlisted
workloads are kept and those of the listed ones are replaced, so one file
can hold every workload.  The file is written after each completed pair, so
a run that fails (exit 1, with one ``error:`` line naming the side,
workload, seed and exit code) keeps every pair before it.

Each kind of workload is one row of ``KINDS``, and a new scenario is one new
row.  A row gives its command (``{workload}`` and ``{seed}`` filled in per
run), whether the checkout's ``src`` goes first on ``PYTHONPATH``, the exit
codes it accepts, how it reads a run's stdout, wall time and peak RSS, its
end-to-end metrics, the report field both sides must agree on, and how the
file's command line names its runs with their exact seed sets.  Every run
goes through ``measured``, which takes the wall time around the run and the
child's own peak RSS (``os.wait4``, as ``RUSAGE_CHILDREN`` reads the largest
child so far; Linux starts a child's peak at its parent's, so it reads at
least the harness's own, about 19 MiB).  The default row, for any other
name W, runs ``python3 perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` in the inherited environment and keeps perfbench's report and
result lines.  ``tier1`` runs pytest, which exits 1 on a failing test
(counted, not fatal), and keeps ``wall_s``, the outcome counts, on which
both sides must agree, and the 10 slowest test phases.  ``verify-full``
runs ``verify --suite all --json --seed S`` at the default degrees, and
``deep-comb`` runs ``shuffle COMB b --json`` on the 398-level comb
``a[a[...,b],b]`` (figures that include parsing the comb and rendering its
796 terms as JSON); both keep ``wall_s``, ``peak_rss_mib`` and the sha256
of stdout.  The seed only numbers a ``tier1`` or ``deep-comb`` pair.

The summary has, per workload, per end-to-end metric of its row and per
side, the median, the quartiles (inclusive method), their distance and the
number of runs, and ``change_wins``: the seeds on which the change reads
better, ties counting for neither.  ``shift`` is the change's median minus
the parent's as a fraction of the parent's, signed so that a positive shift
is worse, beside the metric's ``bound`` from BENCHMARK.json; ``past_bound``
says whether it exceeds the bound, and ``inside_parent_iqr`` whether the
medians differ by no more than the parent's IQR, so that the shift cannot be
told from the parent's own spread.  ``out_sha256_equal_on_every_seed`` (for
``tier1``, ``counts_...``) says whether both sides agreed on every seed.
After the last pair each listed workload's summary goes to stderr: a ``W:``
line, one line per metric, ending ``PAST BOUND`` and ``inside parent IQR``
where they hold, and a last line that says whether the sides agreed.
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
from typing import Callable, NamedTuple

SECONDS = 20
SIDES = ("parent", "change")
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


def parse_digest(stdout: bytes, wall_s: float, rss_mib: float) -> tuple[dict, dict]:
    """The report and result of a run timed from outside: the sha256 of its
    stdout, its wall time and its own peak RSS."""
    report = {"out_sha256": hashlib.sha256(stdout).hexdigest()}
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mib": {"value": rss_mib, "unit": "MiB"}}
    return report, {"metrics": metrics}


class Kind(NamedTuple):
    """One row of the workload table."""

    argv: tuple[str, ...]  # "{workload}" and "{seed}" are filled in per run
    read: Callable[[bytes, float, float], tuple[dict, dict]]  # (stdout, wall_s, peak_rss_mib)
    # the file's command line: "{run}" is argv with its workload and seed
    # sets, "{seeds}" the seed set
    shown: str = "{run}"
    src_first: bool = False
    exit_codes: tuple[int, ...] = (0,)
    metrics: tuple[str, ...] | None = None  # None: every end-to-end metric
    agree: str = "out_sha256"

    def end_to_end(self, metrics: list[dict]) -> list[dict]:
        return [m for m in metrics if self.metrics is None or m["name"] in self.metrics]

    def command_line(self, seeds: dict[str, set[int]]) -> str:
        """How the file's command line names the runs of each workload's seeds."""
        texts = {w: format_seeds(s) for w, s in seeds.items()}
        if "{workload}" in self.argv:
            seed_text = ", ".join(f"{s} on {w}" for w, s in texts.items())
        else:
            (seed_text,) = texts.values()
        run = " ".join(self.argv).format(workload="{" + ",".join(texts) + "}", seed="{" + seed_text + "}")
        return self.shown.format(run="PYTHONPATH=src " * self.src_first + run, seeds=seed_text)


# None is the default row: any other name is a perfbench workload
KINDS: dict[str | None, Kind] = {
    None: Kind(
        ("python3", "perfbench/run.py", "--workload", "{workload}", "--seed", "{seed}",
         "--seconds", str(SECONDS), "--trace", "0"),
        lambda stdout, wall_s, rss_mib: parse_output(stdout.decode()),
    ),
    "tier1": Kind(
        ("python3", "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"),
        lambda stdout, wall_s, rss_mib: parse_tier1_output(stdout.decode(), wall_s),
        "{run} (tier1, seeds {seeds})", src_first=True, exit_codes=(0, 1), metrics=("wall_s",), agree="counts",
    ),
    "verify-full": Kind(
        ("python3", "-m", "forestshuffle.cli", "verify", "--suite", "all", "--json", "--seed", "{seed}"),
        parse_digest, "{run} (verify-full)", src_first=True, metrics=("wall_s", "peak_rss_mib"),
    ),
    # the 398-level comb a[a[...,b],b] times b
    "deep-comb": Kind(
        ("python3", "-m", "forestshuffle.cli", "shuffle", "a[" * 397 + "a" + ",b]" * 397, "b", "--json"),
        parse_digest, "PYTHONPATH=src python3 -m forestshuffle.cli shuffle COMB b --json "
        "(deep-comb, seeds {seeds}; COMB is the 398-level comb a[a[...,b],b])",
        src_first=True, metrics=("wall_s", "peak_rss_mib"),
    ),
}


def kind_of(workload: str) -> Kind:
    return KINDS.get(workload, KINDS[None])


def command(workload: str, seed: int) -> list[str]:
    return [arg.format(workload=workload, seed=seed) for arg in kind_of(workload).argv]


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


def run_once(directory: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One run of ``workload`` in ``directory``, read by its row."""
    kind = kind_of(workload)
    code, stdout, stderr, wall_s, rss_mib = measured(
        command(workload, seed), directory, _src_env() if kind.src_first else None
    )
    if code not in kind.exit_codes:
        raise RunFailed(code, stderr or stdout.decode(errors="replace"))
    return kind.read(stdout, wall_s, rss_mib)


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: per metric of its row, each side's spread and the
    change's wins over the seeds both sides ran; and whether they agree."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        kind = kind_of(workload)
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        paired = [sides for sides in by_seed.values() if len(sides) == 2]
        rows: dict = {}
        for metric in kind.end_to_end(metrics):
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
        rows[f"{kind.agree}_equal_on_every_seed"] = all(
            s["parent"]["report"][kind.agree] == s["change"]["report"][kind.agree] for s in paired
        )
        summary[workload] = rows
    return summary


def summary_lines(rows: dict, metrics: list[dict], kind: Kind = KINDS[None]) -> list[str]:
    """One workload's ``summarize`` entry as text: per metric the parent's
    median [IQR], the change's median, the change's wins, its shift beside
    the bound, and the marks past bound and inside the parent's IQR."""
    lines = []
    for metric in kind.end_to_end(metrics):
        row = rows[metric["name"]]
        parent, change = row["parent"], row["change"]
        lines.append(
            f"{metric['name']}: parent {parent['median']:.4g} [{parent['iqr']:.2g}], "
            f"change {change['median']:.4g}, change wins {row['change_wins']}, "
            f"shift {row['shift']:+.1%} (bound {row['bound']:.1%})"
            + (" PAST BOUND" if row["past_bound"] else "")
            + (" inside parent IQR" if row["inside_parent_iqr"] else "")
        )
    # a plural field ("counts") takes a plural verb
    differ = "differ" if kind.agree.endswith("s") else "differs"
    agreed = rows[f"{kind.agree}_equal_on_every_seed"]
    lines.append(f"{kind.agree}: {'equal on every seed' if agreed else differ + ' on some seed'}")
    return lines


def write(path: Path, runs: list[dict], description: str, metrics: list[dict]) -> None:
    """The runs, with the command line and the summary, as one JSON file."""
    seeds: dict[Kind, dict[str, set[int]]] = {}
    for r in runs:
        seeds.setdefault(kind_of(r["workload"]), {}).setdefault(r["workload"], set()).add(r["seed"])
    out = {
        "command": "; ".join(kind.command_line(seeds[kind]) for kind in KINDS.values() if kind in seeds),
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
        for line in summary_lines(summary[workload], metrics, kind_of(workload)):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
