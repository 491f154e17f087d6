"""Benchmark of the forestshuffle library: one command, every metric.

    python3 perfbench/run.py --workload {products,duality,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each pass of a workload runs in a fresh
``worker.py`` process: every CLI call starts with empty memos, and peak RSS
must be per pass.  One closed-loop client, no threads, one process at a
time.  A run starts with a few set-up-only processes, then makes the
workload's fixed number of passes over the same ops.  Times are normalized
by the host's speed (see ``hostspeed.py``); raw times are in the report.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints its per-layer metrics, from one traced pass written to
``.perfbench/spans-<workload>-seed<N>.jsonl``, and the tracing overhead.
The line before the last is a report with the output and input digests and
the sharing of the inputs; the last line is the result object.  The exit
code is 0 only if every op of every pass passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
PASSES = {"products": 3, "duality": 2, "verify": 1}
PASS_TIMEOUT_S = 170


def _worker(args, extra: list[str]) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, *extra, "--t0-ns", str(time.monotonic_ns()),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _layer_metrics(names: list[str], traced: dict, overhead_frac: float) -> dict[str, float]:
    layers, suites = traced.get("layers", {}), traced.get("suites", {})
    out = {}
    for name in names:
        head, stat = name.rsplit(".", 1)
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
        elif name == "inputs.distinct_subforest_frac":
            out[name] = traced["distinct_subforest_frac"]
        elif head == "gc.collect":
            out[name] = traced["gc"][stat]
        elif head.startswith("suites."):
            out[name] = suites.get(head.split(".", 1)[1], {}).get(stat, 0)
        else:
            row = layers.get(head, {})
            out[name] = row.get("size" if stat in ("terms", "bytes") else stat, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="accepted for compatibility; a run makes a fixed number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="negative control: compare the first check against a wrong expected value")
    args = ap.parse_args()

    if not (ROOT / "src" / "forestshuffle" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'forestshuffle'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    inject = ["--inject-wrong"] if args.inject_wrong else []

    start = time.monotonic()
    setups, raw_setups, passes, errors = [], [], [], []
    traced = None

    def attempt(extra: list[str]) -> dict | None:
        try:
            return _worker(args, extra)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            errors.append(repr(exc))
            return None

    if args.trace:
        trace_out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        if (r := attempt(inject)) is not None:
            passes.append(r)
        traced = attempt(["--trace-out", str(trace_out), *inject])
        if traced is not None:
            passes.append(traced)
    else:
        for _ in range(SETUP_PROBES):
            if (r := attempt(["--setup-only"])) is not None:
                raw_setups.append(r["setup_s"])
                setups.append(r["setup_s"] * r["speed_factor"])
        for _ in range(PASSES[args.workload]):
            if (r := attempt(inject)) is not None:
                passes.append(r)

    digests = {(p["out_sha256"], p["in_sha256"]) for p in passes}
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors) + (len(digests) > 1)
    failures = errors + [f for p in passes for f in p["failures"]]
    if len(digests) > 1:
        failures.append(f"passes disagree on digests: {sorted(digests)}")
    attempted = max(attempted, 1)

    values: dict[str, float] = {}
    if args.trace:
        if traced is not None and len(passes) == 2:
            overhead = traced["wall_s"] / passes[0]["wall_s"] - 1
            values = _layer_metrics([m["name"] for m in group], traced, overhead)
    elif passes and setups:
        # An op's latency is its median over the passes.  On verify the one
        # op is the verb call, so both percentiles are wall_s.
        wall = statistics.median(p["wall_s"] for p in passes)
        latencies = sorted(statistics.median(xs) for xs in zip(*(p["latencies_s"] for p in passes)))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": passes[0]["attempted"] / wall,
            "latency_p50_ms": 1e3 * _percentile(latencies, 0.50),
            "latency_p99_ms": 1e3 * _percentile(latencies, 0.99),
            "wall_s": wall,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
            "pass_frac": 1 - failed / attempted,
        }
    correct = failed == 0 and len(values) == len(group)
    for line in failures[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "setup_samples": len(setups),
        "latency_samples": len(passes[0]["latencies_s"]) if passes else 0,
        "raw_setup_s": statistics.median(raw_setups) if raw_setups else None,
        "raw_pass_s": [p["raw_s"] for p in passes],
        "speed_factors": [p["speed_factor"] for p in passes],
        "failed_frac": failed / attempted,
        "out_sha256": sorted(digests)[0][0] if digests else None,
        "in_sha256": sorted(digests)[0][1] if digests else None,
        "distinct_subforest_frac": passes[0]["distinct_subforest_frac"] if passes else None,
        "elapsed_s": time.monotonic() - start,
    }
    print("perfbench report " + json.dumps(report))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
