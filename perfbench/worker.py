"""One pass of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on stdout.  Every pass starts with
empty library memos, as every CLI call does, and ``peak_rss_mib`` is this
process's own ``ru_maxrss``.  ``--t0-ns`` is the parent's ``monotonic_ns``
just before it started this process, so ``setup_s`` covers interpreter
start, the imports and input generation.  ``--setup-only`` stops at the
first timed op, after timing the host's speed.
"""

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import forestshuffle.cli  # noqa: F401  (what a CLI call imports belongs to set-up)
import hostspeed
import workloads
from forestshuffle.suites import SUITES, SuiteConfig, run_suite
from tracing import Tracer

SETUP_UNITS = 40  # host-speed units timed right after set-up, to normalize it


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class GcClock:
    """Counts the cyclic collector's runs and the seconds they take."""

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self._start = 0.0

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.calls += 1
            self.s += time.perf_counter() - self._start


class _Wrong:
    """An expected value no result equals; the negative control injects it."""

    def __eq__(self, other):
        return False

    __hash__ = None

    def __repr__(self):
        return "<injected wrong value>"


class Checker:
    def __init__(self, inject_wrong: bool):
        self.pending_injection = inject_wrong
        self.failures: list[str] = []

    def passed(self, where: str, triples) -> bool:
        ok = True
        for label, expected, actual in triples:
            if self.pending_injection:
                expected, self.pending_injection = _Wrong(), False
            if not expected == actual:
                ok = False
                self.failures.append(f"{where}: {label}: expected {expected!r}, got {actual!r}")
        return ok


def run_stream(ops, tr: Tracer, checker: Checker, digest) -> dict:
    """Run every op, then check them all.

    Peak RSS is read when the timed stream ends, before any check touches
    the library's memos.  Each op's net time is normalized by the host speed
    over the whole stream.  The pass's wall time sums them; an op's latency
    leaves out the collector's pauses, which land on whichever op crosses a
    collection threshold of the heap the whole stream has grown.
    """
    net, gc_s, kept, errors = [], [], {}, {}
    with hostspeed.Sampler() as speed, GcClock() as collector:
        tr.clock = speed.net_ns
        point = speed.mark()
        for i, op in enumerate(ops):
            tr.begin_op(i)
            spent, collected, start = speed.spent, collector.s, time.perf_counter()
            try:
                texts, ctx = workloads.run_op(tr, op)
            except Exception as exc:  # a failing op is counted, not fatal
                texts, ctx, errors[i] = [], None, exc
            net.append(time.perf_counter() - start - (speed.spent - spent))
            gc_s.append(collector.s - collected)
            tr.end_op()
            for text in texts:
                digest.update(text.encode("utf-8"))
            if i not in errors:
                try:
                    kept[i] = workloads.facts(op, texts, ctx)
                except Exception as exc:
                    errors[i] = exc
        samples = speed.since(point)[1]
    peak_rss_mib = _peak_rss_mib()

    failed = 0
    for i, op in enumerate(ops):
        where = f"op {i} {op.argv[:2]}"
        if i in errors:
            failed += 1
            checker.failures.append(f"{where}: {errors[i]!r}")
            continue
        try:
            failed += not checker.passed(where, workloads.checks(op, kept[i]))
        except Exception as exc:
            failed += 1
            checker.failures.append(f"{where} check: {exc!r}")
    f = hostspeed.factor(samples)
    return {
        "latencies_s": [(x - y) * f for x, y in zip(net, gc_s)],
        "wall_s": sum(net) * f,
        "gc": {"calls": collector.calls, "s": collector.s * f},
        "raw_s": sum(net),
        "speed_factor": f,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": failed,
    }


def run_verify(ops, tr: Tracer, checker: Checker, digest) -> dict:
    """``verify --suite <s> --json`` for every suite in order, as ``run_suite("all")`` runs them.

    Each suite is one timed segment, normalized by the host speed during it,
    and ``ru_maxrss`` is read after each.  Traced, each suite is also a span.
    """
    flags, args = {}, iter(ops[0].argv[1:])
    for flag in args:
        flags[flag] = None if flag == "--json" else next(args)
    cfg = SuiteConfig(
        max_degree=int(flags["--max-degree"]) if "--max-degree" in flags else None,
        samples=int(flags["--samples"]) if "--samples" in flags else None,
        seed=int(flags["--seed"]),
    )
    reports, suites, raw_s, crashed = [], {}, 0.0, 0
    with hostspeed.Sampler() as speed, GcClock() as collector:
        tr.clock = speed.net_ns
        for i, name in enumerate(SUITES):
            tr.begin_op(i)
            point = speed.mark()
            try:
                reports += tr.call(f"suites.{name}", run_suite, name, cfg)
            except Exception as exc:  # a crashing suite is counted, not fatal
                crashed += 1
                checker.failures.append(f"suite {name}: {exc!r}")
            net, samples = speed.since(point)
            tr.end_op()
            raw_s += net
            suites[name] = {"s": net * hostspeed.factor(samples), "cases": 0, "rss_mib": _peak_rss_mib()}
    peak_rss_mib = _peak_rss_mib()
    digest.update((json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True) + "\n").encode("utf-8"))
    exit_code = 1 if any(r.failed for r in reports) else 0
    triples = [("exit code", 0, exit_code)] + [(f"suite {r.suite} ran cases", True, r.cases > 0) for r in reports]
    for r in reports:
        checker.failures += [f"suite {r.suite}: {f.case} on {f.inputs}" for f in r.failures[:3]]
        suites[r.suite]["cases"] = r.cases
    failed = crashed + sum(r.failed for r in reports) + sum(
        not checker.passed("verify", [t]) for t in triples
    )
    f = hostspeed.factor(speed.samples)
    wall = sum(row["s"] for row in suites.values())
    return {
        "latencies_s": [wall],
        "wall_s": wall,
        "gc": {"calls": collector.calls, "s": collector.s * f},
        "suites": suites,
        "raw_s": raw_s,
        "speed_factor": f,
        "peak_rss_mib": peak_rss_mib,
        "attempted": max(1, crashed + sum(r.cases for r in reports)),
        "failed": failed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--trace-out", type=Path, help="trace this pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args()

    tr = Tracer(enabled=args.trace_out is not None)
    ops = tr.call("sampling.generate", workloads.generate, args.workload, args.seed, args.size)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        # The host's speed right after set-up normalizes it.
        samples = [hostspeed.time_unit() for _ in range(SETUP_UNITS)]
        print(json.dumps({"setup_s": setup_s, "speed_factor": hostspeed.factor(samples)}))
        return 0

    checker = Checker(args.inject_wrong)
    digest = hashlib.sha256()
    run = run_verify if args.workload == "verify" else run_stream
    result = run(ops, tr, checker, digest)
    result.update(
        setup_s=setup_s,
        out_sha256=digest.hexdigest(),
        in_sha256=hashlib.sha256("\n".join(op.line() for op in ops).encode("utf-8")).hexdigest(),
        distinct_subforest_frac=workloads.distinct_subforest_frac(workloads.input_forests(ops)),
        failures=checker.failures[:10],
    )
    if tr.enabled:
        result["layers"] = tr.totals(result["speed_factor"])
        tr.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
