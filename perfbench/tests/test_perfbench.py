"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", "--size", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("perfbench report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, report, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, report, result = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_frac"] == 0


def test_digests_repeat_for_a_seed_and_differ_across_seeds():
    runs = [bench("--workload", "products", "--seed", seed)[1] for seed in ("7", "7", "8")]
    assert runs[0]["out_sha256"] == runs[1]["out_sha256"] != runs[2]["out_sha256"]
    assert runs[0]["in_sha256"] == runs[1]["in_sha256"] != runs[2]["in_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_expected_value_fails_the_run(workload):
    code, report, result = bench("--workload", workload, "--seed", "1", "--inject-wrong")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert report["failed_frac"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, report, result = bench("--workload", "products", "--seed", "1", root=tmp_path)
    assert code != 0 and report is None and result is None


def test_sampler_takes_its_own_time_out_of_a_segment():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed

    with hostspeed.Sampler(interval=0.01) as speed:
        point = speed.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        net, samples = speed.since(point)
    assert len(samples) >= 10
    assert 0 < net < time.perf_counter() - start
    assert net == pytest.approx(time.perf_counter() - start - sum(samples), abs=0.05)
    assert hostspeed.factor(samples) > 0
