"""Smoke test of the benchmark: tiny sizes of all three workloads, no timing gate.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is reported with its unit,
that the untraced run prints all 12 end-to-end metrics, and that fail_frac
is computed, in both the untraced and the traced mode.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_metric_tables():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    for metric in SPEC["end_to_end"]:
        assert END_TO_END[metric["name"]][0] == metric["unit"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        unit, better, _ = PER_LAYER[metric["name"]]
        assert (unit, better) == (metric["unit"], metric["better"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(trace):
    lines, final = run_smoke(trace)
    key = "end_to_end" if trace == 0 else "per_layer"
    names = {m["name"] for m in SPEC[key]}
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(WORKLOADS)
    for workload, metrics in final["metrics"].items():
        assert set(metrics) == names, workload
        for metric in SPEC[key]:
            value = metrics[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
    if trace == 0:
        for workload in WORKLOADS:
            table = lines[lines.index(next(l for l in lines if l.startswith(f"== {workload}"))):]
            printed = {line.split()[0] for line in table[1:1 + len(END_TO_END)]}
            assert printed == set(END_TO_END), workload
            fail = next(line for line in table if line.split()[0] == "fail_frac")
            assert 0.0 <= float(fail.split()[1]) <= 1.0
