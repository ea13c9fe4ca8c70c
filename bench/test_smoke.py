"""Smoke test of the benchmark: short runs, report schema only.

    python3 -m pytest -q bench/test_smoke.py

Checks the shape of the last stdout line against BENCHMARK.json and that
failed_frac is below 1.  Timings are never checked.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def _report(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("algebra_positivity", 0), ("algebra_positivity", 1), ("cli_session", 1)],
)
def test_report_schema(workload, trace):
    lines, report = _report(workload, trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(report["correct"], bool)
    assert isinstance(report["attempted"], int) and report["attempted"] >= 100
    assert isinstance(report["failed"], int) and report["failed"] / report["attempted"] < 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in report["metrics"].items()
    }
    for m in report["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
    assert any(line.startswith("digest sha256 ") for line in lines)
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)


def test_bare_directory_fails(tmp_path):
    """Without the library's sources the benchmark refuses to report."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
