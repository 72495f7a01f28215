"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import reference
from run import ROOT, run_worker
from workloads import SIZES, make_case

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    return {"last": last, "lines": lines}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SIZES))
def test_every_metric_emitted_with_unit(workload, trace):
    out = _bench(workload, trace)
    last = out["last"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in out["lines"])


def _perturb(text: str) -> str:
    """Change the 7th decimal of the first long float in the output."""
    match = re.search(r"\d\.\d{9,}", text)
    assert match, text[:200]
    digit = match.start() + 8
    return text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]


@pytest.mark.parametrize("workload", list(SIZES))
def test_perturbed_output_is_caught(workload, tmp_path):
    case = make_case(workload, 5, tmp_path, "tiny")
    res = run_worker(workload, case, tmp_path, 0.01, False)
    want = reference.expected(workload, case, res["captured"])
    (text,) = res["outputs"]
    assert reference.check(workload, want, text) == []
    assert reference.check(workload, want, _perturb(text)) != []
