"""Smoke test of the benchmark at tiny sizes (p=31).

Run from the checkout root:  python3 -m pytest -q perfbench/tests
Checks that every workload emits every end-to-end and per-layer metric named
in BENCHMARK.json with its unit, that the fastmf.counters-derived counts
repeat exactly for one seed, and that the benchmark refuses to run where
there are no tfshift sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ["fastmf.dft.calls", "fastmf.dft.ops", "fastmf.mf_on_line.calls",
                "gfp.line_points.points", "detect.extract_bits.calls"]


def bench(root, workload, trace, seed=3):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=root, check=False)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(workload, trace, section):
    proc = bench(ROOT, workload, trace)
    got = result(proc)["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(got) == set(want)
    lines = proc.stdout.splitlines()
    for name, m in got.items():
        assert m["unit"] == want[name], name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = result(bench(ROOT, workload, 1))["metrics"]
    second = result(bench(ROOT, workload, 1))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["fastmf.dft.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
