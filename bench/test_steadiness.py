"""Steadiness checks for the benchmark itself.

Run from the repository root (this takes about ten minutes: it runs every
workload a dozen times):

    python3 -m pytest bench/test_steadiness.py

The engine's own test suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
ROUNDS = 3


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> dict:
    out = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1, 1), bench(workload, 2, 1)
    assert first.keys() == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k, v in first.items() if v["unit"] != "s" and k != "trace.overhead_frac"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_two_sets_of_runs_agree_within_bounds():
    """Medians of two interleaved sets of runs, in alternating workload order."""
    sets = ({w: [] for w in WORKLOADS}, {w: [] for w in WORKLOADS})
    seed = 0
    for rnd in range(ROUNDS):
        for s in (rnd % 2, 1 - rnd % 2):
            for w in (WORKLOADS if s == 0 else WORKLOADS[::-1]):
                seed += 1
                sets[s][w].append(bench(w, seed, 0))
    problems = []
    for w in WORKLOADS:
        for name, bound in BOUNDS.items():
            a, b = (statistics.median(run[name]["value"] for run in runs[w]) for runs in sets)
            if abs(b / a - 1) > bound:
                problems.append(f"{w} {name}: medians {a:.6g} and {b:.6g} differ by more than {bound}")
    assert not problems, problems


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

