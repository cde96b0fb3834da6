"""Benchmark for the tegi engine: whole programs, timed and checked.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/` directory.  Each workload program is evaluated, one evaluation at a
time, on a fresh `Interpreter` in a fresh worker process (single process,
single thread, closed loop).  Every printed value is checked: `s2_paper`
byte-exact against its `;=>` annotations, the others against an independent
sympy reference at check points drawn from the seed.

--trace 0 prints the end-to-end metrics; --trace 1 runs a separate traced
worker and prints the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Lines
before it give host facts, the sample count and the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "s2_paper": ROOT / "tests" / "corpus" / "riemann_s2.tegi",
    "schwarzschild": HERE / "programs" / "schwarzschild.tegi",
    "hodge4": HERE / "programs" / "hodge4.tegi",
    "hodge3": HERE / "programs" / "hodge3.tegi",
}
CHECK_POINTS = 3
REL_TOL = ABS_TOL = 1e-9
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 170


def check_points(seed: int) -> list[dict]:
    """Values for every symbol of every program: r outside the horizon
    (r > 2M), and the polar angles θ and χ away from 0 and π."""
    rng = random.Random(seed)
    points = []
    for _ in range(CHECK_POINTS):
        m = rng.uniform(0.5, 2.0)
        points.append({
            "t": rng.uniform(-3.0, 3.0),
            "r": m * rng.uniform(2.5, 8.0),
            "θ": rng.uniform(0.4, math.pi - 0.4),
            "φ": rng.uniform(0.0, 2 * math.pi),
            "M": m,
            "χ": rng.uniform(0.4, math.pi - 0.4),
            "a": rng.uniform(0.5, 2.0),
        })
    return points


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of machine speed only."""
    runs = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        runs.append((perf_counter() - start) * 1e3)
    return statistics.median(runs)


def python(script: str, *args: str, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def setup_seconds() -> float:
    """Median set-up time over fresh processes; the first one only fills bytecode caches."""
    python("setup_probe.py", timeout=60)
    return statistics.median(
        float(python("setup_probe.py", timeout=60)) for _ in range(SETUP_PROBES)
    )


def annotations(path: Path) -> list[str]:
    return [
        line.split(";=>", 1)[1].strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if ";=>" in line
    ]


def check_annotations(printed: list[str], expected: list[str]) -> tuple[int, int]:
    """Byte-exact comparison; a missing or unexpected printed value fails too."""
    attempted = max(len(printed), len(expected))
    return attempted, attempted - sum(g == w for g, w in zip(printed, expected))


def close(got, want) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_reference(report: dict, workload: str, points: list[dict]) -> tuple[int, int]:
    import oracle

    reference = oracle.numeric(oracle.REFERENCES[workload](), points)
    got = report.get("values") or []
    attempted = failed = 0
    for n, (shape, table) in enumerate(reference):
        mine = got[n] if n < len(got) else None
        attempted += len(table) * len(points)
        if mine is None or tuple(mine["shape"]) != shape:
            failed += len(table) * len(points)
            continue
        failed += sum(
            not close(g, w)
            for row_got, row_want in zip(mine["values"], table)
            for g, w in zip(row_got, row_want)
        )
    extra = len(got) - len(reference)
    if extra > 0:  # printed values the reference does not expect
        attempted += extra
        failed += extra
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = WORKLOADS[args.workload]
    for needed in (SRC / "tegi" / "__init__.py", program):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a tegi source checkout",
                  file=sys.stderr)
            return 2

    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "probe_ms": round(probe_ms(), 3)}
    print("host " + json.dumps(host))
    points = check_points(args.seed)
    setup = None if args.trace else setup_seconds()
    report = json.loads(python(
        "worker.py", str(program), str(args.seconds), json.dumps(points), str(args.trace),
        timeout=WORKER_TIMEOUT_S,
    ))
    if not Path(report["tegi_file"]).resolve().is_relative_to(SRC):
        print(f"error: imported tegi from {report['tegi_file']}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "s2_paper":
        attempted, failed = check_annotations(report.get("printed", []), annotations(program))
    else:
        attempted, failed = check_reference(report, args.workload, points)
    if report["error"]:
        print(f"error: {report['error']}")
        failed = attempted
    attempted += 1  # repeated evaluations print identical text
    failed += not report.get("stable", False)
    if args.trace:
        attempted += 1  # every traced evaluation gives the same counts
        failed += not report.get("counts_repeat", False)
    print(f"checks {attempted}, failed {failed}")

    wall = report["wall"]
    if args.trace:
        metrics = {k: (v, "s") for k, v in report.get("times", {}).items()}
        metrics.update({k: (v, "ratio" if k.endswith("yield") else "count")
                        for k, v in report.get("counts", {}).items()})
        if wall and report.get("traced"):
            overhead = min(report["traced"]) / min(wall) - 1
            metrics["trace.overhead_frac"] = (overhead, "ratio")
        print(f"traced samples {len(report.get('traced', []))}, untraced samples {len(wall)}")
    else:
        # The fastest sample, not the median: this host's speed switches
        # between a fast and a ~1.7x slower phase every few seconds, and the
        # median flips between the two (see README.md, "Steadiness").
        metrics = {
            "wall_s": (min(wall), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (report.get("rss_mb", 0.0), "MiB"),
            "result_terms": (report.get("result_terms", 0), "count"),
        }
        print(f"wall samples {len(wall)}: min {min(wall):.6g} s, median {statistics.median(wall):.6g} s, "
              f"max {max(wall):.6g} s")
        # Not in BENCHMARK.json: it is 0 on correct code; the result line
        # carries it as failed / attempted.
        print(f"fail_frac {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
