"""Evaluate one workload program in this fresh process and report on it.

usage: python3 worker.py PROGRAM SECONDS POINTS_JSON TRACE

Run with the engine's source directory on PYTHONPATH.  Each evaluation is a
fresh `Interpreter` evaluating and formatting the whole program, timed with
the interpreter already built.  The first evaluation is a warm-up; peak RSS
is read right after it, so it is the peak of a process that ran the program
once.  Then evaluations repeat until SECONDS would be exceeded (at least one).
With TRACE=1 untraced and traced evaluations alternate instead, and the
per-layer counts of the traced ones are reported with each layer's smallest
self time.

Prints one JSON object: timings, printed strings, each printed value's shape
and its scalar components evaluated at the check points, and the error, if
the program raised one.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from time import perf_counter

import tegi
from tegi import Interpreter, format_value
from tegi.symexpr import Expr, evaluate_at
from tegi.tensor import TensorValue


def run_once(text: str, on_ready=None):
    """Evaluate and format `text` on a fresh interpreter: (seconds, values, printed)."""
    gc.collect()
    interp = Interpreter()
    if on_ready is not None:
        on_ready()
    start = perf_counter()
    values = interp.eval_source(text)
    printed = [format_value(v) for v in values]
    return perf_counter() - start, values, printed


def scalars(value) -> tuple[list, list]:
    """(shape, scalar components) of a printed value."""
    if isinstance(value, TensorValue):
        return list(value.shape), list(value.components)
    return [], [value]


def evaluate(value, points):
    """Each scalar component of `value` at every point; None where that fails."""
    shape, comps = scalars(value)
    table = []
    for c in comps:
        row = []
        for p in points:
            try:
                row.append(evaluate_at(c, p) if isinstance(c, Expr) else None)
            except Exception:  # a failed evaluation is a failed check
                row.append(None)
        table.append(row)
    return {"shape": shape, "values": table}


def result_terms(values) -> int:
    return sum(len(c.terms) for v in values for c in scalars(v)[1] if isinstance(c, Expr))


def time_loop(seconds: float, step):
    """Call `step` (returning its duration) until the next call would end past `seconds`."""
    start = perf_counter()
    while True:
        last = step()
        if perf_counter() - start + last > seconds:
            return


def main(argv: list[str]) -> int:
    program, seconds, points, trace = argv[0], float(argv[1]), json.loads(argv[2]), argv[3] == "1"
    with open(program, encoding="utf-8") as fh:
        text = fh.read()
    report = {"tegi_file": tegi.__file__, "error": None}
    start = perf_counter()
    try:
        _, values, printed = run_once(text)
    except Exception as exc:  # the benchmark counts any raise as failed checks
        report.update(error=f"{type(exc).__name__}: {exc}", wall=[perf_counter() - start])
        print(json.dumps(report))
        return 0
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["printed"] = printed
    stable = True
    untraced, traced, counts, times = [], [], [], []

    def untraced_step():
        nonlocal stable
        dt, _, again = run_once(text)
        stable = stable and again == printed
        untraced.append(dt)
        return dt

    if not trace:
        time_loop(seconds, untraced_step)
    else:
        from tracer import Tracer

        tracer = Tracer()

        def pair_step():
            nonlocal stable
            dt_u = untraced_step()
            tracer.install()
            try:
                dt, _, again = run_once(text, on_ready=tracer.reset)
            finally:
                tracer.uninstall()
            stable = stable and again == printed
            traced.append(dt)
            counts.append(tracer.counts())
            times.append(tracer.times())
            return dt_u + dt

        time_loop(seconds, pair_step)
        report["counts"] = counts[-1]
        report["counts_repeat"] = all(c == counts[0] for c in counts)
        report["times"] = {k: min(t[k] for t in times) for k in times[0]}
        report["traced"] = traced
    report.update(
        wall=untraced,
        stable=stable,
        result_terms=result_terms(values),
        values=[evaluate(v, points) for v in values],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
