"""The benchmark's layer tracer still fits the engine.

`bench/tracer.py` wraps engine functions by name and hooks the signature of
`apply_with_kinds`, so an engine change can break `--trace 1` without any
other test noticing.  The tracer is imported from its file, read only.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tegi.evaluator import Interpreter, format_value

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"


def load_tracer():
    spec = importlib.util.spec_from_file_location("tegi_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def printed(text: str, on_ready=None) -> list[str]:
    """Evaluate on a fresh interpreter, as the benchmark worker does."""
    interp = Interpreter()
    if on_ready is not None:
        on_ready()
    return [format_value(v) for v in interp.eval_source(text)]


# The 2-sphere program lifts through `apply_with_kinds`; the forms program
# also reaches `forms`, whose functions the tracer wraps too.  Schwarzschild
# repeats 652 of its 704 derivatives, so it leans hardest on the derivative
# memo each `Interpreter` keeps.
@pytest.mark.parametrize(
    "program, counted",
    [
        (CORPUS / "riemann_s2.tegi", "application.kernel_calls"),
        (CORPUS / "forms_s3.tegi", "forms.calls"),
        (ROOT / "bench" / "programs" / "schwarzschild.tegi", "symexpr.calls"),
    ],
    ids=["riemann_s2", "forms_s3", "schwarzschild"],
)
def test_traced_runs_print_the_same_and_count_the_same(program, counted):
    text = program.read_text(encoding="utf-8")
    untraced = printed(text)
    tracer = load_tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            runs.append((printed(text, on_ready=tracer.reset), tracer.counts()))
    finally:
        tracer.uninstall()
    (first, counts), (second, again) = runs
    assert first == second == untraced
    assert counts == again
    assert counts["application.kernel_calls"] > 0
    assert counts[counted] > 0
    assert printed(text) == untraced  # uninstalled cleanly


# A fresh process traces its first evaluation, with nothing evaluated before
# the tracer is installed, so state that outlives an `Interpreter` (a memo
# kept at module level, say) changes the second traced evaluation's counts.
FRESH = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from tegi.evaluator import Interpreter, format_value
tracer = module.Tracer()
tracer.install()
text = open(sys.argv[3], encoding="utf-8").read()
runs = []
for _ in range(2):
    interp = Interpreter()
    tracer.reset()
    printed = [format_value(v) for v in interp.eval_source(text)]
    runs.append([printed, tracer.counts()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize(
    "program",
    [
        ROOT / "bench" / "programs" / "schwarzschild.tegi",
        CORPUS / "riemann_s2.tegi",
        CORPUS / "forms_s3.tegi",  # the Hodge star each `Interpreter` keeps
    ],
    ids=["schwarzschild", "riemann_s2", "forms_s3"],
)
def test_first_traced_runs_in_a_fresh_process_count_the_same(program):
    r = subprocess.run(
        [sys.executable, "-c", FRESH, str(SRC), str(ROOT / "bench" / "tracer.py"), str(program)],
        capture_output=True, text=True, check=True,
    )
    (first, counts), (second, again) = json.loads(r.stdout)
    assert first == second
    assert counts == again
    assert counts["symexpr.calls"] > 0
