"""The benchmark's layer tracer still fits the engine.

`bench/tracer.py` wraps engine functions by name and hooks the signature of
`apply_with_kinds`, so an engine change can break `--trace 1` without any
other test noticing.  The tracer is imported from its file, read only.
"""

import importlib.util
from pathlib import Path

import pytest

from tegi.evaluator import Interpreter, format_value

ROOT = Path(__file__).resolve().parent.parent
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
