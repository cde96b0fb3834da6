"""Differential tests: the interpreter against its dense path.

`oracles.DenseInterpreter` completes and lifts every call, folds `+` and `*`
pairwise with zero factors multiplied out, and contracts each run through
`call`.  The interpreter skips all three where nothing changes.  Each form
must print the same in both, or fail with the same error class, message and
location.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tegi.errors import TegiError
from tegi.evaluator import Interpreter, format_value

from oracles import DenseInterpreter

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted((ROOT / "tests" / "corpus").glob("*.tegi")) + sorted(
    (ROOT / "bench" / "programs").glob("*.tegi")
)


def outcomes(cls, forms: list[str]) -> list:
    """Each form's printed value, or its error as (class, message, location)."""
    interp = cls()
    out = []
    for form in forms:
        try:
            out.append([format_value(v) for v in interp.eval_source(form)])
        except TegiError as exc:
            out.append((type(exc), exc.message, exc.location))
    return out


def assert_same(forms: list[str]):
    assert outcomes(Interpreter, forms) == outcomes(DenseInterpreter, forms)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_program_files(path):
    assert_same([path.read_text(encoding="utf-8")])


# -- generated programs ------------------------------------------------------

SCALARS = ["0", "0", "1", "-2", "3", "r", "θ", "(sin θ)", "r^2", "(- r r)", "(* 0 r)"]
NON_SCALARS = ["(less-than? 1 2)", '"s"', "{1 2}"]
# A user `+` that is neither commutative nor associative pins the fold order.
REBOUND_PLUS = [
    "(define $+ (lambda [$a $b] (- a (* 2 b))))",
    "(define $+ *)",
    "(define $+ (lambda [$a $b] (less-than? a b)))",
]

scalars = st.sampled_from(SCALARS)
numbers = st.sampled_from(["0", "1", "-2", "3"])  # less-than? needs numbers
marks = st.sampled_from(["~i", "_i", "~j", "_j", "~k"])


def literal(draw, shape, leaves=scalars) -> str:
    if not shape:
        return draw(leaves)
    return "[|" + " ".join(literal(draw, shape[1:], leaves) for _ in range(shape[0])) + "|]"


@st.composite
def operands(draw) -> str:
    """A scalar, or a vector or matrix literal with index marks."""
    rank = draw(st.integers(0, 2))
    if rank == 0:
        return draw(scalars)
    n = draw(st.integers(1, 3))
    return literal(draw, (n,) * rank) + "".join(draw(marks) for _ in range(rank))


@st.composite
def lifted(draw) -> str:
    op = draw(st.sampled_from(["+", "*", "-"]))
    args = draw(st.lists(operands(), min_size=1, max_size=3))
    return f"({op} {' '.join(args)})"


@st.composite
def contractions(draw) -> str:
    """`(contract + …)` over one or two `~_` axes of dimension 1 to 3."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["vector", "matrix", "rank3", "dot", "bools"]))
    if kind == "vector":
        return f"(contract + {literal(draw, (n,))}~_i)"
    if kind == "matrix":
        return f"(contract + {literal(draw, (n, n))}~i_i)"
    if kind == "rank3":
        m = draw(st.integers(1, 3))
        return f"(contract + {literal(draw, (n, m, n))}~i_j_i)"
    if kind == "dot":
        return f"(. {literal(draw, (n,))}~i {literal(draw, (n,))}_i)"
    # boolean components: `+` fails on a run of any length
    a, b = literal(draw, (n,), numbers), literal(draw, (n,), numbers)
    return f"(contract + (less-than? {a}~i {b}_i))"


@st.composite
def scalar_calls(draw) -> str:
    """Scalar-only calls, under `!` or not, some with a non-scalar argument."""
    op = draw(st.sampled_from(["+", "*", "-"]))
    pool = st.one_of(scalars, st.sampled_from(NON_SCALARS))
    args = draw(st.lists(pool, min_size=1, max_size=3))
    bang = draw(st.sampled_from(["", "!"]))
    return f"{bang}({op} {' '.join(args)})"


forms = st.one_of(lifted(), contractions(), scalar_calls())


@settings(max_examples=150, deadline=None)
@given(st.lists(forms, min_size=1, max_size=4))
def test_generated_forms(program):
    assert_same(program)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REBOUND_PLUS), st.lists(st.one_of(contractions(), lifted()), min_size=1, max_size=3))
def test_rebound_plus(definition, program):
    assert_same([definition, *program])
