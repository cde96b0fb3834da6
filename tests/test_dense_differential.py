"""Differential tests: the interpreter against its dense path.

`oracles.DenseInterpreter` completes and lifts every call, folds `+` and `*`
pairwise with zero factors multiplied out, and contracts each run through
`call`; it evaluates the body of `.` as written.  The interpreter skips all
of that where nothing changes, and runs `.` as one sparse join.  Each form
must print the same in both, or fail with the same error class, message and
location.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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


@st.composite
def dot_operands(draw, dims) -> str:
    """A scalar, or a tensor literal of rank 1 to 3 for `.`.

    Labels i, j, k have the dimensions in dims, but one axis in five draws
    its own; `#` marks a dummy.  Marks may repeat a label within the operand
    and may leave trailing form axes.  Components are mostly zeros, and an
    operand may be lifted through `less-than?`, so its components are not
    scalars.
    """
    rank = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
    if rank == 0:
        return draw(scalars)
    n_marks = rank - draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1]))
    shape, marks = [], ""
    for axis in range(rank):
        label = draw(st.sampled_from(["i", "j", "k", "#"]))
        own = label == "#" or axis >= n_marks or draw(st.integers(0, 4)) == 0
        shape.append(draw(st.integers(1, 3)) if own else dims[label])
        if axis < n_marks:
            marks += draw(st.sampled_from("~_")) + label
    if draw(st.integers(0, 7)) == 0:
        return f"(less-than? {literal(draw, shape, numbers)}{marks} 2)"
    leaves = st.sampled_from(["0", "0", "0", "1", "-2", "r", "(sin θ)", "(* 0 r)"])
    return literal(draw, shape, leaves) + marks


REBINDINGS = [
    "(define $+ (lambda [$a $b] (- a (* 2 b))))",
    "(define $* (lambda [$a $b] (- a b)))",
    "(define $* +)",
    "(define $+ +)",  # the same builtin under its own name: still the join
    "(define $contract (lambda [%f %t] t))",
]
# a user lambda with the body of `.`, whose nodes carry locations
USER_DOT = "(define $dot (lambda [%p %q] (contract + (* p q))))"


@st.composite
def dot_programs(draw) -> list[str]:
    """`(. A B)`, `!(. A B)` and `(dot A B)` forms, after a rebinding or not."""
    dims = {label: draw(st.integers(1, 3)) for label in "ijk"}
    rebinding = draw(st.sampled_from([None, None, None, *REBINDINGS]))
    program = [USER_DOT] + ([rebinding] if rebinding else [])
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(dot_operands(dims)), draw(dot_operands(dims))
        form = draw(st.sampled_from(["(. {} {})", "!(. {} {})", "(dot {} {})"]))
        program.append(form.format(a, b))
    return program


@settings(max_examples=400, deadline=None)
@given(dot_programs())
# an argument's own summed axis, summed with the shared one
@example(["(. [|[|1 2|] [|3 r|]|]~i_i [|[|5 0|] [|r 7|]|]~j_k)", "(. [|[|1 2|] [|3 r|]|]~i_j [|[|5 0|] [|r 7|]|]_j~i)"])
# zeros on both sides of a shared label, and an unshared pair
@example(["(. [|[|0 r|] [|1 0|]|]~i~j [|[|r 0|] [|0 2|]|]_j_k)", "(. [|0 r|]~i [|(sin θ) 0|]_j)"])
@example(["(define $* (lambda [$a $b] (- a b)))", "(. [|1 2|]~i [|3 4|]_i)"])
# bodies of the join's shape that are not it: a parameter named `+`, swapped factors
@example(["((lambda [%+ %q] (contract + (* + q))) [|1 2|]~i [|3 4|]_i)",
          "((lambda [%p %q] (contract + (* q p))) [|1 2|]~i [|3 r|]_i)"])
def test_dot_forms(program):
    assert_same(program)


forms = st.one_of(lifted(), contractions(), scalar_calls())


@settings(max_examples=150, deadline=None)
@given(st.lists(forms, min_size=1, max_size=4))
def test_generated_forms(program):
    assert_same(program)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REBOUND_PLUS), st.lists(st.one_of(contractions(), lifted()), min_size=1, max_size=3))
def test_rebound_plus(definition, program):
    assert_same([definition, *program])
