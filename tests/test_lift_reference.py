"""Differential tests: lifting against the nested-map path it replaced.

`apply_with_kinds` collapses the lifted arguments' shared labels on their
strides and calls the kernel once per result component;
`oracles.apply_with_kinds_ref` nests single-tensor maps over the whole outer
product and reduces afterwards.  Components are distinct symbols and the
kernels tag their arguments in order, so a component gathered from the wrong
offset, or passed in the wrong position, changes the result.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tegi.application import INVERTED, SCALAR, TENSOR, apply_with_kinds
from tegi.errors import TegiError
from tegi.symexpr import Sym, symbol
from tegi.tensor import (
    SUBSCRIPT,
    SUPERSCRIPT,
    SUPERSUBSCRIPT,
    Dummy,
    IndexMark,
    TensorValue,
    fresh_uid,
)

from oracles import apply_with_kinds_ref, reduce_indices_ref

VARIANCES = st.sampled_from([SUPERSCRIPT, SUBSCRIPT, SUPERSUBSCRIPT])
NAMES = (Sym("i"), Sym("j"), Sym("k"))
LABEL_DIMS = st.fixed_dictionaries({name: st.integers(1, 3) for name in NAMES})


def symbolic(shape, prefix):
    return tuple(symbol(f"{prefix}{n}") for n in range(math.prod(shape)))


@st.composite
def layouts(draw, dims, max_rank):
    """A shape of rank <= max_rank with marks on its leading axes.

    A named axis has the dimension dims gives its label, so labels repeated
    within one layout agree; dummy-marked and form axes draw their own.
    Marks mix shared names, dummies and all three variances; most layouts
    have no form axes, as lifted arguments in the language have none.
    """
    rank = draw(st.integers(0, max_rank))
    n_marks = rank - min(rank, draw(st.sampled_from([0, 0, 0, 1, 2])))
    shape, marks = [], []
    for axis in range(rank):
        if axis < n_marks and draw(st.sampled_from(["name", "name", "dummy"])) == "name":
            label = draw(st.sampled_from(NAMES))
            shape.append(dims[label])
        else:
            label = Dummy(fresh_uid())
            shape.append(draw(st.integers(1, 3)))
        if axis < n_marks:
            marks.append(IndexMark(draw(VARIANCES), label))
    return tuple(shape), tuple(marks)


@st.composite
def lift_cases(draw):
    """Kinds, arguments and a kernel result layout (None for tagged tuples).

    One to three lifted tensors of total rank <= 6, so the reference's outer
    product stays small; each is reduced, as every marked tensor the engine
    builds is.  A quarter of them give their labels their own dimensions,
    which can clash with the others'.  A scalar and a tensor-kind argument
    may join at any position.
    """
    case_dims = draw(LABEL_DIMS)
    kinds, args, budget = [], [], 6
    for q in range(draw(st.integers(1, 3))):
        dims = case_dims if draw(st.integers(0, 3)) else draw(LABEL_DIMS)
        shape, marks = draw(layouts(dims, min(4, budget)))
        budget -= len(shape)
        args.append(reduce_indices_ref(TensorValue(shape, symbolic(shape, f"a{q}_"), marks)))
        kinds.append(draw(st.sampled_from([SCALAR, INVERTED])))
    whole = TensorValue((2,), symbolic((2,), "w"), (IndexMark(SUBSCRIPT, NAMES[0]),))
    for extra, kind in ((symbol("s"), draw(st.sampled_from([SCALAR, INVERTED]))), (whole, TENSOR)):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(args)))
            args.insert(at, extra)
            kinds.insert(at, kind)
    result = draw(st.none() | layouts(case_dims, 2))
    return kinds, args, result


def tagging_kernel(result, calls):
    """Tag the arguments in order; with a result layout, fill a tensor with tags."""

    def kernel(*xs):
        calls.append(xs)
        if result is None:
            return ("f",) + xs
        shape, marks = result
        return TensorValue(shape, tuple((n, "f") + xs for n in range(math.prod(shape))), marks)

    return kernel


@settings(max_examples=300, deadline=None)
@given(lift_cases())
def test_lifting_matches_nested_maps(case):
    kinds, args, result = case
    got_calls, want_calls = [], []
    try:
        want = apply_with_kinds_ref(tagging_kernel(result, want_calls), kinds, args)
    except TegiError as exc:
        with pytest.raises(TegiError) as raised:
            apply_with_kinds(tagging_kernel(result, got_calls), kinds, args)
        # The nested maps ran the kernel first, and its marks took part in
        # the innermost map's checks; the lifted path checks the arguments
        # before the first call.  When marked results meet lifted form axes,
        # both raise, but with two faults present each may report the other.
        # Tegi code never gets here: index completion marks every form axis
        # of a lifted argument.
        marked_results = result is not None and result[1]
        form_axes = any(
            k is not TENSOR and isinstance(a, TensorValue) and a.form_degree
            for k, a in zip(kinds, args)
        )
        if not (marked_results and form_axes):
            assert type(raised.value) is type(exc)
        return
    got = apply_with_kinds(tagging_kernel(result, got_calls), kinds, args)
    assert got == want
    assert len(got_calls) <= len(want_calls)
    if result is None:
        assert len(got_calls) == len(got.components)
