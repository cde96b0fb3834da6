"""Differential tests: every reshaping operation against its coordinate-loop reference.

The engine reads tensors through one strided-view helper; `oracles` keeps the
loop versions it replaced.  Components are distinct symbols, so a component
gathered from the wrong offset changes the result.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tegi.errors import TegiError
from tegi.forms import det, df_normalize, hodge
from tegi.symexpr import ZERO, Sym, integer, sub, symbol
from tegi.tensor import (
    SUBSCRIPT,
    SUPERSCRIPT,
    SUPERSUBSCRIPT,
    Dummy,
    IndexMark,
    TensorValue,
    attach_indices,
    contract,
    fresh_uid,
    permute_marked_axes,
)

from oracles import (
    attach_indices_ref,
    contract_ref,
    det_ref,
    df_normalize_ref,
    hodge_ref,
    permute_marked_axes_ref,
)

VARIANCES = st.sampled_from([SUPERSCRIPT, SUBSCRIPT, SUPERSUBSCRIPT])
NAMES = st.sampled_from([Sym("i"), Sym("j"), Sym("k")])


def symbolic(shape, prefix="c"):
    size = 1
    for d in shape:
        size *= d
    return tuple(symbol(f"{prefix}{n}") for n in range(size))


@st.composite
def tensors(draw, form_dim=None):
    """A tensor of rank <= 4 and dimensions <= 3; marks on some leading axes.

    Labels are shared names or dummies, with any variance.  With form_dim,
    the trailing unmarked axes all have that size.
    """
    rank = draw(st.integers(0, 4))
    n_marks = draw(st.integers(0, rank))
    shape = [draw(st.integers(1, 3)) for _ in range(rank)]
    if form_dim is not None:
        shape[n_marks:] = [form_dim] * (rank - n_marks)
    marks = []
    for _ in range(n_marks):
        kind = draw(st.sampled_from(["name", "name", "dummy"]))
        label = draw(NAMES) if kind == "name" else Dummy(fresh_uid())
        marks.append(IndexMark(draw(VARIANCES), label))
    shape = tuple(shape)
    return TensorValue(shape, symbolic(shape), tuple(marks))


@st.composite
def attachments(draw):
    """An unmarked tensor and marks for some leading axes, literals included."""
    t = draw(tensors())
    n_marks = draw(st.integers(0, t.rank))
    marks = []
    for axis in range(n_marks):
        kind = draw(st.sampled_from(["name", "name", "dummy", "literal"]))
        if kind == "literal":
            label = draw(st.integers(1, t.shape[axis]))
        elif kind == "dummy":
            label = Dummy(fresh_uid())
        else:
            label = draw(NAMES)
        marks.append(IndexMark(draw(VARIANCES), label))
    return TensorValue(t.shape, t.components), marks


@settings(max_examples=150, deadline=None)
@given(attachments())
def test_attach_indices_matches_loops(case):
    # both raise the same error type, or both return equal values
    t, marks = case
    try:
        want = attach_indices_ref(t, marks)
    except TegiError as exc:
        with pytest.raises(type(exc)):
            attach_indices(t, marks)
        return
    assert attach_indices(t, marks) == want


@settings(max_examples=150, deadline=None)
@given(tensors())
def test_contract_matches_loops_in_fold_order(t):
    # sub does not commute, and the logs pin every call of f in order
    def logged(log):
        def f(a, b):
            log.append((a, b))
            return sub(a, b)

        return f

    got_log, want_log = [], []
    assert contract(logged(got_log), t) == contract_ref(logged(want_log), t)
    assert got_log == want_log


@settings(max_examples=100, deadline=None)
@given(tensors(), st.randoms(use_true_random=False))
def test_permute_marked_axes_matches_loops(t, rng):
    perm = list(range(len(t.indices)))
    rng.shuffle(perm)
    assert permute_marked_axes(t, perm) == permute_marked_axes_ref(t, perm)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: tensors(form_dim=d)))
def test_df_normalize_matches_loops(t):
    assert df_normalize(t) == df_normalize_ref(t)


def with_zeros(draw, comps, pattern):
    """Keep comps, or make some of them literal zeros: the diagonal of a
    square matrix only, or a drawn subset."""
    if pattern == "diagonal":
        n = math.isqrt(len(comps))
        return tuple(c if i // n == i % n else ZERO for i, c in enumerate(comps))
    if pattern == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=len(comps), max_size=len(comps)))
        return tuple(c if kp else ZERO for c, kp in zip(comps, keep))
    return comps


PATTERNS = st.sampled_from(["dense", "diagonal", "sparse"])


@st.composite
def hodge_cases(draw):
    """A k-form in n <= 3 dimensions with marked leading axes, and two metrics.

    The lower metric is diagonal and invertible, so the sqrt|det g| factor is
    never zero.  The inverse metric is dense, diagonal or sparse, and some
    form components may be literal zeros, so the zero-skipping path runs.
    """
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    marked = tuple(draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, min(2, 4 - k)))))
    shape = marked + (n,) * k
    form_zeros = draw(st.sampled_from(["dense", "sparse"]))
    if shape:
        marks = tuple(IndexMark(SUBSCRIPT, Dummy(fresh_uid())) for _ in marked)
        a = TensorValue(shape, with_zeros(draw, symbolic(shape), form_zeros), marks)
    else:
        a = with_zeros(draw, (symbol("c0"),), form_zeros)[0]
    diagonal = [draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(n)]
    g_lower = TensorValue(
        (n, n), tuple(integer(diagonal[i] if i == j else 0) for i in range(n) for j in range(n))
    )
    g_upper = TensorValue((n, n), with_zeros(draw, symbolic((n, n), prefix="u"), draw(PATTERNS)))
    return a, g_lower, g_upper


@settings(max_examples=100, deadline=None)
@given(hodge_cases())
def test_hodge_matches_loops(case):
    assert hodge(*case) == hodge_ref(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), PATTERNS, st.data())
def test_det_matches_loops(n, pattern, data):
    m = TensorValue((n, n), with_zeros(data.draw, symbolic((n, n), prefix="m"), pattern))
    assert det(m) == det_ref(m)
