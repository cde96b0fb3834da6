"""Differential tests: every reshaping operation against its coordinate-loop reference.

The engine reads tensors through one strided-view helper; `oracles` keeps the
loop versions it replaced.  Components are distinct symbols, so a component
gathered from the wrong offset changes the result.
"""

import math
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from tegi.application import with_symbols_scope
from tegi.errors import TegiError
from tegi.forms import det, df_normalize, hodge_star
from tegi.symexpr import ZERO, Sym, integer, sub, symbol
from tegi.tensor import (
    SUBSCRIPT,
    SUPERSCRIPT,
    SUPERSUBSCRIPT,
    Dummy,
    IndexMark,
    TensorValue,
    _align,
    attach_indices,
    contract,
    fresh_uid,
    permute_marked_axes,
)

from oracles import (
    align_ref,
    attach_indices_ref,
    contract_ref,
    det_ref,
    df_normalize_ref,
    hodge_ref,
    permute_marked_axes_ref,
    reduce_indices_ref,
    with_symbols_scope_ref,
)

VARIANCES = st.sampled_from([SUPERSCRIPT, SUBSCRIPT, SUPERSUBSCRIPT])
NAMES = st.sampled_from([Sym("i"), Sym("j"), Sym("k")])
# Dummies drawn from two uids: two dummies with one uid are equal values that
# never pair.
DUMMIES = st.sampled_from([fresh_uid(), fresh_uid()]).map(Dummy)


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
        label = draw(NAMES) if kind == "name" else draw(DUMMIES)
        marks.append(IndexMark(draw(VARIANCES), label))
    shape = tuple(shape)
    return TensorValue(shape, symbolic(shape), tuple(marks))


@st.composite
def attachments(draw):
    """A tensor, marked or not, and marks for some of its free axes.

    Literal labels run from 0 to one past the axis dimension, so some are
    out of bounds, and one mark too many may follow the free axes.
    """
    t = draw(tensors())
    if draw(st.booleans()):
        t = TensorValue(t.shape, t.components)
    existing = len(t.indices)
    n_marks = draw(st.integers(0, t.rank - existing + 1))
    marks = []
    for axis in range(existing, existing + n_marks):
        kind = draw(st.sampled_from(["name", "name", "dummy", "literal"]))
        if kind == "literal":
            dim = t.shape[axis] if axis < t.rank else 1
            label = draw(st.integers(0, dim + 1))
        elif kind == "dummy":
            label = draw(DUMMIES)
        else:
            label = draw(NAMES)
        marks.append(IndexMark(draw(VARIANCES), label))
    return t, marks


def marked(shape, *marks):
    return TensorValue(shape, symbolic(shape), marks)


I_, J_ = Sym("i"), Sym("j")
SHARED_UID = fresh_uid()


@settings(max_examples=300, deadline=None)
@given(attachments())
def test_attach_indices_matches_loops(case):
    # the same value, or an error of the same class with the same message
    t, marks = case
    try:
        want = attach_indices_ref(t, marks)
    except TegiError as exc:
        with pytest.raises(type(exc)) as got:
            attach_indices(t, marks)
        assert str(got.value) == str(exc)
        return
    assert attach_indices(t, marks) == want


# With no new marks, attaching is index reduction of the tensor's own marks.
@settings(max_examples=150, deadline=None)
@given(tensors())
@example(marked((2, 3), IndexMark(SUBSCRIPT, I_), IndexMark(SUPERSCRIPT, J_)))  # no repeat
@example(marked((3, 3), IndexMark(SUBSCRIPT, I_), IndexMark(SUBSCRIPT, I_)))  # one pair
@example(marked((3, 3), IndexMark(SUBSCRIPT, I_), IndexMark(SUPERSCRIPT, I_)))  # mixed variances
# a three-way repeat, then two dummies with one uid
@example(marked((2, 2, 2), *(IndexMark(v, I_) for v in (SUBSCRIPT, SUPERSCRIPT, SUBSCRIPT))))
@example(marked((2, 2), *(IndexMark(SUBSCRIPT, Dummy(SHARED_UID)) for _ in range(2))))
@example(marked((2, 3), IndexMark(SUBSCRIPT, I_), IndexMark(SUBSCRIPT, I_)))  # dimension clash
def test_reduce_indices_matches_the_reference(t):
    # the same value, or an error of the same class with the same message;
    # attach_indices returns a rank-0 result as its one component
    try:
        want = reduce_indices_ref(t)
        if not want.shape:
            want = want.components[0]
    except TegiError as exc:
        with pytest.raises(type(exc)) as got:
            attach_indices(t, [])
        assert str(got.value) == str(exc)
        return
    assert attach_indices(t, []) == want


@st.composite
def layouts(draw):
    """One to three parts for `_align`, over one to three readers.

    Marks are shared names with dimensions that mostly agree, or dummies, in
    any variance and repeated within a part as well; some parts have
    unmarked axes, so hoisting faults and several mismatches can meet.
    Strides are distinct powers of two, so a stride added to the wrong axis
    or reader shows.
    """
    readers = draw(st.integers(1, 3))
    dims = {label: draw(st.integers(1, 3)) for label in (I_, J_, Sym("k"))}
    parts, bit = [], 1
    for _ in range(draw(st.integers(1, 3))):
        ms, shape = [], []
        for _ in range(draw(st.integers(0, 3))):
            label = draw(st.one_of(NAMES, DUMMIES))
            ms.append(IndexMark(draw(VARIANCES), label))
            clash = draw(st.integers(0, 4)) == 0
            shape.append(draw(st.integers(1, 3)) if clash or isinstance(label, Dummy) else dims[label])
        shape += [draw(st.integers(1, 3)) for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
        steps = [bit << n for n in range(len(shape))]
        bit <<= len(shape)
        parts.append((tuple(ms), tuple(shape), tuple(steps), draw(st.integers(0, readers - 1))))
    return parts, readers


@settings(max_examples=400, deadline=None)
@given(layouts())
# the first mismatch in pairwise order is a's, over 2 and 3, not b's, over 2 and 4
@example(([(tuple(IndexMark(SUPERSCRIPT, Sym(c)) for c in "abba"), (2, 2, 4, 3), (24, 12, 3, 1), 0)], 1))
# the last part's own mismatch comes before the hoisting fault of the part before it
@example(([((IndexMark(SUPERSCRIPT, I_),), (2,), (1,), 0),
           ((IndexMark(SUBSCRIPT, I_),), (2, 3), (3, 1), 1),
           ((IndexMark(SUBSCRIPT, I_), IndexMark(SUBSCRIPT, I_)), (2, 3), (3, 1), 1)], 2))
# a part's hoisting fault comes before its own mismatch with a later part
@example(([((IndexMark(SUPERSCRIPT, I_),), (2, 3), (3, 1), 0),
           ((IndexMark(SUBSCRIPT, I_),), (3,), (1,), 1)], 2))
# a label's own later mark, over 2 and 3, before its axis in a later part, over 2 and 4
@example(([((IndexMark(SUPERSCRIPT, I_), IndexMark(SUBSCRIPT, I_)), (2, 3), (3, 1), 0),
           ((IndexMark(SUBSCRIPT, I_),), (4,), (1,), 1)], 2))
def test_align_matches_pairwise_nesting(case):
    # the same layout, or an error of the same class with the same message;
    # _align lays out one reader more than the largest reader number
    parts, _ = case
    try:
        want = align_ref(parts, 1 + max(part[3] for part in parts))
    except TegiError as exc:
        with pytest.raises(type(exc)) as got:
            _align(parts)
        assert got.value.message == exc.message
        return
    assert _align(parts) == want


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
    fold = logged(got_log)
    assert contract(lambda *run: reduce(fold, run), t) == contract_ref(logged(want_log), t)
    assert got_log == want_log


@settings(max_examples=100, deadline=None)
@given(tensors(), st.randoms(use_true_random=False))
def test_permute_marked_axes_matches_loops(t, rng):
    perm = list(range(len(t.indices)))
    rng.shuffle(perm)
    assert permute_marked_axes(t, perm) == permute_marked_axes_ref(t, perm)


@settings(max_examples=300, deadline=None)
@given(tensors(), st.lists(st.sampled_from([I_, J_, Sym("k"), Sym("t")]), unique=True))
def test_with_symbols_scope_matches_two_steps(t, symbols):
    # the scope's marks, found or not, in any order; repeated labels and
    # dummies among the marks
    assert with_symbols_scope(symbols, t) == with_symbols_scope_ref(symbols, t)


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
    """A k-form in n <= 4 dimensions with marked leading axes, and two metrics.

    The lower metric is diagonal and invertible, so the sqrt|det g| factor is
    never zero.  The inverse metric is dense, diagonal or sparse, and some
    form components may be literal zeros, so the zero-skipping path runs.
    """
    n = draw(st.integers(1, 4))
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
    a, g, g_inv = case
    assert hodge_star(g, g_inv)(a) == hodge_ref(a, g, g_inv)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), PATTERNS, st.data())
def test_det_matches_loops(n, pattern, data):
    m = TensorValue((n, n), with_zeros(data.draw, symbolic((n, n), prefix="m"), pattern))
    assert det(m) == det_ref(m)
