"""Tensor values with index marks and the reduction engine.

A TensorValue is a row-major tuple of components plus a list of index marks
bound to its leading axes; trailing unmarked axes are the "form axes" used by
the differential-forms layer.  Components are arbitrary values (usually exact
scalars), so everything here is plain Python data manipulation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from functools import reduce

from .errors import (
    IndexArityError,
    IndexBoundsError,
    IndexLabelError,
    ShapeMismatchError,
)
from .record import Record
from .symexpr import Sym, integer

__all__ = [
    "Dummy",
    "IndexMark",
    "SUBSCRIPT",
    "SUPERSCRIPT",
    "SUPERSUBSCRIPT",
    "TensorValue",
    "attach_indices",
    "contract",
    "down",
    "find_identical_pairs",
    "flip_indices",
    "format_tensor",
    "fresh_uid",
    "labels_equal",
    "reduce_indices",
    "tensor",
    "tensor_map",
    "transpose",
    "up",
    "updown",
]

_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    """Process-unique id for generated symbols and dummies (atomic in CPython)."""
    return next(_uid_counter)


class Dummy(Record):
    """An anonymous index label.

    Two dummies with the same uid are equal values, but `labels_equal` never
    matches a dummy with any label, itself included.
    """

    __slots__ = ("uid",)


Label = Sym | int | Dummy

SUPERSCRIPT = 1
SUBSCRIPT = -1
SUPERSUBSCRIPT = 0


class IndexMark(Record):
    """A Label with its variance: SUPERSCRIPT, SUBSCRIPT or SUPERSUBSCRIPT."""

    __slots__ = ("variance", "label")


def up(label: Label) -> IndexMark:
    return IndexMark(SUPERSCRIPT, label)


def down(label: Label) -> IndexMark:
    return IndexMark(SUBSCRIPT, label)


def updown(label: Label) -> IndexMark:
    return IndexMark(SUPERSUBSCRIPT, label)


def labels_equal(a: Label, b: Label) -> bool:
    if isinstance(a, Dummy) or isinstance(b, Dummy):
        return False
    return a == b


class TensorValue(Record):
    __slots__ = ("shape", "components", "indices")  # components are row-major
    _defaults = {"indices": ()}

    def __post_init__(self):
        """Check the component count, then the number of marks.

        The generated constructor calls this once per construction, looked up
        on the instance, so a method rebound on the class runs for every
        tensor built: `bench/tracer.py` counts components that way.
        """
        size = 1
        for d in self.shape:
            size *= d
        if len(self.components) != size:
            raise ShapeMismatchError(
                f"{len(self.components)} components for shape {self.shape}"
            )
        if len(self.indices) > len(self.shape):
            raise IndexArityError("more index marks than axes")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def form_degree(self) -> int:
        return len(self.shape) - len(self.indices)

    def __str__(self) -> str:
        return format_tensor(self, str)


def _strides(shape: Sequence[int]) -> tuple[int, ...]:
    out, acc = [], 1
    for d in reversed(shape):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


def _view(comps: Sequence, shape: Sequence[int], strides: Sequence[int], base: int = 0) -> tuple:
    """Gather comps[base + sum(c[a] * strides[a])] over the coordinates c of shape.

    The result is row-major in shape.  Every reshaping is one such view of a
    row-major tensor: a literal index fixes the base, a diagonal adds two
    axes' strides, and a permutation reorders them.
    """
    offsets = [base]
    for d, s in zip(shape, strides):
        offsets = [o + c * s for o in offsets for c in range(d)]
    return tuple(comps[o] for o in offsets)


def tensor(data):
    """Build an unmarked TensorValue from nested lists; leaves pass through."""
    if not isinstance(data, (list, tuple)):
        if isinstance(data, int) and not isinstance(data, bool):
            return integer(data)
        return data
    if not data:
        raise ShapeMismatchError("empty tensor literal")
    elems = [tensor(x) for x in data]
    subtensors = [e for e in elems if isinstance(e, TensorValue)]
    if not subtensors:
        return TensorValue((len(elems),), tuple(elems))
    if len(subtensors) != len(elems):
        raise ShapeMismatchError("mixed scalar and tensor components")
    first = subtensors[0]
    for s in subtensors[1:]:
        if s.shape != first.shape:
            raise ShapeMismatchError("ragged tensor literal")
    if any(s.indices for s in subtensors):
        raise ShapeMismatchError("tensor components must not carry index marks")
    comps = tuple(c for s in elems for c in s.components)
    return TensorValue((len(elems),) + first.shape, comps)


def find_identical_pairs(marks: Sequence[IndexMark]) -> list[tuple[int, int]]:
    """All 1-based (k, j) with k < j and equal labels, leftmost first."""
    pairs = []
    for k in range(len(marks)):
        for j in range(k + 1, len(marks)):
            if labels_equal(marks[k].label, marks[j].label):
                pairs.append((k + 1, j + 1))
    return pairs


def _variance_at(k: int, marks: tuple[IndexMark, ...]) -> int:
    return marks[k - 1].variance


def _remove_at(k: int, marks: tuple[IndexMark, ...]) -> tuple[IndexMark, ...]:
    return marks[: k - 1] + marks[k:]


def _update_at(k: int, variance: int, marks: tuple[IndexMark, ...]) -> tuple[IndexMark, ...]:
    m = marks[k - 1]
    return marks[: k - 1] + (IndexMark(variance, m.label),) + marks[k:]


def _diagonal(k: int, j: int, shape: tuple, strides: list) -> tuple[tuple, list]:
    """Merge axis j into axis k (0-based, k < j) of a strided layout.

    Each tensor read through the layout has its own stride vector over the
    axes of shape; the diagonal adds axis j's stride to axis k's in each.
    """
    if shape[k] != shape[j]:
        raise ShapeMismatchError(
            f"repeated index over axes of dimension {shape[k]} and {shape[j]}"
        )
    return shape[:j] + shape[j + 1 :], [
        s[:k] + (s[k] + s[j],) + s[k + 1 : j] + s[j + 1 :] for s in strides
    ]


def _collapse(marks: tuple, shape: tuple, strides: list) -> tuple[tuple, tuple, list]:
    """Collapse repeated labels of a strided layout pairwise, leftmost pair first.

    The first mark of a pair keeps its position, and becomes a supersubscript
    when the two variances differ; dummies never pair.  Returns the new
    (marks, shape, strides).
    """
    while True:
        pairs = find_identical_pairs(marks)
        if not pairs:
            return marks, shape, strides
        k, j = pairs[0]
        shape, strides = _diagonal(k - 1, j - 1, shape, strides)
        if _variance_at(k, marks) != _variance_at(j, marks):
            marks = _update_at(k, SUPERSUBSCRIPT, marks)
        marks = _remove_at(j, marks)


def _nest(shape: tuple, marks: tuple, inner_shape: tuple, inner_marks: tuple, strides: list):
    """Layout of an outer tensor whose components are inner tensors.

    The inner axes follow the outer ones and the marks are concatenated, so
    inner marks cannot follow an unmarked outer axis; then repeated labels
    collapse.  strides are over shape + inner_shape.
    """
    if inner_marks and len(shape) > len(marks):
        raise IndexLabelError("cannot hoist marked results over unmarked axes")
    return _collapse(marks + inner_marks, shape + inner_shape, strides)


def reduce_indices(t):
    """Collapse repeated index labels pairwise, leftmost pair first."""
    if not isinstance(t, TensorValue):
        return t
    marks, shape, (strides,) = _collapse(t.indices, t.shape, [_strides(t.shape)])
    if len(shape) == t.rank:
        return t
    return TensorValue(shape, _view(t.components, shape, strides), marks)


def attach_indices(t, marks: Sequence[IndexMark]):
    """Bind marks to the leading free axes; literal labels select components."""
    marks = tuple(marks)
    if not isinstance(t, TensorValue):
        if marks:
            raise IndexArityError("cannot attach index marks to a scalar")
        return t
    existing = len(t.indices)
    if existing + len(marks) > t.rank:
        free = t.rank - existing
        raise IndexArityError(
            f"{len(marks)} index marks on a tensor with "
            f"{free} free {'axis' if free == 1 else 'axes'}"
        )
    selections = {}  # 0-based axis -> 0-based coordinate
    named: list[IndexMark] = []
    for pos, m in enumerate(marks):
        axis = existing + pos
        if isinstance(m.label, int):
            dim = t.shape[axis]
            if not 1 <= m.label <= dim:
                raise IndexBoundsError(
                    f"index {m.label} out of bounds for axis of dimension {dim}"
                )
            selections[axis] = m.label - 1
        else:
            named.append(m)
    shape, comps = t.shape, t.components
    if selections:
        strides = _strides(t.shape)
        kept = [a for a in range(t.rank) if a not in selections]
        shape = tuple(t.shape[a] for a in kept)
        base = sum(strides[a] * v for a, v in selections.items())
        comps = _view(comps, shape, [strides[a] for a in kept], base)
    t = TensorValue(shape, comps, t.indices + tuple(named))
    if t.rank == 0:
        return t.components[0]
    return reduce_indices(t)


def contract(f: Callable, t):
    """Fold each supersubscript axis with the binary function f, left to right."""
    if not isinstance(t, TensorValue):
        return t
    while True:
        axis = next(
            (i for i, m in enumerate(t.indices) if m.variance == SUPERSUBSCRIPT), None
        )
        if axis is None:
            return t
        n = t.shape[axis]
        new_shape = t.shape[:axis] + t.shape[axis + 1 :]
        strides = _strides(t.shape)
        # The summed axis goes last, so each run of n components is one fold.
        runs = _view(
            t.components, new_shape + (n,), strides[:axis] + strides[axis + 1 :] + (strides[axis],)
        )
        comps = [reduce(f, runs[i : i + n]) for i in range(0, len(runs), n)]
        marks = _remove_at(axis + 1, t.indices)
        if not new_shape:
            return comps[0]
        t = TensorValue(new_shape, tuple(comps), marks)


def flip_indices(t):
    """Swap superscripts and subscripts; supersubscripts stay."""
    if not isinstance(t, TensorValue):
        return t
    flipped = tuple(IndexMark(-m.variance, m.label) for m in t.indices)
    return TensorValue(t.shape, t.components, flipped)


def permute_marked_axes(t: TensorValue, perm: Sequence[int]) -> TensorValue:
    """Reorder the marked axes by 0-based source positions; form axes stay."""
    axis_src = list(perm) + list(range(len(t.indices), t.rank))
    new_shape = tuple(t.shape[a] for a in axis_src)
    strides = _strides(t.shape)
    comps = _view(t.components, new_shape, [strides[a] for a in axis_src])
    return TensorValue(new_shape, comps, tuple(t.indices[a] for a in perm))


def transpose(order: Sequence[Label], t: TensorValue):
    """Permute the marked axes so labels appear in the given order."""
    if not isinstance(t, TensorValue):
        raise IndexLabelError("transpose expects a tensor")
    labels = [m.label for m in t.indices]
    if len(order) != len(labels):
        raise IndexLabelError("transpose order is not a permutation of the tensor's labels")
    perm: list[int] = []
    for lab in order:
        hits = [i for i, existing in enumerate(labels) if labels_equal(existing, lab)]
        if len(hits) != 1 or hits[0] in perm:
            raise IndexLabelError(
                "transpose order is not a permutation of the tensor's labels"
            )
        perm.append(hits[0])
    return permute_marked_axes(t, perm)


def tensor_map(f: Callable, *ts):
    """Call f on the index-aligned components of ts, once per result component.

    The result's axes are those of the outer product of ts, in argument
    order, with repeated labels collapsed as reduce_indices collapses them.
    The collapse works on each tensor's strides, so f runs only on the
    diagonal that the result keeps.  Arguments that are not tensors go to
    every call unchanged.  Marked results hoist their indices to the end.
    """
    if not any(isinstance(t, TensorValue) for t in ts):
        return f(*ts)
    marks, shape, strides = (), (), [()] * len(ts)
    # Nest right to left, as one single-tensor map inside another would, so
    # a malformed combination raises the same error as that nesting.
    for n in reversed(range(len(ts))):
        t = ts[n]
        if isinstance(t, TensorValue):
            own, zeros = _strides(t.shape), (0,) * t.rank
            strides = [(own if q == n else zeros) + s for q, s in enumerate(strides)]
            marks, shape, strides = _nest(t.shape, t.indices, shape, marks, strides)
    columns = [
        _view(t.components, shape, s) if isinstance(t, TensorValue) else itertools.repeat(t)
        for t, s in zip(ts, strides)
    ]
    results = [f(*vals) for vals in zip(*columns)]
    inner = [r for r in results if isinstance(r, TensorValue)]
    if not inner:
        return TensorValue(shape, tuple(results), marks)
    if len(inner) != len(results):
        raise ShapeMismatchError("mixed scalar and tensor results in tensor-map")
    first = inner[0]
    for r in inner[1:]:
        if r.shape != first.shape or r.indices != first.indices:
            raise ShapeMismatchError("inconsistent result shapes in tensor-map")
    comps = tuple(c for r in results for c in r.components)
    full = shape + first.shape
    marks, shape, (strides,) = _nest(shape, marks, first.shape, first.indices, [_strides(full)])
    if len(shape) != len(full):
        comps = _view(comps, shape, strides)
    return TensorValue(shape, comps, marks)


def _mark_str(m: IndexMark) -> str:
    head = {SUPERSCRIPT: "~", SUBSCRIPT: "_", SUPERSUBSCRIPT: "~_"}[m.variance]
    if isinstance(m.label, Dummy):
        return head + "#"
    if isinstance(m.label, Sym):
        return head + m.label.name
    return head + str(m.label)


def format_tensor(t: TensorValue, fmt: Callable[[object], str]) -> str:
    def body(shape, comps):
        if not shape:
            return fmt(comps[0])
        if len(shape) == 1:
            return "[|" + " ".join(fmt(c) for c in comps) + "|]"
        stride = len(comps) // shape[0]
        rows = [
            body(shape[1:], comps[i * stride : (i + 1) * stride])
            for i in range(shape[0])
        ]
        return "[|" + " ".join(rows) + "|]"

    return body(t.shape, t.components) + "".join(_mark_str(m) for m in t.indices)
