"""Tensor values with index marks and the reduction engine.

A TensorValue is a row-major tuple of components plus a list of index marks
bound to its leading axes; trailing unmarked axes are the "form axes" used by
the differential-forms layer.  Components are arbitrary values (usually exact
scalars), so everything here is plain Python data manipulation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence

from .errors import (
    DomainError,
    IndexArityError,
    IndexBoundsError,
    IndexLabelError,
    ShapeMismatchError,
)
from .record import Record
from .symexpr import Sym, _int_str, integer

__all__ = [
    "Dummy",
    "IndexMark",
    "SUBSCRIPT",
    "SUPERSCRIPT",
    "SUPERSUBSCRIPT",
    "TensorValue",
    "VARIANCE_STR",
    "attach_indices",
    "contract",
    "down",
    "flip_indices",
    "format_tensor",
    "fresh_uid",
    "labels_equal",
    "tensor",
    "tensor_map",
    "transpose",
    "up",
    "updown",
]

MAX_COMPONENTS = 10**6  # the most components a value may have
MAX_LEVI_CIVITA = 7  # the largest n with n**n <= MAX_COMPONENTS (7**7 = 823,543; 8**8 = 16,777,216)

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
# How each variance is spelled, in source and in everything printed.
VARIANCE_STR = {SUPERSCRIPT: "~", SUBSCRIPT: "_", SUPERSUBSCRIPT: "~_"}


class IndexMark(Record):
    """A label with its variance: SUPERSCRIPT, SUBSCRIPT or SUPERSUBSCRIPT.

    On a value the label is a Label.  The parser keeps it as written: a
    symbol name, a 1-based integer, "#" for a dummy, or None in a define
    signature; `Interpreter._mark` resolves it to a Label.
    """

    __slots__ = ("variance", "label")


def mark_str(m: IndexMark) -> str:
    """The mark as source spells it; a signature's mark has no label."""
    label = m.label
    if isinstance(label, Dummy):
        label = "#"
    elif isinstance(label, Sym):
        label = label.name
    return VARIANCE_STR[m.variance] + ("" if label is None else str(label))


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


def check_size(count: int, what: str, *numbers: int) -> None:
    """Refuse, before it is built, a value of more than MAX_COMPONENTS components.
    Only a refusal spells its message, `what` then `numbers`, each by `_int_str`."""
    if count > MAX_COMPONENTS:
        words = " ".join([what, *map(_int_str, numbers), "would have", _int_str(count)])
        raise DomainError(f"{words} components, more than {MAX_COMPONENTS}")


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
    axes' strides, and a permutation reorders them.  A view that reads every
    component in order (base 0, as many components as shape holds, row-major
    strides) is comps itself, returned with no copy.
    """
    if not base and len(comps) == math.prod(shape) and tuple(strides) == _strides(shape):
        return comps
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


def _repeats(marks) -> bool:
    """Whether two marks share a label, in one set pass; dummies never pair."""
    labels = [m.label for m in marks if not isinstance(m.label, Dummy)]
    return len(set(labels)) != len(labels)


def _collapse(marks: tuple, shape: tuple, strides: list) -> tuple[tuple, tuple, list]:
    """Collapse repeated labels of a strided layout pairwise, leftmost pair first.

    The first mark of a pair keeps its position, and becomes a supersubscript
    when the two variances differ; dummies never pair.  A merge never gives
    an earlier mark a new partner, so one left-to-right pass that merges each
    mark with its next later match until it has none takes the pairs in that
    order.  Returns the new (marks, shape, strides).
    """
    if not _repeats(marks):
        return marks, shape, strides
    marks = list(marks)
    k = 0
    while k < len(marks):
        label = marks[k].label
        j = next((j for j in range(k + 1, len(marks)) if labels_equal(label, marks[j].label)), None)
        if j is None:
            k += 1
            continue
        shape, strides = _diagonal(k, j, shape, strides)
        if marks[k].variance != marks[j].variance:
            marks[k] = IndexMark(SUPERSUBSCRIPT, label)
        del marks[j]
    return tuple(marks), shape, strides


def _nest(shape: tuple, marks: tuple, inner_shape: tuple, inner_marks: tuple, strides: list):
    """Layout of an outer tensor whose components are inner tensors.

    The inner axes follow the outer ones and the marks are concatenated, so
    inner marks cannot follow an unmarked outer axis; then repeated labels
    collapse.  strides are over shape + inner_shape.
    """
    if inner_marks and len(shape) > len(marks):
        raise IndexLabelError("cannot hoist marked results over unmarked axes")
    return _collapse(marks + inner_marks, shape + inner_shape, strides)


def attach_indices(t, marks: Sequence[IndexMark]):
    """Bind marks to the leading free axes; literal labels select components.

    In one strided layout a literal adds its offset to the base and drops its
    axis; the other marks, t's own first, collapse as in `_collapse`.  With
    no new marks this is index reduction: t's repeated labels collapse.
    """
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
    named = t.indices + tuple(m for m in marks if not isinstance(m.label, int))
    if len(named) == existing + len(marks) and not _repeats(named):  # nothing to gather
        return TensorValue(t.shape, t.components, named) if t.shape else t.components[0]
    strides, base, kept = _strides(t.shape), 0, list(range(existing))
    for axis, m in enumerate(marks, existing):
        if isinstance(m.label, int):
            dim = t.shape[axis]
            if not 1 <= m.label <= dim:
                raise IndexBoundsError(
                    f"index {_int_str(m.label)} out of bounds for axis of dimension {_int_str(dim)}"
                )
            base += strides[axis] * (m.label - 1)
        else:
            kept.append(axis)
    kept += range(existing + len(marks), t.rank)
    shape = tuple(t.shape[a] for a in kept)
    named, shape, (strides,) = _collapse(named, shape, [tuple(strides[a] for a in kept)])
    if not shape:
        return t.components[base]
    return TensorValue(shape, _view(t.components, shape, strides, base), named)


def contract(f: Callable, t):
    """Sum each supersubscript axis with f, called once on each run of components.

    A run holds the n components that differ only along the summed axis, in
    axis order; f(*run) gives the result component, for a run of one too.
    """
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
        # The summed axis goes last, so each run of n components is adjacent.
        runs = _view(
            t.components, new_shape + (n,), strides[:axis] + strides[axis + 1 :] + (strides[axis],)
        )
        comps = [f(*runs[i : i + n]) for i in range(0, len(runs), n)]
        marks = t.indices[:axis] + t.indices[axis + 1 :]
        if not new_shape:
            return comps[0]
        t = TensorValue(new_shape, tuple(comps), marks)


def flip_indices(t):
    """Swap superscripts and subscripts; supersubscripts stay."""
    if not isinstance(t, TensorValue):
        return t
    flipped = tuple(IndexMark(-m.variance, m.label) for m in t.indices)
    return TensorValue(t.shape, t.components, flipped)


def permute_marked_axes(t: TensorValue, perm: Sequence[int], keep=None) -> TensorValue:
    """Reorder the marked axes by 0-based source positions; form axes stay.  The
    first `keep` marks of the new order stay, all by default; the rest free their axes."""
    axis_src = list(perm) + list(range(len(t.indices), t.rank))
    new_shape = tuple(t.shape[a] for a in axis_src)
    strides = _strides(t.shape)
    comps = _view(t.components, new_shape, [strides[a] for a in axis_src])
    return TensorValue(new_shape, comps, tuple(t.indices[a] for a in perm[:keep]))


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
    order, with repeated labels collapsed as attach_indices collapses them.
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
    check_size(math.prod(shape), "the result")
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
    full = shape + first.shape
    check_size(math.prod(full), "the result")
    comps = tuple(c for r in results for c in r.components)
    marks, shape, (strides,) = _nest(shape, marks, first.shape, first.indices, [_strides(full)])
    return TensorValue(shape, _view(comps, shape, strides), marks)


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

    return body(t.shape, t.components) + "".join(mark_str(m) for m in t.indices)
