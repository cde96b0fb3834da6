"""Tensor values with index marks and the reduction engine.

A TensorValue is a row-major tuple of components plus a list of index marks
bound to its leading axes; trailing unmarked axes are the "form axes" used by
the differential-forms layer.  Components are arbitrary values (usually exact
scalars); code here moves them or hands them to a caller's function, except
the sparse join behind `.` (`contract_product`), which multiplies and sums
them itself with the scalar kernel's `mul` and `add`.

Labels pair by one rule, `_label_axes`: a dict from each label to its first
mark, dummies left out.  `_align` lays strided tensors out as one in a
single pass over their marks; reduction, lifting and the join read
through that layout, and `transpose` and the scope exit of `with-symbols`
look labels up in the same dict.
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
from .symexpr import ZERO, Sym, _int_str, add, integer, mul

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
    "contract_product",
    "down",
    "flip_indices",
    "format_tensor",
    "fresh_uid",
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

    Two dummies with the same uid are equal values, but a dummy never pairs
    with any label, itself included: `_label_axes` leaves dummies out.
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


def _label_axes(marks) -> dict:
    """Each label of marks at the position of its first mark: the one pairing
    rule, as a dict.  Dummies never pair, so none is a key."""
    where = {}
    for p, m in enumerate(marks):
        label = m.label
        if type(label) is not Dummy and label not in where:
            where[label] = p
    return where


def _align(parts):
    """Lay the axes of strided tensors out as one, pairing labels in one pass.

    Each part is (marks, shape, strides, reader): the marks bind the leading
    axes of shape, and strides step through the components of tensor number
    `reader`.  There are 1 + the largest reader number of readers; one that
    no part names gets only zero strides.  A label's first mark gives it an
    output axis, found by `_label_axes` over every part's marks; each later
    mark with that label merges into the axis, adding its stride, and the
    axis's mark becomes a supersubscript when the variances differ.  The
    unmarked axes follow all marked ones, in order.  Returns the marks, the
    shape, and one stride tuple per reader.

    A layout with a fault raises the error `_fault` finds.
    """
    where = _label_axes([m for part in parts for m in part[0]])
    readers = 1 + max(part[3] for part in parts)
    if len(parts) == readers == 1 and len(where) == len(parts[0][0]):  # nothing pairs
        ms, dims, steps, _ = parts[0]
        return tuple(ms), tuple(dims), [tuple(steps)]
    marks, shape, axis_at, tail = [], [], [], []
    strides = [[] for _ in range(readers)]  # each reader's, over the marked axes
    tails = [[] for _ in range(readers)]  # and over the unmarked ones
    faulty = unmarked = False
    for ms, dims, steps, r in parts:
        faulty = faulty or (unmarked and bool(ms))
        own = strides[r]
        for m, d, s in zip(ms, dims, steps):
            p = len(axis_at)
            first = where.get(m.label, p)
            if first == p:
                axis_at.append(len(marks))
                marks.append(m)
                shape.append(d)
                for st in strides:
                    st.append(0)
                own[-1] = s
                continue
            axis = axis_at[first]
            axis_at.append(axis)
            faulty = faulty or d != shape[axis]
            own[axis] += s
            if m.variance != marks[axis].variance:
                marks[axis] = IndexMark(SUPERSUBSCRIPT, m.label)
        n = len(ms)
        if len(dims) > n:
            unmarked = True
            tail += dims[n:]
            for q, st in enumerate(tails):
                st += steps[n:] if q == r else [0] * (len(dims) - n)
    if faulty:
        raise _fault(parts)
    return tuple(marks), tuple(shape + tail), [tuple(st + t) for st, t in zip(strides, tails)]


def _fault(parts) -> Exception:
    """The error that collapsing repeated labels pairwise meets first, with
    the parts nested right to left as single-tensor maps nest.

    Each part, the last first, refuses marks on a later part if it has
    unmarked axes; then, for its labels in the order of their first marks,
    checks the dimension of each later mark of its own and then that of the
    label's axis in the parts after it.
    """
    later, marked = {}, False  # label -> dimension of its axis in the later parts
    for ms, dims, *_ in reversed(parts):
        if marked and len(dims) > len(ms):
            return IndexLabelError("cannot hoist marked results over unmarked axes")
        own = {}
        for m, d in zip(ms, dims):
            if not isinstance(m.label, Dummy):
                own.setdefault(m.label, []).append(d)
        for label, (d0, *rest) in own.items():
            for d in (*rest, later.get(label, d0)):
                if d != d0:
                    return ShapeMismatchError(
                        f"repeated index over axes of dimension {d0} and {d}"
                    )
            later[label] = d0
        marked = marked or bool(ms)


def attach_indices(t, marks: Sequence[IndexMark]):
    """Bind marks to the leading free axes; literal labels select components.

    In one strided layout a literal adds its offset to the base and drops its
    axis; the other marks, t's own first, pair as `_align` pairs them.  With
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
    named = t.indices + tuple([m for m in marks if not isinstance(m.label, int)])
    if len(named) == existing + len(marks) == len(_label_axes(named)):  # nothing to gather
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
    part = (named, [t.shape[a] for a in kept], [strides[a] for a in kept], 0)
    named, shape, (strides,) = _align([part])
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
    where = _label_axes(t.indices)
    perm = [where.get(label) for label in order]
    # a repeated or dummy label on t leaves fewer keys than marks, so no order fits
    if len(perm) != len(t.indices) or None in perm or len(set(perm)) != len(perm):
        raise IndexLabelError("transpose order is not a permutation of the tensor's labels")
    return permute_marked_axes(t, perm)


def tensor_map(f: Callable, *ts):
    """Call f on the index-aligned components of ts, once per result component.

    The result's axes are those of the outer product of ts, in argument
    order, with repeated labels paired as attach_indices pairs them.  The
    pairing works on each tensor's strides (`_align`), so f runs only on the
    diagonal that the result keeps.  Arguments that are not tensors go to
    every call unchanged.  Marked results hoist their indices to the end.
    """
    tensors = [t for t in ts if isinstance(t, TensorValue)]
    if not tensors:
        return f(*ts)
    parts = [(t.indices, t.shape, _strides(t.shape), r) for r, t in enumerate(tensors)]
    marks, shape, strides = _align(parts)
    check_size(math.prod(shape), "the result")
    readers = iter(strides)
    columns = [
        _view(t.components, shape, next(readers)) if isinstance(t, TensorValue) else itertools.repeat(t)
        for t in ts
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
    if first.indices and len(shape) > len(marks):
        raise IndexLabelError("cannot hoist marked results over unmarked axes")
    marks, shape, (strides,) = _align([(marks + first.indices, full, _strides(full), 0)])
    return TensorValue(shape, _view(comps, shape, strides), marks)


def contract_product(a: TensorValue, b: TensorValue):
    """contract(add, tensor_map(mul, a, b)) for marked tensors of scalars,
    with only the products of nonzero factors made.

    a and b lay out as one by `_align`.  Each nonzero component of a meets
    the components of b that share its coordinates on the shared axes, so
    a zero of a skips all of them; each product of two nonzero factors goes
    to the sum of its result component.  A result component with two or more
    products is one add of them, with one it is that product, and with none
    ZERO.  A result with no free axis left is its one component.
    """
    parts = [(t.indices, t.shape, _strides(t.shape), r) for r, t in enumerate((a, b))]
    marks, shape, (sa, sb) = _align(parts)
    check_size(math.prod(shape), "the result")
    free = [i for i, m in enumerate(marks) if m.variance != SUPERSUBSCRIPT]
    out_shape = tuple(shape[i] for i in free)
    so = [0] * len(shape)  # strides into the result; a summed axis adds nothing
    for i, s in zip(free, _strides(out_shape)):
        so[i] = s
    # Offsets over a's axes, shared ones included, outside (into a, b and the
    # result), and over b's own axes inside (into b and the result).  Every
    # stride of a tensor is positive, so a 0 in sa is an axis a lacks.
    outer, inner = [(0, 0, 0)], [(0, 0)]
    for d, x, y, z in zip(shape, sa, sb, so):
        if x:
            outer = [(p + c * x, q + c * y, o + c * z) for p, q, o in outer for c in range(d)]
        else:
            inner = [(q + c * y, o + c * z) for q, o in inner for c in range(d)]
    sums = {}  # result offset -> its products
    ca, cb = a.components, b.components
    for oa, ob, oo in outer:
        x = ca[oa]
        if x.terms:
            for ib, io in inner:
                y = cb[ob + ib]
                if y.terms:
                    sums.setdefault(oo + io, []).append(mul(x, y))
    comps = [ZERO] * math.prod(out_shape)
    for o, products in sums.items():
        comps[o] = products[0] if len(products) == 1 else add(*products)
    if len(free) < len(shape) and not out_shape:
        return comps[0]
    return TensorValue(out_shape, tuple(comps), tuple(marks[i] for i in free))


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
