"""Parameter application semantics.

Scalar parameters lift a scalar function over tensor arguments with one
many-tensor tensor_map: the arguments' marks are concatenated in argument
order and repeated labels collapsed, as index reduction would collapse them
in the outer product, before the function runs once per result component.
Shared labels thus align and distinct ones multiply out.  Inverted scalar
parameters flip the argument's marks first.  Tensor parameters receive
values untouched.

Omitted-index completion appends fresh subscript marks over form axes before
an application (one shared sequence for ordinary scalar application, a fresh
sequence per argument under `!`), and with_symbols_scope removes generated
marks afterwards, turning their axes back into trailing form axes.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence

from .errors import CompletionMismatchError
from .symexpr import Sym
from .tensor import (
    TensorValue,
    attach_indices,
    down,
    flip_indices,
    fresh_uid,
    labels_equal,
    permute_marked_axes,
    tensor_map,
)

__all__ = [
    "INVERTED",
    "ParamKind",
    "SCALAR",
    "TENSOR",
    "apply_with_kinds",
    "complete_omitted_indices",
    "fresh_symbol",
    "with_symbols_scope",
]


class ParamKind(enum.Enum):
    SCALAR = "$"
    TENSOR = "%"
    INVERTED = "*$"


SCALAR = ParamKind.SCALAR
TENSOR = ParamKind.TENSOR
INVERTED = ParamKind.INVERTED


def fresh_symbol(name: str = "t") -> Sym:
    return Sym(name, fresh_uid())


def apply_with_kinds(kernel: Callable, kinds: Sequence[ParamKind], args: Sequence):
    """Call kernel once per result component, lifted over scalar positions.

    Inverted positions flip their argument's marks first; tensor positions
    pass whole to every call.  tensor_map aligns the lifted arguments' labels
    before kernel first runs, so a diagonal that index reduction would
    discard is never computed.
    """
    args = [flip_indices(a) if k is INVERTED else a for k, a in zip(kinds, args)]
    spots = [p for p, k in enumerate(kinds) if k is not TENSOR]
    bound = list(args)

    def at(*vals):
        for p, v in zip(spots, vals):
            bound[p] = v
        return kernel(*bound)

    return tensor_map(at, *(args[p] for p in spots))


def complete_omitted_indices(args: Sequence, mode: str):
    """Append fresh subscript marks over form axes.

    Returns (new_args, generated_symbols).  "shared" reuses one symbol
    sequence across arguments and requires equal form degrees; "distinct"
    generates a fresh sequence per argument.
    """
    degrees = [
        a.form_degree if isinstance(a, TensorValue) else 0 for a in args
    ]
    if mode == "shared":
        wanted = {d for d in degrees if d}
        if not wanted:
            return list(args), []
        if len(wanted) > 1:
            raise CompletionMismatchError(
                "shared index completion over arguments of differing form degree"
            )
        k = wanted.pop()
        syms = [fresh_symbol(f"t{n + 1}") for n in range(k)]
        out = [
            attach_indices(a, [down(s) for s in syms]) if d else a
            for a, d in zip(args, degrees)
        ]
        return out, syms
    out, gens = [], []
    for a, d in zip(args, degrees):
        if not d:
            out.append(a)
            continue
        syms = [fresh_symbol(f"t{len(gens) + n + 1}") for n in range(d)]
        gens.extend(syms)
        out.append(attach_indices(a, [down(s) for s in syms]))
    return out, gens


def with_symbols_scope(symbols: Sequence[Sym], result):
    """Drop generated marks from a result; their axes become form axes.

    The generated marks are rotated to the back of the mark list in
    declaration order first, so the freed axes line up ahead of any existing
    form axes.
    """
    if not isinstance(result, TensorValue):
        return result
    positions = []
    for s in symbols:
        for i, m in enumerate(result.indices):
            if labels_equal(m.label, s):
                positions.append(i)
                break
    if not positions:
        return result
    rest = [i for i in range(len(result.indices)) if i not in positions]
    t = permute_marked_axes(result, rest + positions)
    return TensorValue(t.shape, t.components, t.indices[: len(rest)])
