"""Parameter application semantics.

Every function, builtin or lambda, reaches this module the same way: as a
Python callable with one ParamKind per argument.  Scalar parameters lift a
scalar function over tensor arguments with one many-tensor tensor_map: the
arguments' marks are concatenated in argument order and repeated labels
collapsed, as index reduction would collapse them in the outer product,
before the function runs once per result component.  Shared labels thus
align and distinct ones multiply out.  Inverted scalar parameters flip the
argument's marks first.  Tensor parameters receive values untouched.  When
no parameter is a tensor parameter, as for every scalar builtin and every
`$`/`*$` lambda, the function itself runs on each component, with no
wrapper between tensor_map and it.

Omitted-index completion appends fresh subscript marks over form axes before
an application and picks the arguments itself: one shared sequence over the
scalar and inverted arguments, or under `!` a fresh sequence for every
argument.  with_symbols_scope removes generated marks afterwards, turning
their axes back into trailing form axes.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence

from .errors import CompletionMismatchError
from .symexpr import Sym
from .tensor import (
    TensorValue,
    _label_axes,
    attach_indices,
    down,
    flip_indices,
    fresh_uid,
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
    discard is never computed.  With no tensor parameter, every position
    lifts and kernel itself is the per-component function.  With no tensor
    to lift, kernel runs once on args as they are.
    """
    spots = [p for p, k in enumerate(kinds) if k is not TENSOR]
    for p in spots:
        if isinstance(args[p], TensorValue):
            break
    else:
        return kernel(*args)
    if INVERTED in kinds:
        args = [flip_indices(a) if k is INVERTED else a for k, a in zip(kinds, args)]
    if len(spots) == len(args):
        return tensor_map(kernel, *args)
    bound = list(args)

    def at(*vals):
        for p, v in zip(spots, vals):
            bound[p] = v
        return kernel(*bound)

    return tensor_map(at, *(args[p] for p in spots))


def complete_omitted_indices(args: Sequence, kinds: Sequence[ParamKind], distinct: bool = False):
    """Append fresh subscript marks over the form axes of arguments.

    Returns (new_args, generated_symbols).  Arguments not of kind TENSOR share
    one symbol sequence and need equal form degrees; with `distinct` (`!`),
    every argument gets a fresh sequence of its own.
    """
    out, gens = list(args), []
    for p, (a, k) in enumerate(zip(args, kinds)):
        d = a.form_degree if isinstance(a, TensorValue) else 0
        if not d or (k is TENSOR and not distinct):
            continue
        if gens and not distinct:
            if d != len(gens):
                raise CompletionMismatchError(
                    "shared index completion over arguments of differing form degree"
                )
            syms = gens
        else:
            syms = [fresh_symbol(f"t{len(gens) + n + 1}") for n in range(d)]
            gens.extend(syms)
        out[p] = attach_indices(a, [down(s) for s in syms])
    return out, gens


def with_symbols_scope(symbols: Sequence[Sym], result):
    """Drop generated marks from a result; their axes become form axes.

    The generated marks are rotated to the back of the mark list in
    declaration order first, so the freed axes line up ahead of any existing
    form axes.
    """
    if not symbols or not isinstance(result, TensorValue):
        return result
    where = _label_axes(result.indices)
    positions = [where[s] for s in symbols if s in where]
    if not positions:
        return result
    rest = [i for i in range(len(result.indices)) if i not in positions]
    return permute_marked_axes(result, rest + positions, len(rest))
