"""Independent reference implementations the tests compare the engine against.

`wedge` and `exterior_d` compute what the prelude's `wedge` and `d` compute,
directly in Python.  The `*_ref` functions are the coordinate-loop versions
of the reshaping operations in `tegi.tensor` and `tegi.forms`: each walks
the output coordinates and computes one row-major source offset per
component, with no shared gather helper.  `apply_with_kinds_ref` lifts a
function by nesting single-tensor maps, so it calls the function on the
whole outer product of the lifted arguments and reduction then keeps the
diagonal.  `det_ref` and `hodge_ref` multiply out every product, zero
factors included.  `to_nested` turns a tensor into nested lists, the inverse of
`tegi.tensor.tensor`.  `order_key_ref` recomputes the canonical order key of an
expression from scratch, with nothing memoised.  `add_ref`, `mul_ref`,
`div_ref` and `int_pow_ref` are the scalar kernel as it was with every
coefficient a `Fraction`: no integer fast path and no constant-factor
shortcut.  `DATACLASS_TWINS` rebuilds
every value class of the engine as the dataclass it used to be.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from tegi.application import (
    INVERTED,
    SCALAR,
    TENSOR,
    apply_with_kinds,
    complete_omitted_indices,
    with_symbols_scope,
)
from tegi.errors import (
    FormDegreeError,
    IndexArityError,
    IndexBoundsError,
    IndexLabelError,
    ShapeMismatchError,
    TegiArithmeticError,
    TegiTypeError,
)
from tegi.forms import _perm_sign, levi_civita
from tegi.symexpr import (
    ZERO,
    Expr,
    Fun,
    Inv,
    Sym,
    abs_,
    add,
    as_int,
    as_symbol,
    differentiate,
    integer,
    mul,
    sqrt,
)
from tegi.tensor import (
    SUPERSUBSCRIPT,
    IndexMark,
    TensorValue,
    contract,
    find_identical_pairs,
    flip_indices,
)


def _strides(shape):
    out, acc = [], 1
    for d in reversed(shape):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


def _offset(coords, strides):
    return sum(c * s for c, s in zip(coords, strides))


def _coords(shape):
    return itertools.product(*(range(d) for d in shape))


def to_nested(t):
    """Inverse of tensor(); integer scalars come back as plain ints."""
    if isinstance(t, TensorValue):
        if t.rank == 0:
            return to_nested(t.components[0])
        stride = _strides(t.shape)[0]
        return [
            to_nested(TensorValue(t.shape[1:], t.components[i * stride : (i + 1) * stride]))
            for i in range(t.shape[0])
        ]
    if isinstance(t, Expr):
        n = as_int(t)
        return t if n is None else n
    return t


# ---------------------------------------------------------------- forms


def wedge(a, b):
    """Wedge product, computed as an index-completed scalar multiplication.

    Both arguments get fresh subscripts over their form axes, the products
    multiply out (contracting any matching value-level labels), and the fresh
    axes scope back out in order as the form axes of the result.
    """
    args, gens = complete_omitted_indices([a, b], "distinct")
    prod = contract(add, apply_with_kinds(mul, [SCALAR] * len(args), args))
    return with_symbols_scope(gens, prod)


def exterior_d(a, coords: TensorValue) -> TensorValue:
    """Exterior derivative with respect to a coordinate frame.

    The new derivative axis sits first among the form axes, matching the
    convention of the surface-language `d`.
    """
    if (
        not isinstance(coords, TensorValue)
        or coords.rank != 1
        or coords.indices
    ):
        raise TegiTypeError("coordinate frame must be an unmarked rank-1 tensor")
    xs = []
    for c in coords.components:
        if not isinstance(c, Expr) or as_symbol(c) is None:
            raise TegiTypeError("coordinate frame entries must be symbols")
        xs.append(c)
    n = coords.shape[0]
    if isinstance(a, Expr):
        return TensorValue((n,), tuple(differentiate(a, x) for x in xs))
    if not isinstance(a, TensorValue):
        raise TegiTypeError("exterior derivative of a non-tensor value")
    m = len(a.indices)
    new_shape = a.shape[:m] + (n,) + a.shape[m:]
    strides = _strides(a.shape)
    comps = []
    for out in _coords(new_shape):
        src = out[:m] + out[m + 1 :]
        comps.append(differentiate(a.components[_offset(src, strides)], xs[out[m]]))
    return TensorValue(new_shape, tuple(comps), a.indices)


def df_normalize_ref(v):
    if not isinstance(v, TensorValue):
        return v
    k = v.form_degree
    if k <= 1:
        return v
    m = len(v.indices)
    if len(set(v.shape[m:])) != 1:
        raise ShapeMismatchError("alternation needs form axes of equal dimension")
    scale = Fraction(1, math.factorial(k))
    strides = _strides(v.shape)
    comps = []
    for out in _coords(v.shape):
        marked, form = out[:m], out[m:]
        total = ZERO
        for p in itertools.permutations(range(k)):
            src = marked + tuple(form[i] for i in p)
            total = add(
                total,
                mul(integer(_perm_sign(p)), v.components[_offset(src, strides)]),
            )
        comps.append(total * scale)
    return TensorValue(v.shape, tuple(comps), v.indices)


def det_ref(m: TensorValue) -> Expr:
    n = m.shape[0]
    total = ZERO
    for p in itertools.permutations(range(n)):
        term = integer(_perm_sign(p))
        for i in range(n):
            term = mul(term, m.components[i * n + p[i]])
        total = add(total, term)
    return total


def hodge_ref(a, g_lower: TensorValue, g_upper: TensorValue):
    n = g_lower.shape[0]
    if isinstance(a, Expr):
        k, marks, marked_shape, form_shape, comps = 0, (), (), (), (a,)
    else:
        k = a.form_degree
        m = len(a.indices)
        marks, marked_shape, form_shape = a.indices, a.shape[:m], a.shape[m:]
        comps = a.components
    if k > n:
        raise FormDegreeError("form degree exceeds the metric dimension")
    scale = sqrt(abs_(det_ref(g_lower)))
    eps = levi_civita(n)
    eps_strides = _strides(eps.shape)
    src_strides = _strides(marked_shape + form_shape)
    gup = [[g_upper.components[i * n + j] for j in range(n)] for i in range(n)]
    out_shape = marked_shape + (n,) * (n - k)
    out = []
    for coords in _coords(out_shape):
        mc, rest = coords[: len(marked_shape)], coords[len(marked_shape) :]
        total = ZERO
        for is_ in itertools.product(range(n), repeat=k):
            e = eps.components[_offset(is_ + rest, eps_strides)]
            if not e.terms:
                continue
            for js in itertools.product(range(n), repeat=k):
                term = mul(e, comps[_offset(mc + js, src_strides)])
                for im, jm in zip(is_, js):
                    term = mul(term, gup[im][jm])
                total = add(total, term)
        out.append(mul(scale, total))
    if not out_shape:
        return out[0]
    return TensorValue(out_shape, tuple(out), marks)


# ---------------------------------------------------------------- symexpr


def atom_key_ref(atom):
    if isinstance(atom, Sym):
        return (0, atom.name, atom.uid)
    if isinstance(atom, Fun):
        return (1, atom.tag, order_key_ref(atom.arg))
    return (2, "inv", order_key_ref(atom.arg))


def mono_key_ref(mono):
    return tuple((atom_key_ref(a), p) for a, p in mono)


def order_key_ref(e: Expr):
    """Sort key of an expression: terms descend by it, atoms ascend by theirs."""
    return tuple((mono_key_ref(m), (c.numerator, c.denominator)) for c, m in e.terms)


ONE_REF = Expr(((Fraction(1), ()),))


def _mk_ref(termmap):
    terms = [(c, m) for m, c in termmap.items() if c != 0]
    terms.sort(key=lambda t: mono_key_ref(t[1]), reverse=True)
    return Expr(tuple(terms))


def _mul_monos_ref(m1, m2):
    powers = dict(m1)
    for a, p in m2:
        q = powers.get(a, 0) + p
        if q:
            powers[a] = q
        elif a in powers:
            del powers[a]
    return tuple(sorted(powers.items(), key=lambda ap: atom_key_ref(ap[0])))


def add_ref(*es: Expr) -> Expr:
    termmap = {}
    for e in es:
        for c, m in e.terms:
            termmap[m] = termmap.get(m, Fraction(0)) + c
    return _mk_ref(termmap)


def _mul2_ref(a: Expr, b: Expr) -> Expr:
    termmap = {}
    for c1, m1 in a.terms:
        for c2, m2 in b.terms:
            m = _mul_monos_ref(m1, m2)
            termmap[m] = termmap.get(m, Fraction(0)) + c1 * c2
    return _mk_ref(termmap)


def mul_ref(*es: Expr) -> Expr:
    if not es:
        return ONE_REF
    out = es[0]
    for e in es[1:]:
        out = _mul2_ref(out, e)
    return out


def _term_expr_ref(c: Fraction, mono) -> Expr:
    plain = []
    expand = ONE_REF
    for a, p in mono:
        if isinstance(a, Inv) and p < 0:
            expand = mul_ref(expand, int_pow_ref(a.arg, -p))
        else:
            plain.append((a, p))
    base = Expr(((c, tuple(plain)),))
    return _mul2_ref(base, expand) if expand != ONE_REF else base


def div_ref(a: Expr, b: Expr) -> Expr:
    if not b.terms:
        raise TegiArithmeticError("division by zero")
    if len(b.terms) == 1:
        c, mono = b.terms[0]
        inv_mono = tuple((atom, -p) for atom, p in mono)
        return _mul2_ref(a, _term_expr_ref(1 / Fraction(c), inv_mono))
    lead = Fraction(b.terms[0][0])
    monic = _mul2_ref(Expr(((1 / lead, ()),)), b)
    inv = Expr(((1 / lead, ((Inv(monic), 1),)),))
    return _mul2_ref(a, inv)


def int_pow_ref(e: Expr, n: int) -> Expr:
    if n == 0:
        return ONE_REF
    if n < 0:
        return div_ref(ONE_REF, int_pow_ref(e, -n))
    out, base = ONE_REF, e
    while n:
        if n & 1:
            out = _mul2_ref(out, base)
        base_next = _mul2_ref(base, base) if n > 1 else base
        base, n = base_next, n >> 1
    return out


# ---------------------------------------------------------------- tensor


def diag_ref(k: int, j: int, t: TensorValue) -> TensorValue:
    k0, j0 = k - 1, j - 1
    if t.shape[k0] != t.shape[j0]:
        raise ShapeMismatchError("repeated index over axes of different dimension")
    new_shape = t.shape[:j0] + t.shape[j0 + 1 :]
    strides = _strides(t.shape)
    comps = []
    for c in _coords(new_shape):
        src = c[:j0] + (c[k0],) + c[j0:]
        comps.append(t.components[_offset(src, strides)])
    marks = t.indices[:j0] + t.indices[j0 + 1 :] if j <= len(t.indices) else t.indices
    return TensorValue(new_shape, tuple(comps), marks)


def reduce_indices_ref(t):
    if not isinstance(t, TensorValue):
        return t
    while True:
        pairs = find_identical_pairs(t.indices)
        if not pairs:
            return t
        k, j = pairs[0]
        same = t.indices[k - 1].variance == t.indices[j - 1].variance
        t = diag_ref(k, j, t)
        if not same:
            marks = list(t.indices)
            marks[k - 1] = IndexMark(SUPERSUBSCRIPT, marks[k - 1].label)
            t = TensorValue(t.shape, t.components, tuple(marks))


def attach_indices_ref(t, marks):
    marks = tuple(marks)
    if not isinstance(t, TensorValue):
        if marks:
            raise IndexArityError("cannot attach index marks to a scalar")
        return t
    existing = len(t.indices)
    if existing + len(marks) > t.rank:
        raise IndexArityError("too many index marks")
    selections = {}
    named = []
    for pos, m in enumerate(marks):
        axis = existing + pos
        if isinstance(m.label, int):
            if not 1 <= m.label <= t.shape[axis]:
                raise IndexBoundsError("index out of bounds")
            selections[axis] = m.label - 1
        else:
            named.append(m)
    if selections:
        kept_axes = [a for a in range(t.rank) if a not in selections]
        new_shape = tuple(t.shape[a] for a in kept_axes)
        strides = _strides(t.shape)
        comps = []
        for c in _coords(new_shape):
            src = [0] * t.rank
            for a, v in selections.items():
                src[a] = v
            for a, v in zip(kept_axes, c):
                src[a] = v
            comps.append(t.components[_offset(src, strides)])
        t = TensorValue(new_shape, tuple(comps), t.indices + tuple(named))
    else:
        t = TensorValue(t.shape, t.components, t.indices + tuple(named))
    if t.rank == 0:
        return t.components[0]
    return reduce_indices_ref(t)


def contract_ref(f, t):
    if not isinstance(t, TensorValue):
        return t
    while True:
        axis = next(
            (i for i, m in enumerate(t.indices) if m.variance == SUPERSUBSCRIPT), None
        )
        if axis is None:
            return t
        new_shape = t.shape[:axis] + t.shape[axis + 1 :]
        strides = _strides(t.shape)
        comps = []
        for c in _coords(new_shape):
            src = list(c[:axis]) + [0] + list(c[axis:])
            acc = t.components[_offset(src, strides)]
            for v in range(1, t.shape[axis]):
                src[axis] = v
                acc = f(acc, t.components[_offset(src, strides)])
            comps.append(acc)
        marks = t.indices[:axis] + t.indices[axis + 1 :]
        if not new_shape:
            return comps[0]
        t = TensorValue(new_shape, tuple(comps), marks)


def permute_marked_axes_ref(t: TensorValue, perm) -> TensorValue:
    axis_src = list(perm) + list(range(len(t.indices), t.rank))
    new_shape = tuple(t.shape[a] for a in axis_src)
    strides = _strides(t.shape)
    comps = []
    for c in _coords(new_shape):
        src = [0] * t.rank
        for dst_axis, src_axis in enumerate(axis_src):
            src[src_axis] = c[dst_axis]
        comps.append(t.components[_offset(src, strides)])
    return TensorValue(new_shape, tuple(comps), tuple(t.indices[a] for a in perm))


# ---------------------------------------------------------------- lifting


def tensor_map_ref(f, t):
    """Map f over one tensor's components; marked results hoist their indices."""
    if not isinstance(t, TensorValue):
        return f(t)
    results = [f(c) for c in t.components]
    inner = [r for r in results if isinstance(r, TensorValue)]
    if not inner:
        return TensorValue(t.shape, tuple(results), t.indices)
    if len(inner) != len(results):
        raise ShapeMismatchError("mixed scalar and tensor results in tensor-map")
    first = inner[0]
    for r in inner[1:]:
        if r.shape != first.shape or r.indices != first.indices:
            raise ShapeMismatchError("inconsistent result shapes in tensor-map")
    if first.indices and t.form_degree:
        raise IndexLabelError("cannot hoist marked results over unmarked axes")
    comps = tuple(c for r in results for c in r.components)
    combined = TensorValue(t.shape + first.shape, comps, t.indices + first.indices)
    return reduce_indices_ref(combined)


def apply_with_kinds_ref(kernel, kinds, args):
    """Nest tensor_map_ref over scalar and inverted-scalar argument positions."""
    prepared = [
        flip_indices(a) if k is INVERTED else a for k, a in zip(kinds, args)
    ]

    def rec(i: int, bound: list):
        if i == len(prepared):
            return kernel(*bound)
        a = prepared[i]
        if kinds[i] is TENSOR or not isinstance(a, TensorValue):
            return rec(i + 1, bound + [a])
        return tensor_map_ref(lambda c: rec(i + 1, bound + [c]), a)

    return rec(0, [])


# ---------------------------------------------------------------- records

_TWIN_FIELDS = {
    # lang
    "Token": "type value line col glued",
    "MarkAst": "variance label",
    "IntLit": "value loc",
    "StrLit": "value loc",
    "SymbolRef": "name loc",
    "IndexedRef": "base marks loc",
    "TensorLit": "elements loc",
    "Braces": "items loc",
    "Apply": "fn args loc",
    "BangApply": "fn args loc",
    "Lambda": "params body loc",
    "Define": "name signature body loc",
    "WithSymbols": "names body loc",
    "Let": "bindings body loc",
    "If": "cond then other loc",
    # tensor
    "Dummy": "uid",
    "IndexMark": "variance label",
    "TensorValue": "shape components indices",
    # symexpr
    "Sym": "name uid",
    "Fun": "tag arg",
    "Inv": "arg",
    "Expr": "terms",
    # evaluator
    "Closure": "params body env",
    "Builtin": "name kinds fn min_args",
}
_TWIN_DEFAULTS = {
    ("Sym", "uid"): 0,
    ("Expr", "terms"): (),
    ("TensorValue", "indices"): (),
    ("Builtin", "min_args"): 1,
}
_MUTABLE = {"Closure", "Builtin"}  # `@dataclass` with eq=True: no hash


def _tensor_checks(self):
    size = 1
    for d in self.shape:
        size *= d
    if len(self.components) != size:
        raise ShapeMismatchError(f"{len(self.components)} components for shape {self.shape}")
    if len(self.indices) > len(self.shape):
        raise IndexArityError("more index marks than axes")


def _twin(name):
    specs = []
    for f in _TWIN_FIELDS[name].split():
        if f == "loc":
            specs.append((f, object, dataclasses.field(default=None, compare=False, repr=False)))
        elif (name, f) in _TWIN_DEFAULTS:
            specs.append((f, object, dataclasses.field(default=_TWIN_DEFAULTS[name, f])))
        else:
            specs.append((f, object))
    namespace = {"__post_init__": _tensor_checks} if name == "TensorValue" else {}
    return dataclasses.make_dataclass(
        name, specs, frozen=name not in _MUTABLE, namespace=namespace
    )


# The symexpr twins hash their fields; the engine's nodes hash their order
# key, so only "equal values hash alike" carries over to them.
DATACLASS_TWINS = {name: _twin(name) for name in _TWIN_FIELDS}
