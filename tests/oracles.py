"""Independent reference implementations the tests compare the engine against.

`wedge` and `exterior_d` compute what the prelude's `wedge` and `d` compute,
directly in Python.  The `*_ref` functions are the coordinate-loop versions
of the reshaping operations in `tegi.tensor` and `tegi.forms`: each walks
the output coordinates and computes one row-major source offset per
component, with no shared gather helper.  `apply_with_kinds_ref` lifts a
function by nesting single-tensor maps, so it calls the function on the
whole outer product of the lifted arguments and reduction then keeps the
diagonal.  `det_ref` multiplies out every product, zero factors included,
and `hodge_ref` every product with no zero factor; `hodge_loop_ref` is
`hodge` as it was before it summed over minors of g^{..}.  `perm_sign_ref` signs any index tuple, 0 when entries
repeat, and `levi_civita_ref` signs all n**n tuples of ε with it.
`to_nested` turns a tensor into nested lists, the inverse of
`tegi.tensor.tensor`.  `order_key_ref` recomputes the canonical order key of an
expression from scratch, with nothing memoised.  `structural_ref` rebuilds an
expression from the dataclass twins below, compared and hashed by structure
with nothing interned, and `format_ref` prints it with no memo.  `add_ref`, `mul_ref`,
`div_ref` and `int_pow_ref` are the scalar kernel as it was with every
coefficient a `Fraction`: no integer fast path and no constant-factor
shortcut; `mul_monos_ref` is their product of two monomials, a dict of
powers re-sorted, as `symexpr` made it before it merged sorted monomials.
`canonicalize` rebuilds an expression bottom-up through the
public constructors, and `differentiate_ref` is differentiation as it was
when it rebuilt every atom it met that way.  `find_identical_pairs` lists
the 1-based label pairs that `reduce_indices_ref` collapses one at a time.
`align_ref` is `tegi.tensor._align` as it was before labels paired in one
pass: `_nest` nests the tensors right to left, and `_collapse` merges
repeated labels pairwise with `_diagonal`, leftmost pair first, each pair
found by `labels_equal`.
`DenseInterpreter` is the evaluator before calls with nothing to lift ran
directly: every call completes omitted indices and lifts, `+` and `*` fold
pairwise with zero factors multiplied out, and `contract` folds each run
through `call`, calling the builtin `+` on a run of one as well.  Its
`contract`, `+` and `*` are not the engine's own builtins, so its `.`
evaluates `(contract + (* t1 t2))` as written, never as one join.
`DATACLASS_TWINS` rebuilds every value class of the engine as the
dataclass it used to be.  `tokenize_ref` is the lexer as it was before it
read tokens with one regular expression: a loop over characters.
`parse_ref` is the parser as it was before it read each construct once:
a class with a method per construct and per special form, and a loop of
its own for each bracketed sequence.  It lexes with the engine's `tokenize`,
which refuses a bracket left open, so no loop meets the end of the input.
`lookup_ref` resolves a name under index marks by the README's rule, from a
list of every frame's candidate bindings.  `evaluate_mod` evaluates an
expression modulo the prime `MOD_P` at a random point, an exact zero test
(Gonnet's signature method).  `with_symbols_scope_ref` drops a
scope's marks in two steps, a permuted tensor that keeps every mark and then
one without the scope's marks, where the engine builds one tensor.
`curvature_ref` computes Christoffel symbols, the Riemann tensor and the
Ricci tensor of a sympy metric by loops over index tuples.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import sympy as sp

from tegi.application import (
    INVERTED,
    SCALAR,
    TENSOR,
    apply_with_kinds,
    complete_omitted_indices,
    with_symbols_scope,
)
from tegi.errors import (
    ArityError,
    FormDegreeError,
    IndexArityError,
    IndexBoundsError,
    IndexLabelError,
    LexError,
    ParseError,
    ShapeMismatchError,
    TegiArithmeticError,
    TegiTypeError,
)
from tegi.evaluator import _MISSING, Function, Interpreter, _scalar, format_value
from tegi.forms import _alternate, _signed_permutations, det
from tegi.symexpr import (
    ONE,
    ZERO,
    Expr,
    Fun,
    Inv,
    Sym,
    _norm,
    abs_,
    add,
    as_int,
    as_symbol,
    cos,
    differentiate,
    div,
    int_pow,
    integer,
    mul,
    rational,
    sin,
    sqrt,
    symbol,
)
from tegi.lang import (
    Apply,
    Braces,
    Define,
    If,
    IndexedRef,
    IntLit,
    Lambda,
    Let,
    Node,
    StrLit,
    SymbolRef,
    TensorLit,
    Token,
    WithSymbols,
    desugar_define_indices,
    tokenize,
)
from tegi.tensor import (
    SUPERSUBSCRIPT,
    Dummy,
    IndexMark,
    TensorValue,
    contract,
    flip_indices,
    tensor_map,
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


def perm_sign_ref(p) -> int:
    """Sign of a sequence as a permutation; 0 when entries repeat."""
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] == p[j]:
                return 0
            if p[i] > p[j]:
                sign = -sign
    return sign


def levi_civita_ref(n: int) -> TensorValue:
    """ε by the sign of every one of the n**n index tuples."""
    comps = tuple(integer(perm_sign_ref(c)) for c in _coords((n,) * n))
    return TensorValue((n,) * n, comps, ())


def wedge(a, b):
    """Wedge product, computed as an index-completed scalar multiplication.

    Both arguments get fresh subscripts over their form axes, the products
    multiply out (contracting any matching value-level labels), and the fresh
    axes scope back out in order as the form axes of the result.
    """
    args, gens = complete_omitted_indices([a, b], [SCALAR, SCALAR], distinct=True)
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
    scale = rational(1, math.factorial(k))
    strides = _strides(v.shape)
    comps = []
    for out in _coords(v.shape):
        marked, form = out[:m], out[m:]
        total = ZERO
        for p in itertools.permutations(range(k)):
            src = marked + tuple(form[i] for i in p)
            total = add(
                total,
                mul(integer(perm_sign_ref(p)), v.components[_offset(src, strides)]),
            )
        comps.append(mul(total, scale))
    return TensorValue(v.shape, tuple(comps), v.indices)


def det_ref(m: TensorValue) -> Expr:
    n = m.shape[0]
    total = ZERO
    for p in itertools.permutations(range(n)):
        term = integer(perm_sign_ref(p))
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
    eps = levi_civita_ref(n)
    eps_strides = _strides(eps.shape)
    src_strides = _strides(marked_shape + form_shape)
    gup = [[g_upper.components[i * n + j] for j in range(n)] for i in range(n)]
    out_shape = marked_shape + (n,) * (n - k)
    out = []
    for coords in _coords(out_shape):
        mc, rest = coords[: len(marked_shape)], coords[len(marked_shape) :]
        terms = []  # a product with a zero factor adds nothing, so none is made
        for is_ in itertools.product(range(n), repeat=k):
            e = eps.components[_offset(is_ + rest, eps_strides)]
            if not e.terms:
                continue
            for js in itertools.product(range(n), repeat=k):
                factors = [e, comps[_offset(mc + js, src_strides)]]
                factors += [gup[im][jm] for im, jm in zip(is_, js)]
                if all(f.terms for f in factors):
                    terms.append(mul(*factors))
        out.append(mul(scale, add(*terms)))
    if not out_shape:
        return out[0]
    return TensorValue(out_shape, tuple(out), marks)


def hodge_loop_ref(a, g_lower: TensorValue, g_upper: TensorValue):
    """`hodge` as it was before it summed over minors: for each increasing
    output tuple, every ordering of the left-out indices times every choice
    of nonzero g^{..} entries in their rows, one product of k + 2 factors
    each."""
    n = g_lower.shape[0]
    if isinstance(a, Expr):
        shape, marks, comps = (), (), (a,)
    else:
        shape, marks, comps = a.shape, a.indices, a.components
    m = len(marks)
    k = len(shape) - m
    scale = sqrt(abs_(det(g_lower)))
    gu = g_upper.components
    rows = [[(j, e) for j, e in enumerate(gu[i * n : i * n + n]) if e.terms] for i in range(n)]
    orderings, signed = _signed_permutations(k), _signed_permutations(n - k)
    st, out_st = _strides((n,) * k), _strides((n,) * (n - k))
    sign_of = (ONE, integer(-1))
    out = []
    for b in range(0, len(comps), n**k):
        slots = [ZERO] * n ** (n - k)
        for rest in itertools.combinations(range(n), n - k):
            lead = [i for i in range(n) if i not in rest]
            odd_lead = sum(i > j for i in lead for j in rest) % 2
            terms = []
            for q, odd in orderings:
                sign = sign_of[odd ^ odd_lead]
                for entries in itertools.product(*(rows[lead[r]] for r in q)):
                    c = comps[b + sum(j * s for (j, _), s in zip(entries, st))]
                    if c.terms:
                        terms.append(mul(sign, c, *(e for _, e in entries)))
            total = add(*terms)
            if total.terms:
                _alternate(slots, 0, out_st, signed, rest, mul(scale, total))
        out.extend(slots)
    out_shape = shape[:m] + (n,) * (n - k)
    return TensorValue(out_shape, tuple(out), marks) if out_shape else out[0]


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


def structural_ref(e: Expr):
    """e rebuilt from the symexpr dataclass twins: nothing interned, and
    equality and hashing by structure, as before atoms were interned."""
    twin = DATACLASS_TWINS

    def atom(a):
        if isinstance(a, Sym):
            return twin["Sym"](a.name, a.uid)
        if isinstance(a, Fun):
            return twin["Fun"](a.tag, structural_ref(a.arg))
        return twin["Inv"](structural_ref(a.arg))

    return twin["Expr"](tuple((c, tuple((atom(a), p) for a, p in m)) for c, m in e.terms))


def format_ref(t) -> str:
    """The printed form of a `structural_ref` twin, every atom formatted
    where it occurs, with no memo."""

    def product(n, factors):
        parts = factors if n == 1 else [str(n), *factors]
        if not parts:
            return str(n)
        return parts[0] if len(parts) == 1 else "(* " + " ".join(parts) + ")"

    def term(c, mono):
        num, den = [], []
        for a, p in mono:
            kind = type(a).__name__
            text = a.name if kind == "Sym" else format_ref(a.arg)
            if kind == "Fun":
                text = f"({a.tag} {text})"
            if kind == "Inv":
                p = -p
            (num if p > 0 else den).append(text if abs(p) == 1 else f"{text}^{abs(p)}")
        c = Fraction(c)
        if den or c.denominator != 1:
            return f"(/ {product(c.numerator, num)} {product(c.denominator, den)})"
        return product(c.numerator, num)

    parts = [term(c, m) for c, m in t.terms]
    if not parts:
        return "0"
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


ONE_REF = Expr(((Fraction(1), ()),))


def _mk_ref(termmap):
    terms = [(c, m) for m, c in termmap.items() if c != 0]
    terms.sort(key=lambda t: mono_key_ref(t[1]), reverse=True)
    return Expr(tuple(terms))


def mul_monos_ref(m1, m2):
    """m1 * m2 as `symexpr` made it before it merged the two sorted
    monomials: a dict of summed powers, zero powers deleted, re-sorted by
    atom key."""
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
            m = mul_monos_ref(m1, m2)
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


_FUN_CONSTRUCTORS = {"sin": sin, "cos": cos, "sqrt": sqrt, "abs": abs_}


def _atom_as_expr(atom) -> Expr:
    if isinstance(atom, Sym):
        return symbol(atom.name, atom.uid)
    if isinstance(atom, Fun):
        return _FUN_CONSTRUCTORS[atom.tag](canonicalize(atom.arg))
    return div(ONE, canonicalize(atom.arg))


def canonicalize(e: Expr) -> Expr:
    """Rebuild an expression bottom-up; idempotent on constructed values."""
    acc = ZERO
    for c, mono in e.terms:
        t = Expr(((c, ()),))
        for atom, p in mono:
            t = mul(t, int_pow(_atom_as_expr(atom), p))
        acc = add(acc, t)
    return acc


def _d_atom_ref(atom, s: Sym) -> Expr:
    if isinstance(atom, Sym):
        return ONE if atom == s else ZERO
    if isinstance(atom, Inv):
        inner = differentiate_ref(atom.arg, symbol(s.name, s.uid))
        self_expr = Expr(((1, ((atom, 1),)),))
        return mul(integer(-1), int_pow(self_expr, 2), inner)
    inner = differentiate_ref(atom.arg, symbol(s.name, s.uid))
    if atom.tag == "sin":
        return mul(cos(atom.arg), inner)
    if atom.tag == "cos":
        return mul(integer(-1), sin(atom.arg), inner)
    if atom.tag == "sqrt":
        self_expr = Expr(((1, ((atom, 1),)),))
        return mul(rational(1, 2), int_pow(self_expr, -1), inner)
    raise TegiTypeError("cannot differentiate abs")


def differentiate_ref(e: Expr, by: Expr) -> Expr:
    s = as_symbol(by)
    if s is None:
        raise TegiTypeError(f"cannot differentiate by non-symbol: {by}")
    acc = ZERO
    for c, mono in e.terms:
        for i, (atom, p) in enumerate(mono):
            da = _d_atom_ref(atom, s)
            if not da.terms:
                continue
            rest = Expr(((_norm(c * p), tuple(ap for j, ap in enumerate(mono) if j != i)),))
            acc = add(acc, mul(rest, int_pow(_atom_as_expr(atom), p - 1), da))
    return acc


# ---------------------------------------------------------------- tensor


def labels_equal(a, b) -> bool:
    if isinstance(a, Dummy) or isinstance(b, Dummy):
        return False
    return a == b


def _diagonal(k: int, j: int, shape: tuple, strides: list) -> tuple[tuple, list]:
    """Merge axis j into axis k (0-based, k < j) of a strided layout."""
    if shape[k] != shape[j]:
        raise ShapeMismatchError(
            f"repeated index over axes of dimension {shape[k]} and {shape[j]}"
        )
    return shape[:j] + shape[j + 1 :], [
        s[:k] + (s[k] + s[j],) + s[k + 1 : j] + s[j + 1 :] for s in strides
    ]


def _repeats(marks) -> bool:
    labels = [m.label for m in marks if not isinstance(m.label, Dummy)]
    return len(set(labels)) != len(labels)


def _collapse(marks: tuple, shape: tuple, strides: list) -> tuple[tuple, tuple, list]:
    """Collapse repeated labels pairwise, leftmost pair first: each mark merges
    with its next later match until it has none."""
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
    """Layout of an outer tensor whose components are inner tensors."""
    if inner_marks and len(shape) > len(marks):
        raise IndexLabelError("cannot hoist marked results over unmarked axes")
    return _collapse(marks + inner_marks, shape + inner_shape, strides)


def align_ref(parts, readers: int = 1):
    """`tegi.tensor._align` as pairwise collapses made it: each part, the last
    first, nests the layout of the parts after it (`_nest`)."""
    marks, shape, strides = (), (), [()] * readers
    for ms, dims, steps, r in reversed(parts):
        strides = [(tuple(steps) if q == r else (0,) * len(dims)) + s for q, s in enumerate(strides)]
        marks, shape, strides = _nest(tuple(dims), tuple(ms), shape, marks, strides)
    return marks, shape, strides


def diag_ref(k: int, j: int, t: TensorValue) -> TensorValue:
    k0, j0 = k - 1, j - 1
    if t.shape[k0] != t.shape[j0]:
        raise ShapeMismatchError(
            f"repeated index over axes of dimension {t.shape[k0]} and {t.shape[j0]}"
        )
    new_shape = t.shape[:j0] + t.shape[j0 + 1 :]
    strides = _strides(t.shape)
    comps = []
    for c in _coords(new_shape):
        src = c[:j0] + (c[k0],) + c[j0:]
        comps.append(t.components[_offset(src, strides)])
    marks = t.indices[:j0] + t.indices[j0 + 1 :] if j <= len(t.indices) else t.indices
    return TensorValue(new_shape, tuple(comps), marks)


def find_identical_pairs(marks) -> list[tuple[int, int]]:
    """All 1-based (k, j) with k < j and equal labels, leftmost first."""
    pairs = []
    for k in range(len(marks)):
        for j in range(k + 1, len(marks)):
            if labels_equal(marks[k].label, marks[j].label):
                pairs.append((k + 1, j + 1))
    return pairs


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
        free = t.rank - existing
        raise IndexArityError(
            f"{len(marks)} index marks on a tensor with {free} free "
            + ("axis" if free == 1 else "axes")
        )
    selections = {}
    named = []
    for pos, m in enumerate(marks):
        axis = existing + pos
        if isinstance(m.label, int):
            if not 1 <= m.label <= t.shape[axis]:
                raise IndexBoundsError(
                    f"index {m.label} out of bounds for axis of dimension {t.shape[axis]}"
                )
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


def contract_ref(f, t, single=None):
    """Fold each run pairwise with f; with `single`, a run of one component
    is single(component) rather than the component itself."""
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
            if single is not None and t.shape[axis] == 1:
                acc = single(acc)
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


def with_symbols_scope_ref(symbols, result):
    """`with_symbols_scope` in two steps: permute keeping every mark, then
    rebuild the tensor without the scope's marks."""
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
    t = permute_marked_axes_ref(result, rest + positions)
    return TensorValue(t.shape, t.components, t.indices[: len(rest)])


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


# ---------------------------------------------------------------- dense evaluator


def apply_with_kinds_dense(kernel, kinds, args):
    """apply_with_kinds with no shortcut: tensor_map always runs."""
    args = [flip_indices(a) if k is INVERTED else a for k, a in zip(kinds, args)]
    spots = [p for p, k in enumerate(kinds) if k is not TENSOR]
    bound = list(args)

    def at(*vals):
        for p, v in zip(spots, vals):
            bound[p] = v
        return kernel(*bound)

    return tensor_map(at, *(args[p] for p in spots))


def _arguments(n: int) -> str:
    return "1 argument" if n == 1 else f"{n} arguments"


class DenseInterpreter(Interpreter):
    """Every call completes and lifts; `+`, `*` and `contract` fold pairwise."""

    def call(self, fnv, args: list, distinct: bool = False):
        if not isinstance(fnv, Function):
            raise TegiTypeError(f"not a function: {format_value(fnv)}")
        kinds = fnv.kinds
        if kinds is None:
            if len(args) < fnv.min_args:
                wanted = _arguments(fnv.min_args)
                raise ArityError(f"{fnv.name} expected at least {wanted}, got {len(args)}")
            kinds = (SCALAR,) * len(args)
        elif len(args) != len(kinds):
            who = "" if fnv.name is None else f"{fnv.name} "
            raise ArityError(f"{who}expected {_arguments(len(kinds))}, got {len(args)}")

        # pick the positions to complete here, apart from how the engine picks them
        if distinct:
            args, gens = complete_omitted_indices(args, kinds, distinct=True)
        else:
            spots = [i for i, k in enumerate(kinds) if k is not TENSOR]
            sub, gens = complete_omitted_indices([args[i] for i in spots], [SCALAR] * len(spots))
            args = list(args)
            for i, v in zip(spots, sub):
                args[i] = v
        result = apply_with_kinds_dense(fnv.fn, kinds, args)
        return with_symbols_scope(gens, result)

    def _builtins(self):
        def fold(op, unary=None):
            def fn(*xs):
                vals = [_scalar(x) for x in xs]
                if len(vals) == 1 and unary is not None:
                    return unary(vals[0])
                acc = vals[0]
                for x in vals[1:]:
                    acc = op(acc, x)
                return acc

            return fn

        plus = fold(add)

        def contract_dense(f, t):
            if not isinstance(f, Function):
                raise TegiTypeError(f"not a function: {format_value(f)}")

            def single(a):  # the builtin `+` is called on a run of one as well
                return self.call(f, [a])

            is_plus = isinstance(f, Function) and f.fn is plus
            return contract_ref(lambda a, b: self.call(f, [a, b]), t, single if is_plus else None)

        dense = {"+": plus, "*": fold(mul), "contract": contract_dense}
        return [
            Function(b.name, b.kinds, dense.get(b.name, b.fn), b.min_args)
            for b in super()._builtins()
        ]


# ---------------------------------------------------------------- records

_TWIN_FIELDS = {
    # lang
    "IntLit": "value loc",
    "StrLit": "value loc",
    "SymbolRef": "name loc",
    "IndexedRef": "base marks loc",
    "TensorLit": "elements loc",
    "Braces": "items loc",
    "Apply": "fn args distinct loc",
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
    "Function": "name kinds fn min_args",
}
_TWIN_DEFAULTS = {
    ("Sym", "uid"): 0,
    ("Expr", "terms"): (),
    ("TensorValue", "indices"): (),
    ("Function", "min_args"): 1,
    ("Apply", "distinct"): False,
}
_MUTABLE = {"Function"}  # `@dataclass` with eq=True: no hash


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


# The symexpr twins hash their fields; the engine's atoms hash by identity
# and an Expr by its terms, so only "equal values hash alike" carries over.
DATACLASS_TWINS = {name: _twin(name) for name in _TWIN_FIELDS}


# ---------------------------------------------------------------- lexer

_DELIMS = set(" \t\r\n()[]{}|~_$%#!^;\"")
_token = tuple.__new__


def tokenize_ref(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, line_start = 0, 1, 0  # a column is 1 plus the offset from line_start
    glued = False
    open_brackets: list[tuple[str, int, int]] = []

    def emit(type_, value, l, c, width):
        nonlocal glued
        toks.append(_token(Token, (type_, value, l, c, glued)))
        glued = True
        return width

    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            glued = False
            continue
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            glued = False
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            glued = False
            continue
        l, c = line, i - line_start + 1
        if ch == "[" and i + 1 < n and text[i + 1] == "|":
            open_brackets.append(("tensor literal", l, c))
            w = emit("[|", "[|", l, c, 2)
        elif ch == "|" and i + 1 < n and text[i + 1] == "]":
            if open_brackets:
                open_brackets.pop()
            w = emit("|]", "|]", l, c, 2)
        elif ch == "|":
            raise LexError("stray '|'", (l, c))
        elif ch == "~" and i + 1 < n and text[i + 1] == "_":
            w = emit("~_", "~_", l, c, 2)
        elif ch == "*" and i + 1 < n and text[i + 1] == "$":
            w = emit("*$", "*$", l, c, 2)
        elif ch in "([{":
            open_brackets.append((repr(ch), l, c))
            w = emit(ch, ch, l, c, 1)
        elif ch in ")]}":
            if open_brackets:
                open_brackets.pop()
            w = emit(ch, ch, l, c, 1)
        elif ch in "_~!$%#^":
            w = emit(ch, ch, l, c, 1)
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string", (l, c))
            w = emit("str", "".join(buf), l, c, j + 1 - i)
            if "\n" in text[i:j]:
                line += text.count("\n", i, j)
                line_start = text.rindex("\n", i, j) + 1
        elif ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            w = emit("int", int(text[i:j]), l, c, j - i)
        else:
            j = i
            while j < n and text[j] not in _DELIMS:  # ch is not a delimiter: j > i
                j += 1
            w = emit("sym", text[i:j], l, c, j - i)
        i += w
    if open_brackets:
        name, l, c = open_brackets[-1]
        raise LexError(f"unterminated {name}", (l, c))
    toks.append(_token(Token, ("eof", None, line, n - line_start + 1, False)))
    return toks


# ---------------------------------------------------------------- parser

_MARK_TOKENS = {"_": -1, "~": 1, "~_": 0}
_SIGILS = {"$": SCALAR, "%": TENSOR, "*$": INVERTED}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, type_: str) -> Token:
        t = self.next()
        if t.type != type_:
            found = "end of input" if t.type == "eof" else repr(t.value)
            raise ParseError(f"expected {type_!r}, found {found}", (t.line, t.col))
        return t

    def loc(self, t: Token) -> tuple:
        return (t.line, t.col)

    # -- expressions --------------------------------------------------------

    def expression(self, top: bool = False) -> Node:
        node = self.primary()
        if isinstance(node, Define):
            t = self.peek()
            if not top or t.glued and (t.type in _MARK_TOKENS or t.type == "^"):
                raise ParseError("define must be a top-level form", node.loc)
        return self.postfixes(node)

    def primary(self) -> Node:
        t = self.next()
        if t.type == "int":
            return IntLit(t.value, self.loc(t))
        if t.type == "str":
            return StrLit(t.value, self.loc(t))
        if t.type in ("sym", "^"):  # an unglued `^` names the power function
            return SymbolRef(t.value, self.loc(t))
        if t.type == "[|":
            elems = []
            while self.peek().type != "|]":
                elems.append(self.expression())
            self.next()
            if not elems:
                raise ParseError("empty tensor literal", self.loc(t))
            return TensorLit(tuple(elems), self.loc(t))
        if t.type == "{":
            items = []
            while self.peek().type != "}":
                items.append(self.expression())
            self.next()
            return Braces(tuple(items), self.loc(t))
        if t.type == "!":
            opener = self.expect("(")
            form = self.form(opener)
            if not isinstance(form, Apply):
                raise ParseError("'!' must precede a function application", self.loc(t))
            return Apply(form.fn, form.args, True, self.loc(t))
        if t.type == "(":
            return self.form(t)
        raise ParseError(f"unexpected {t.value!r}", (t.line, t.col))

    def postfixes(self, base: Node) -> Node:
        while True:
            t = self.peek()
            if t.type in _MARK_TOKENS and t.glued:
                marks = []
                while self.peek().type in _MARK_TOKENS and self.peek().glued:
                    mt = self.next()
                    marks.append(IndexMark(_MARK_TOKENS[mt.type], self.mark_label()))
                base = IndexedRef(base, tuple(marks), self.loc(t))
            elif t.type == "^" and t.glued:
                self.next()
                e = self.peek()
                if e.type != "int" or not e.glued:
                    raise ParseError("'^' needs an integer exponent", (e.line, e.col))
                self.next()
                base = Apply(
                    SymbolRef("^", self.loc(t)),
                    (base, IntLit(e.value, self.loc(e))),
                    loc=self.loc(t),
                )
            else:
                return base

    def glued_label(self) -> str | int | None:
        """Read the label glued onto the mark just read, or None if there is none."""
        t = self.peek()
        if t.glued and t.type in ("sym", "int", "#"):
            self.next()
            return "#" if t.type == "#" else t.value
        return None

    def mark_label(self) -> str | int:
        label = self.glued_label()
        if label is None:
            t = self.peek()
            raise ParseError("index mark needs a label", (t.line, t.col))
        return label

    # -- parenthesized forms -------------------------------------------------

    def form(self, opener: Token) -> Node:
        head = self.peek()
        if head.type == "sym":
            handler = _SPECIAL_FORMS.get(head.value)
            if handler is not None:
                self.next()
                return handler(self, opener)
        fn = self.expression()
        args = []
        while self.peek().type != ")":
            args.append(self.expression())
        self.next()
        return Apply(fn, tuple(args), loc=self.loc(opener))

    def define_form(self, opener: Token) -> Node:
        if self.peek().type == "$":
            self.next()
        name = self.expect("sym")
        sig = []
        while self.peek().type in _MARK_TOKENS and self.peek().glued:
            mt = self.next()
            label = self.glued_label()
            if mt.type == "~_" and label is None:
                # a bare "~_" in a name is two marks, not a supersubscript
                sig.append(IndexMark(1, None))
                sig.append(IndexMark(-1, None))
            else:
                sig.append(IndexMark(_MARK_TOKENS[mt.type], label))
        body = self.expression()
        self.expect(")")
        labels = [m.label for m in sig]
        if any(label is not None for label in labels):
            for label in labels:
                if label is None:
                    raise ParseError(
                        f"define name {name.value!r} mixes bare and labeled indices",
                        self.loc(opener),
                    )
                if not isinstance(label, str) or label == "#":
                    raise ParseError(
                        f"define name {name.value!r} needs symbolic indices", self.loc(opener)
                    )
            if len(set(labels)) != len(labels):
                raise ParseError(
                    f"define name {name.value!r} repeats an index symbol", self.loc(opener)
                )
        return desugar_define_indices(Define(name.value, tuple(sig), body, self.loc(opener)))

    def bound_once(self, head: str, names: list, opener: Token) -> None:
        """Refuse, at its '(', a binding form that binds a name twice."""
        seen = set()
        for name in names:
            if name in seen:
                raise ParseError(f"{head} binds {name!r} twice", self.loc(opener))
            seen.add(name)

    def lambda_form(self, opener: Token) -> Node:
        self.expect("[")
        params = []
        while self.peek().type != "]":
            t = self.next()
            if t.type not in _SIGILS:
                raise ParseError(
                    "parameter needs a '$', '%', or '*$' sigil", (t.line, t.col)
                )
            name = self.expect("sym")
            params.append((_SIGILS[t.type], name.value))
        self.next()
        body = self.expression()
        self.expect(")")
        self.bound_once("lambda", [name for _, name in params], opener)
        return Lambda(tuple(params), body, self.loc(opener))

    def with_symbols_form(self, opener: Token) -> Node:
        self.expect("{")
        names = []
        while self.peek().type != "}":
            names.append(self.expect("sym").value)
        self.next()
        body = self.expression()
        self.expect(")")
        self.bound_once("with-symbols", names, opener)
        return WithSymbols(tuple(names), body, self.loc(opener))

    def let_form(self, opener: Token) -> Node:
        self.expect("{")
        bindings = []
        while self.peek().type != "}":
            self.expect("[")
            if self.peek().type in _SIGILS:
                self.next()
            name = self.expect("sym")
            value = self.expression()
            self.expect("]")
            bindings.append((name.value, value))
        self.next()
        body = self.expression()
        self.expect(")")
        self.bound_once("let", [name for name, _ in bindings], opener)
        return Let(tuple(bindings), body, self.loc(opener))

    def if_form(self, opener: Token) -> Node:
        cond = self.expression()
        then = self.expression()
        other = self.expression()
        self.expect(")")
        return If(cond, then, other, self.loc(opener))


# the parser method for each special form, keyed by its head symbol
_SPECIAL_FORMS = {
    "define": _Parser.define_form,
    "lambda": _Parser.lambda_form,
    "with-symbols": _Parser.with_symbols_form,
    "let": _Parser.let_form,
    "if": _Parser.if_form,
}


def parse_ref(text: str) -> list[Node]:
    """Parse source text into a list of (desugared) top-level forms.

    A form nested too deeply for the Python stack is a ParseError located at
    the start of that top-level form; the recursion limit is left alone.  A
    define that is not a whole top-level form is a ParseError at its '('.
    """
    p = _Parser(tokenize(text))
    forms = []
    while p.peek().type != "eof":
        start = p.peek()
        try:
            forms.append(p.expression(top=True))
        except RecursionError:
            raise ParseError("nesting too deep", p.loc(start)) from None
    return forms


def lookup_ref(env, name, variances=()):
    """The value a reference to `name` with marks of these variances names.

    The nearest frame that binds the name under a signature that is a
    prefix of the variances, or plainly, wins; within it the longest such
    signature, the plain name counting as the empty one.  `_MISSING` when no
    frame binds it.
    """
    frames = []
    while env is not None:
        frames.append(env.bindings)
        env = env.parent
    for bindings in frames:
        candidates = [
            (len(key[1]) if isinstance(key, tuple) else 0, value)
            for key, value in bindings.items()
            if key == name
            or isinstance(key, tuple) and key[0] == name and key[1] == variances[: len(key[1])]
        ]
        if candidates:
            return max(candidates, key=lambda c: c[0])[1]
    return _MISSING


# ---------------------------------------------------------------- modular evaluation

MOD_P = 2**61 - 1  # a Mersenne prime; P % 4 == 3, so a square root is one power


class _NewPoint(Exception):
    """The point is a pole, or a radicand there has no square root."""


def evaluate_mod(e: Expr, seed: int = 0) -> int:
    """e mod MOD_P at a random point drawn from seed.

    Each symbol gets a residue, each distinct sin/cos argument u one t, with
    sin u = 2t/(1+t²) and cos u = (1−t²)/(1+t²) on the rational circle, so
    sin² + cos² = 1 holds exactly; each abs atom is a free residue.  An
    `Inv` is a modular inverse and a sqrt the root r**((P+1)/4) of its
    radicand r.  Each residue is a function of seed and the atom's
    structure alone, so expressions evaluated with one seed share a point.
    A pole or a radicand with no root draws a new point, up to 20 points.
    By Schwartz–Zippel a nonzero e of degree D after the substitution is 0
    at one point with probability at most D/P; a sin of a composite
    argument gets its own t, which errs only toward nonzero.
    """
    for attempt in range(20):
        values = {}

        def draw(key) -> int:
            return random.Random(repr((seed, attempt, key))).randrange(MOD_P)

        def atom_value(a) -> int:
            if a in values:
                return values[a]
            if isinstance(a, Sym):
                v = draw(a.key())
            elif isinstance(a, Inv):
                v = value(a.arg)
                if not v:
                    raise _NewPoint
                v = pow(v, -1, MOD_P)
            elif a.tag in ("sin", "cos"):
                t = draw(("t", a.arg.key()))
                num = 2 * t if a.tag == "sin" else 1 - t * t
                v = num * pow(1 + t * t, -1, MOD_P) % MOD_P  # -1 is no square mod P
            elif a.tag == "sqrt":
                r = value(a.arg)
                v = pow(r, (MOD_P + 1) // 4, MOD_P)
                if v * v % MOD_P != r:
                    raise _NewPoint
            else:  # abs
                v = draw(a.key())
            values[a] = v
            return v

        def value(x: Expr) -> int:
            total = 0
            for c, mono in x.terms:
                term = c.numerator * pow(c.denominator, -1, MOD_P)
                for a, p in mono:
                    base = atom_value(a)
                    if p < 0 and not base:
                        raise _NewPoint
                    term = term * pow(base, p, MOD_P) % MOD_P
                total += term
            return total % MOD_P

        try:
            return value(e)
        except _NewPoint:
            continue
    raise ValueError("no point without a pole or a rootless radicand in 20 tries")


# ---------------------------------------------------------------- curvature


def curvature_ref(x, g) -> list[list]:
    """Γ_ijk, Γ^i_jk, R^i_jkl and Ric_jl (= R^i_jil) of the sympy metric
    matrix g in the coordinate symbols x, each as its row-major list of
    components: loops over index tuples, with sympy's inverse and
    derivatives, and nothing simplified."""
    n, d, gi = len(x), sp.diff, g.inv()

    def idx(rank):
        return itertools.product(range(n), repeat=rank)

    first = {
        (i, j, k): (d(g[i, k], x[j]) + d(g[i, j], x[k]) - d(g[j, k], x[i])) / 2
        for i, j, k in idx(3)
    }
    second = {
        (i, j, k): sum(gi[i, m] * first[m, j, k] for m in range(n)) for i, j, k in idx(3)
    }
    riemann = {
        (i, j, k, l): d(second[i, j, l], x[k])
        - d(second[i, j, k], x[l])
        + sum(
            second[m, j, l] * second[i, m, k] - second[m, j, k] * second[i, m, l]
            for m in range(n)
        )
        for i, j, k, l in idx(4)
    }
    ricci = {(j, l): sum(riemann[i, j, i, l] for i in range(n)) for j, l in idx(2)}
    return [list(t.values()) for t in (first, second, riemann, ricci)]
