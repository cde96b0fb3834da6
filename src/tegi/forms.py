"""Differential-forms toolkit: alternation, determinant, Hodge star.

A k-form here is any value whose trailing unmarked axes hold the form slots;
marked leading axes ride along untouched, which is what makes matrix-valued
forms (curvature, connection coefficients) work with no extra machinery.
The wedge product and exterior derivative are prelude definitions.

The Hodge star is a linear map that the metric alone fixes, so `hodge_star`
does the metric's share of the work once per metric.  Every product here
multiplies monomials kept sorted by atom key (see `symexpr`): one merge each.
"""

from __future__ import annotations

import itertools
import math

from .errors import DomainError, FormDegreeError, ShapeMismatchError, TegiTypeError
from .symexpr import ONE, ZERO, Expr, abs_, add, mul, neg, rational, sqrt
from .tensor import MAX_COMPONENTS, MAX_LEVI_CIVITA, TensorValue, _strides, check_size

__all__ = [
    "det",
    "df_normalize",
    "df_order",
    "apply_star",
    "hodge_star",
    "levi_civita",
]

def df_order(v) -> int:
    """Degree of a value as a differential form (unmarked trailing axes)."""
    if isinstance(v, TensorValue):
        return v.form_degree
    if isinstance(v, Expr):
        return 0
    raise TegiTypeError("df-order expects a scalar or tensor value")


def _signed_permutations(n: int) -> list:
    """Each permutation of range(n), in lexicographic order, with its parity."""
    perms = itertools.permutations(range(n))
    return [(p, sum(a > b for a, b in itertools.combinations(p, 2)) % 2) for p in perms]


def _alternate(out: list, base: int, strides, signed, idx, value: Expr) -> None:
    """Write value at each permutation p of the increasing index tuple idx.

    Slot base + Σ idx[p[r]]·strides[r] gets value, negated where p is odd;
    `signed` lists the (p, odd) pairs.  Repeated-index slots keep their ZERO.
    """
    if value.terms:
        values = (value, neg(value)) if len(idx) > 1 else (value,)
        for p, odd in signed:
            out[base + sum(idx[r] * s for r, s in zip(p, strides))] = values[odd]


def _signed_sum(values) -> Expr:
    """Σ ±v over the nonzero v of (v, odd) pairs, negated where odd; a lone
    term is the sum itself, with no add."""
    vs = [neg(v) if odd else v for v, odd in values if v.terms]
    return vs[0] if len(vs) == 1 else add(*vs)


def _alternating_sum(src, base: int, strides, signed, idx) -> Expr:
    """Σ_p sign(p) src[base + Σ idx[p[r]]·strides[r]] over the (p, odd) pairs
    in `signed`: the reverse of `_alternate`, and alternation without 1/k!."""
    return _signed_sum(
        (src[base + sum(idx[r] * s for r, s in zip(p, strides))], odd) for p, odd in signed
    )


def levi_civita(n: int) -> TensorValue:
    """The rank-n alternating symbol as an unmarked tensor, for 1 ≤ n ≤ 7; any
    other n is refused before n**n is computed (see MAX_LEVI_CIVITA)."""
    if not (isinstance(n, int) and 1 <= n <= MAX_LEVI_CIVITA):
        raise DomainError(f"levi-civita needs an integer dimension from 1 to {MAX_LEVI_CIVITA}")
    shape = (n,) * n
    comps = [ZERO] * n**n
    _alternate(comps, 0, _strides(shape), _signed_permutations(n), range(n), ONE)
    return TensorValue(shape, tuple(comps), ())


def _transversals(rows) -> list:
    """Each choice of one nonzero entry per row, in distinct columns.

    `rows` lists each row's (column, entry) pairs with the zero entries left
    out; a choice is (columns, parity of columns, entries), in lexicographic
    order.  A choice is built row by row, so none that meets a zero entry is
    ever built.
    """
    partial = [((), 0, ())]
    for row in rows:
        partial = [
            (cols + (j,), (odd + sum(c > j for c in cols)) % 2, factors + (e,))
            for cols, odd, factors in partial
            for j, e in row
            if j not in cols
        ]
    return partial


def _nonzero_rows(m: TensorValue) -> list:
    """Each row of a square matrix as its (column, entry) pairs, zeros left out."""
    n, cs = m.shape[0], m.components
    return [[(j, e) for j, e in enumerate(cs[i * n : i * n + n]) if e.terms] for i in range(n)]


def det(m) -> Expr:
    """Leibniz-formula determinant of a square rank-2 tensor (marks ignored):
    the one minor on every row and column.

    After k rows there are at most min(Π of those rows' nonzero counts,
    n!/(n-k)!) partial terms; a matrix for which that bound passes
    MAX_COMPONENTS at some k is refused before any term is built.
    """
    if not isinstance(m, TensorValue) or m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError("determinant needs a square matrix")
    n, rows = m.shape[0], _nonzero_rows(m)
    product = falling = 1
    for k, row in enumerate(rows):
        product, falling = product * len(row), falling * (n - k)
        if min(product, falling) > MAX_COMPONENTS:
            raise DomainError(
                f"the determinant of a {n}×{n} matrix would build {min(product, falling)} "
                f"partial terms after {k + 1} rows, more than {MAX_COMPONENTS}"
            )
    minors = _minors(rows, range(n))
    return minors[0][1] if minors else ZERO


def _minors(rows, lead) -> list:
    """The nonzero minors det g^{lead,J}, as (J, minor) over increasing J.

    Each transversal of the rows in `lead` is one Leibniz term of the minor
    on its sorted columns; a single-entry term is the entry itself.
    """
    terms: dict = {}
    for cols, odd, factors in _transversals([rows[i] for i in lead]):
        product = factors[0] if len(factors) == 1 else mul(*factors)
        terms.setdefault(tuple(sorted(cols)), []).append((product, odd))
    return [(cols, minor) for cols, ts in terms.items() if (minor := _signed_sum(ts)).terms]


def df_normalize(v):
    """Project the form axes onto their antisymmetric part (1/k! alternation).

    Only the increasing form-index tuples are summed; `_alternate` writes the
    other components from them.  With fewer dimensions than form axes there
    is no such tuple, and every component is zero.
    """
    if isinstance(v, Expr):
        return v
    if not isinstance(v, TensorValue):
        raise TegiTypeError("df-normalize expects a scalar or tensor value")
    k = v.form_degree
    if k <= 1:
        return v
    m = len(v.indices)
    if len(set(v.shape[m:])) != 1:
        raise ShapeMismatchError("alternation needs form axes of equal dimension")
    if v.shape[m] < k:
        return TensorValue(v.shape, (ZERO,) * len(v.components), v.indices)
    scale = rational(1, math.factorial(k))
    signed = _signed_permutations(k)
    st, src = _strides(v.shape)[m:], v.components
    comps = [ZERO] * len(src)
    for b in range(0, len(src), v.shape[m] ** k):  # each marked block
        for idx in itertools.combinations(range(v.shape[m]), k):
            total = _alternating_sum(src, b, st, signed, idx)
            _alternate(comps, b, st, signed, idx, mul(total, scale))
    return TensorValue(v.shape, tuple(comps), v.indices)


def hodge_star(g_lower: TensorValue, g_upper: TensorValue):
    """The Hodge star against a metric and its inverse, as a function of a form:

        (*A)_{i_{k+1}..i_n} = sqrt|det g| ε_{i_1..i_n} A_{j_1..j_k} g^{i_1 j_1}..g^{i_k j_k}

    summed over repeated indices, with no 1/k! factor.  Only the increasing
    output tuples are summed; `_alternate` writes the rest.  For an output
    whose left-out indices are L, the sum is, by Cauchy–Binet,

        Σ_J det g^{L,J} · Σ_p sign(p) A_{J∘p}

    over increasing column tuples J and permutations p, for any A and any
    metric.  The metric is checked and √|det g| computed here, once.  The
    table for k-forms, √|det g| times each signed nonzero minor of g^{..},
    is built at the first k-form and kept, so a form costs only one
    alternating sum per marked block and J, shared by the outputs that need
    it, one product per nonzero (minor, alternating sum) pair, and the
    writes.  A zero minor or alternating sum is never multiplied.  Marked
    axes of A pass through unchanged, so matrix-valued forms star
    componentwise.
    """
    for g in (g_lower, g_upper):
        if not isinstance(g, TensorValue) or g.rank != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatchError("hodge star needs square metric matrices")
    n = g_lower.shape[0]
    if g_upper.shape[0] != n:
        raise ShapeMismatchError("metric and inverse metric disagree on dimension")
    scale = sqrt(abs_(det(g_lower)))
    rows = _nonzero_rows(g_upper)
    tables: dict = {}  # k -> the star's table for k-forms

    def table(k: int) -> tuple:
        if k not in tables:
            tables[k] = _star_table(n, k, scale, rows)
        return tables[k]

    # through the module's public `apply_star`, so a wrapper of the forms
    # layer's public functions sees each application
    return lambda a: apply_star(a, n, table)


def _star_table(n: int, k: int, scale: Expr, rows) -> tuple:
    """The star's table for k-forms: the outputs, each (rest, [(J, minor)])
    with √|det g| · det g^{lead,J} signed by ε at lead then rest, the column
    tuples J, the signed permutations of k and n - k indices, the strides."""
    outputs = []
    for rest in itertools.combinations(range(n), n - k):
        lead = [i for i in range(n) if i not in rest]
        odd_lead = sum(i > j for i in lead for j in rest) % 2
        minors = [(cols, neg(mi) if odd_lead else mi) for cols, mi in _minors(rows, lead)]
        outputs.append((rest, [(cols, mul(scale, mi)) for cols, mi in minors]))
    columns = {cols for _, minors in outputs for cols, _ in minors}
    orderings, signed = _signed_permutations(k), _signed_permutations(n - k)
    return outputs, columns, orderings, signed, _strides((n,) * k), _strides((n,) * (n - k))


def apply_star(a, n: int, table):
    """The Hodge star of the form a in dimension n, where table(k) is the
    star's table for k-forms (see `hodge_star`, which builds both)."""
    if isinstance(a, Expr):
        shape, marks, comps = (), (), (a,)
    elif isinstance(a, TensorValue):
        shape, marks, comps = a.shape, a.indices, a.components
    else:
        raise TegiTypeError("hodge star of a non-form value")
    m = len(marks)
    k = len(shape) - m
    if k > n:
        raise FormDegreeError("form degree exceeds the metric dimension")
    if any(d != n for d in shape[m:]):
        raise ShapeMismatchError("form axes must match the metric dimension")
    check_size(math.prod(shape[:m]) * n ** (n - k), "the Hodge star")
    outputs, columns, orderings, signed, st, out_st = table(k)
    out = []
    for b in range(0, len(comps), n**k):  # each marked block is n**k form components
        # J -> Σ_p sign(p) A_{J∘p} in this block
        alternating = {cols: _alternating_sum(comps, b, st, orderings, cols) for cols in columns}
        slots = [ZERO] * n ** (n - k)
        for rest, minors in outputs:
            total = _signed_sum(
                (mul(minor, alternating[cols]), 0)
                for cols, minor in minors
                if alternating[cols].terms
            )
            if total.terms:  # else the slots keep their ZERO
                _alternate(slots, 0, out_st, signed, rest, total)
        out.extend(slots)
    out_shape = shape[:m] + (n,) * (n - k)
    return TensorValue(out_shape, tuple(out), marks) if out_shape else out[0]
