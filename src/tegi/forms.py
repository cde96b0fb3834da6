"""Differential-forms toolkit: alternation, determinant, Hodge star.

A k-form here is any value whose trailing unmarked axes hold the form slots;
marked leading axes ride along untouched, which is what makes matrix-valued
forms (curvature, connection coefficients) work with no extra machinery.
The wedge product and exterior derivative are prelude definitions.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    DomainError,
    FormDegreeError,
    ShapeMismatchError,
    TegiTypeError,
)
from .symexpr import ZERO, Expr, abs_, add, integer, mul, rational, sqrt
from .tensor import TensorValue, _strides, _view

__all__ = [
    "det",
    "df_normalize",
    "df_order",
    "hodge",
    "levi_civita",
]


def df_order(v) -> int:
    """Degree of a value as a differential form (unmarked trailing axes)."""
    if isinstance(v, TensorValue):
        return v.form_degree
    if isinstance(v, Expr):
        return 0
    raise TegiTypeError("df-order expects a scalar or tensor value")


def _perm_sign(p) -> int:
    """Sign of a sequence as a permutation; 0 when entries repeat."""
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] == p[j]:
                return 0
            if p[i] > p[j]:
                sign = -sign
    return sign


def levi_civita(n: int) -> TensorValue:
    """The rank-n alternating symbol as an unmarked tensor."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("levi-civita needs a positive integer dimension")
    comps = tuple(
        integer(_perm_sign(c)) for c in itertools.product(range(n), repeat=n)
    )
    return TensorValue((n,) * n, comps, ())


def det(m) -> Expr:
    """Leibniz-formula determinant of a square rank-2 tensor (marks ignored).

    Permutations that meet a structurally zero entry contribute nothing and
    are skipped; the others are summed in permutation order.
    """
    if not isinstance(m, TensorValue) or m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError("determinant needs a square matrix")
    n = m.shape[0]
    total = ZERO
    for p in itertools.permutations(range(n)):
        factors = [m.components[i * n + p[i]] for i in range(n)]
        if ZERO not in factors:
            total = add(total, mul(integer(_perm_sign(p)), *factors))
    return total


def df_normalize(v):
    """Project the form axes onto their antisymmetric part (1/k! alternation)."""
    if not isinstance(v, TensorValue):
        return v
    k = v.form_degree
    if k <= 1:
        return v
    m = len(v.indices)
    dims = set(v.shape[m:])
    if len(dims) != 1:
        raise ShapeMismatchError("alternation needs form axes of equal dimension")
    scale = rational(1, math.factorial(k))
    perms = list(itertools.permutations(range(k)))
    signs = [integer(_perm_sign(p)) for p in perms]
    # Output form axis p[q] reads source form axis q.
    st = _strides(v.shape)
    views = [
        _view(v.components, v.shape, st[:m] + tuple(st[m + p.index(r)] for r in range(k)))
        for p in perms
    ]
    comps = []
    for column in zip(*views):
        total = ZERO
        for sign, c in zip(signs, column):
            total = add(total, mul(sign, c))
        comps.append(mul(total, scale))
    return TensorValue(v.shape, tuple(comps), v.indices)


def hodge(a, g_lower: TensorValue, g_upper: TensorValue):
    """Hodge star of a k-form against a metric and its inverse.

    (*A)_{i_{k+1}..i_n} = sqrt|det g| ε_{i_1..i_n} A_{j_1..j_k} g^{i_1 j_1}..g^{i_k j_k}

    summed over repeated indices, with no 1/k! factor.  Marked axes of A pass
    through unchanged, so matrix-valued forms star componentwise.  Products
    with a structurally zero factor (a form component or metric entry with no
    terms) are skipped, as in `det`.
    """
    for g in (g_lower, g_upper):
        if not isinstance(g, TensorValue) or g.rank != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatchError("hodge star needs square metric matrices")
    n = g_lower.shape[0]
    if g_upper.shape[0] != n:
        raise ShapeMismatchError("metric and inverse metric disagree on dimension")
    if isinstance(a, Expr):
        k, marks, marked_shape, form_shape, comps = 0, (), (), (), (a,)
    elif isinstance(a, TensorValue):
        k = a.form_degree
        m = len(a.indices)
        marks, marked_shape, form_shape = a.indices, a.shape[:m], a.shape[m:]
        comps = a.components
    else:
        raise TegiTypeError("hodge star of a non-form value")
    if k > n:
        raise FormDegreeError("form degree exceeds the metric dimension")
    if any(d != n for d in form_shape):
        raise ShapeMismatchError("form axes must match the metric dimension")
    scale = sqrt(abs_(det(g_lower)))
    gup = [[g_upper.components[i * n + j] for j in range(n)] for i in range(n)]
    size = n**k  # form components per marked block, contiguous in row-major order
    out = []
    for b in range(0, len(comps), size):
        block = comps[b : b + size]
        for rest in itertools.product(range(n), repeat=n - k):
            total = ZERO
            for is_ in itertools.product(range(n), repeat=k):
                sign = _perm_sign(is_ + rest)
                if not sign:
                    continue
                e = integer(sign)
                for js, c in zip(itertools.product(range(n), repeat=k), block):
                    factors = [c, *(gup[im][jm] for im, jm in zip(is_, js))]
                    if ZERO not in factors:
                        total = add(total, mul(e, *factors))
            out.append(mul(scale, total) if total.terms else ZERO)
    out_shape = marked_shape + (n,) * (n - k)
    if not out_shape:
        return out[0]
    return TensorValue(out_shape, tuple(out), marks)
