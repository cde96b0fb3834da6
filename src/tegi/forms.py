"""Differential-forms toolkit: alternation, determinant, Hodge star.

A k-form here is any value whose trailing unmarked axes hold the form slots;
marked leading axes ride along untouched, which is what makes matrix-valued
forms (curvature, connection coefficients) work with no extra machinery.
The wedge product and exterior derivative are prelude definitions.
"""

from __future__ import annotations

import itertools
import math

from .errors import DomainError, FormDegreeError, ShapeMismatchError, TegiTypeError
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


def _signed_permutations(n: int) -> list:
    """Each permutation of range(n), in lexicographic order, with its sign."""
    out = []
    for p in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        out.append((p, integer(-1 if inversions % 2 else 1)))
    return out


def levi_civita(n: int) -> TensorValue:
    """The rank-n alternating symbol as an unmarked tensor."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("levi-civita needs a positive integer dimension")
    shape = (n,) * n
    st = _strides(shape)
    comps = [ZERO] * n**n
    for p, sign in _signed_permutations(n):
        comps[sum(i * s for i, s in zip(p, st))] = sign
    return TensorValue(shape, tuple(comps), ())


def det(m) -> Expr:
    """Leibniz-formula determinant of a square rank-2 tensor (marks ignored).

    Permutations that meet a structurally zero entry contribute nothing and
    are skipped; the others are summed in one addition.
    """
    if not isinstance(m, TensorValue) or m.rank != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError("determinant needs a square matrix")
    n = m.shape[0]
    terms = []
    for p, sign in _signed_permutations(n):
        factors = [m.components[i * n + j] for i, j in enumerate(p)]
        if ZERO not in factors:
            terms.append(mul(sign, *factors))
    return add(*terms)


def df_normalize(v):
    """Project the form axes onto their antisymmetric part (1/k! alternation)."""
    if not isinstance(v, TensorValue):
        return v
    k = v.form_degree
    if k <= 1:
        return v
    m = len(v.indices)
    if len(set(v.shape[m:])) != 1:
        raise ShapeMismatchError("alternation needs form axes of equal dimension")
    scale = rational(1, math.factorial(k))
    signed = _signed_permutations(k)
    # Output form axis r reads source form axis p[r]; p and its inverse have
    # the same sign, so this sums the same terms as the textbook p^-1 form.
    st = _strides(v.shape)
    views = [_view(v.components, v.shape, st[:m] + tuple(st[m + q] for q in p)) for p, _ in signed]
    comps = tuple(
        mul(add(*[mul(sign, c) for (_, sign), c in zip(signed, column)]), scale)
        for column in zip(*views)
    )
    return TensorValue(v.shape, comps, v.indices)


def hodge(a, g_lower: TensorValue, g_upper: TensorValue):
    """Hodge star of a k-form against a metric and its inverse.

    (*A)_{i_{k+1}..i_n} = sqrt|det g| ε_{i_1..i_n} A_{j_1..j_k} g^{i_1 j_1}..g^{i_k j_k}

    summed over repeated indices, with no 1/k! factor.  Only the n! index
    tuples where ε is nonzero are visited: for a permutation p, p[:k] raises
    the form indices and p[k:] names the output component.  Marked axes of A
    pass through unchanged, so matrix-valued forms star componentwise.
    Products with a structurally zero factor (a form component or metric
    entry with no terms) are skipped, as in `det`.
    """
    for g in (g_lower, g_upper):
        if not isinstance(g, TensorValue) or g.rank != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatchError("hodge star needs square metric matrices")
    n = g_lower.shape[0]
    if g_upper.shape[0] != n:
        raise ShapeMismatchError("metric and inverse metric disagree on dimension")
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
    scale = sqrt(abs_(det(g_lower)))
    gu = g_upper.components
    signed = _signed_permutations(n)
    js_all = list(itertools.product(range(n), repeat=k))
    out_st = _strides((n,) * (n - k))
    out = []
    for b in range(0, len(comps), n**k):  # each marked block is n**k form components
        block = comps[b : b + n**k]
        terms = [[] for _ in range(n ** (n - k))]
        for p, sign in signed:
            slot = terms[sum(i * s for i, s in zip(p[k:], out_st))]
            for js, c in zip(js_all, block):
                factors = [c, *(gu[i * n + j] for i, j in zip(p, js))]
                if ZERO not in factors:
                    slot.append(mul(sign, *factors))
        for ts in terms:
            total = add(*ts)
            out.append(mul(scale, total) if total.terms else ZERO)
    out_shape = shape[:m] + (n,) * (n - k)
    return TensorValue(out_shape, tuple(out), marks) if out_shape else out[0]
