"""Independent sympy references for the benchmark's workload programs.

sympy is used only here, as an oracle, outside every timed region.  Each
reference is the list of values the program prints, in order, as
(shape, row-major components).  `numeric` evaluates them at check points.
"""

from __future__ import annotations

import itertools
import math

import sympy as sp
from sympy.combinatorics import Permutation

t, r, th, ph, M, chi, a = sp.symbols("t r θ φ M χ a")
SYMBOLS = (t, r, th, ph, M, chi, a)


def schwarzschild_metric():
    f = 1 - 2 * M / r
    return (t, r, th, ph), sp.diag(-f, 1 / f, r**2, r**2 * sp.sin(th) ** 2)


def three_sphere_metric():
    s = sp.sin(chi) ** 2
    return (chi, th, ph), sp.diag(a**2, a**2 * s, a**2 * s * sp.sin(th) ** 2)


def _idx(n, rank):
    return list(itertools.product(range(n), repeat=rank))


def _flat(table: dict, n: int, rank: int):
    return ((n,) * rank, [table[i] for i in _idx(n, rank)])


def schwarzschild():
    """det g, Γ^i_jk, R^i_jkl and Ric_jl (= R^i_jil) of the Schwarzschild metric."""
    x, g = schwarzschild_metric()
    gi, n, d = g.inv(), len(x), sp.diff
    first = {
        (i, j, k): (d(g[i, k], x[j]) + d(g[i, j], x[k]) - d(g[j, k], x[i])) / 2
        for i, j, k in _idx(n, 3)
    }
    gam = {
        (i, j, k): sum(gi[i, m] * first[m, j, k] for m in range(n)) for i, j, k in _idx(n, 3)
    }
    riem = {
        (i, j, k, l): d(gam[i, j, l], x[k])
        - d(gam[i, j, k], x[l])
        + sum(gam[m, j, l] * gam[i, m, k] - gam[m, j, k] * gam[i, m, l] for m in range(n))
        for i, j, k, l in _idx(n, 4)
    }
    ric = {(j, l): sum(riem[i, j, i, l] for i in range(n)) for j, l in _idx(n, 2)}
    return [((), [g.det()]), _flat(gam, n, 3), _flat(riem, n, 4), _flat(ric, n, 2)]


def _alternate(form: dict, n: int, k: int) -> dict:
    """Antisymmetric part with 1/k!, as df-normalize defines it."""
    perms = [(p, Permutation(list(p)).signature()) for p in itertools.permutations(range(k))]
    return {
        idx: sum(s * form[tuple(idx[i] for i in p)] for p, s in perms) / math.factorial(k)
        for idx in _idx(n, k)
    }


def _levi(idx) -> int:
    if len(set(idx)) < len(idx):
        return 0
    return Permutation(list(idx)).signature()


def _hodge(form: dict, n: int, k: int, gi, vol) -> dict:
    """Hodge star in forms.hodge's convention, with no 1/k! factor.

    Raise every index first, then contract with ε on the leading slots:
    (*A)_{rest} = vol Σ ε_{is rest} A^{is}.
    """
    raised = {
        is_: sum(
            form[js] * sp.Mul(*(gi[i, j] for i, j in zip(is_, js))) for js in _idx(n, k)
        )
        for is_ in _idx(n, k)
    }
    return {
        rest: vol * sum(_levi(is_ + rest) * raised[is_] for is_ in _idx(n, k))
        for rest in _idx(n, n - k)
    }


def _forms(metric, pa, pb, scalar):
    """F = alt(dA), alt(A∧B), V = alt(F∧B), then *scalar, *A, *F, *V and **F."""
    x, g = metric
    gi, n = g.inv(), len(x)
    vol = sp.sqrt(sp.Abs(g.det()))
    f = _alternate({(i, j): sp.diff(pa[j], x[i]) for i, j in _idx(n, 2)}, n, 2)
    w = _alternate({(i, j): pa[i] * pb[j] for i, j in _idx(n, 2)}, n, 2)
    v = _alternate({(i, j, k): f[i, j] * pb[k] for i, j, k in _idx(n, 3)}, n, 3)
    star_f = _hodge(f, n, 2, gi, vol)
    return [
        _flat(f, n, 2),
        _flat(w, n, 2),
        _flat(v, n, 3),
        _flat(_hodge({(): scalar}, n, 0, gi, vol), n, n),
        _flat(_hodge({(i,): pa[i] for i in range(n)}, n, 1, gi, vol), n, n - 1),
        _flat(star_f, n, n - 2),
        _flat(_hodge(v, n, 3, gi, vol), n, n - 3),
        _flat(_hodge(star_f, n, n - 2, gi, vol), n, 2),
    ]


def hodge4():
    return _forms(
        schwarzschild_metric(),
        [M / r, t * sp.sin(th), r * sp.cos(th), r**2 * sp.sin(th) ** 2],
        [1, 1 / r, th, t * sp.cos(th)],
        M * r,
    )


def hodge3():
    return _forms(
        three_sphere_metric(),
        [a * sp.cos(chi), chi * sp.sin(th), sp.sin(chi) ** 2 * sp.cos(th)],
        [1, 1 / a, ph * sp.cos(th)],
        a * chi,
    )


REFERENCES = {"schwarzschild": schwarzschild, "hodge4": hodge4, "hodge3": hodge3}


def numeric(reference, points):
    """[(shape, [[value at each point] per component])] for a reference list."""
    flat = [c for _, comps in reference for c in comps]
    fn = sp.lambdify(SYMBOLS, flat, modules="math")
    at_points = [fn(*(p[s.name] for s in SYMBOLS)) for p in points]
    out, pos = [], 0
    for shape, comps in reference:
        out.append((shape, [[vals[pos + i] for vals in at_points] for i in range(len(comps))]))
        pos += len(comps)
    return out
