"""Random diagonal metrics: the engine's curvature against a sympy oracle.

Each case draws a diagonal metric of dimension 2, 3 or 4 whose entries are
products of coordinate powers, (sin c)^2, the Schwarzschild factor
1 - 2M/c and a parameter a.  The program writes g~~ as (/ 1 entry) and
defines Γ, Γ~ and R as `tests/corpus/riemann_s2.tegi` does and Ric as
`bench/programs/schwarzschild.tegi` does.  Every component is compared at
seeded points with `oracles.curvature_ref`, and four identities are checked
to be exactly zero with `oracles.evaluate_mod`: R~i_j_k_l + R~i_j_l_k, the
first Bianchi sum, Ric_j_l - Ric_l_j, and g_i_m Γ~m_j_k - Γ_i_j_k.
"""

import itertools
import math
import random

import sympy as sp
from hypothesis import example, given, settings, strategies as st

from tegi.evaluator import Interpreter
from tegi.symexpr import add, evaluate_at, mul, sub

from oracles import curvature_ref, evaluate_mod

COORDS = ("u", "v", "w", "t")
PARAMS = ("M", "a")
SYMBOLS = {name: sp.Symbol(name) for name in COORDS + PARAMS}
POINTS = 2
SEEDS = (0, 1)

PROGRAM = """
(define $x [| {coords} |])
(define $g__ {lower})
(define $g~~ {upper})
(define $Γ_i_j_k
  (* (/ 1 2)
     (+ (∂/∂ g_i_k x~j)
        (∂/∂ g_i_j x~k)
        (* -1 (∂/∂ g_j_k x~i)))))
(define $Γ~i_j_k (with-symbols {{m}} (. g~i~m Γ_m_j_k)))
(define $R~i_j_k_l
  (with-symbols {{m}}
    (+ (- (∂/∂ Γ~i_j_l x~k) (∂/∂ Γ~i_j_k x~l))
       (- (. Γ~m_j_l Γ~i_m_k) (. Γ~m_j_k Γ~i_m_l)))))
(define $Ric_j_l (contract + R~i_j_i_l))
g_i_j
Γ_i_j_k
Γ~i_j_k
R~i_j_k_l
Ric_j_l
"""


def factor(kind: str, name: str) -> tuple:
    """One factor of a diagonal entry on the coordinate `name`: tegi, sympy."""
    c, M, a = SYMBOLS[name], SYMBOLS["M"], SYMBOLS["a"]
    return {
        "power": (f"{name}^2", c**2),
        "coordinate": (name, c),
        "sin": (f"(sin {name})^2", sp.sin(c) ** 2),
        "horizon": (f"(- 1 (/ (* 2 M) {name}))", 1 - 2 * M / c),
        "parameter": ("a", a),
    }[kind]


FACTORS = st.tuples(
    st.sampled_from(["power", "coordinate", "sin", "horizon", "parameter"]),
    st.sampled_from(COORDS),
)
# the diagonal entries of a metric of dimension 2, 3 or 4, each a product of
# one or two (kind, coordinate) factors
METRICS = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(FACTORS, min_size=1, max_size=2), min_size=n, max_size=n)
)


def entry(factors: list) -> tuple:
    """A diagonal entry, the product of its factors: tegi, sympy."""
    texts, exprs = zip(*(factor(kind, c) for kind, c in factors))
    text = texts[0] if len(texts) == 1 else f"(* {' '.join(texts)})"
    return text, sp.Mul(*exprs)


def matrix(diagonal: list[str]) -> str:
    n = len(diagonal)
    return rows([[e if i == j else "0" for j in range(n)] for i, e in enumerate(diagonal)])


def rows(entries: list[list[str]]) -> str:
    return "[| " + " ".join(f"[| {' '.join(row)} |]" for row in entries) + " |]"


def point(seed: int) -> dict:
    """Coordinates and a in [0.5, 1.5], M in [0.05, 0.1]: 1 - 2M/c stays above 0.6."""
    rng = random.Random(seed)
    return {
        **{name: rng.uniform(0.5, 1.5) for name in COORDS + ("a",)},
        "M": rng.uniform(0.05, 0.1),
    }


def is_zero(e) -> bool:
    return all(evaluate_mod(e, s) == 0 for s in SEEDS)


@settings(max_examples=8, deadline=None)
@given(METRICS)
@example([[("power", "u")], [("power", "u"), ("sin", "v")]])  # the 2-sphere of radius u
@example([[("horizon", "u")], [("power", "u")], [("power", "u"), ("sin", "v")]])
@example([[("parameter", "u"), ("horizon", "v")], [("coordinate", "u"), ("coordinate", "w")],
          [("sin", "w")]])
# 4-D: 1 - 2M/u, the 2-sphere of radius u, and an entry that varies along its own t
@example([[("horizon", "u")], [("power", "u")], [("power", "u"), ("sin", "v")],
          [("horizon", "u"), ("coordinate", "t")]])
def test_curvature_of_a_diagonal_metric_matches_sympy(diagonal):
    texts, exprs = zip(*map(entry, diagonal))
    check_curvature(matrix(texts), matrix([f"(/ 1 {e})" for e in texts]), sp.diag(*exprs))


# A metric with one off-diagonal entry, M times one factor, in the block of
# coordinates p < q.  Diagonal entries are single factors, at least 0.23 at
# the points, and the off-diagonal one is at most 0.15, so the block's
# determinant stays positive.
OFF_FACTORS = st.tuples(
    st.sampled_from(["coordinate", "sin", "horizon", "parameter"]), st.sampled_from(COORDS)
)
BLOCKS = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.lists(FACTORS, min_size=n, max_size=n),
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted),
        OFF_FACTORS,
    )
)


@settings(max_examples=3, deadline=None)
@given(BLOCKS)
@example(([("power", "u"), ("sin", "u")], [0, 1], ("parameter", "u")))
# 4-D: 1 - 2M/u, u^2, (sin v)^2 and t, with v and t mixed by M (1 - 2M/w)
@example(([("horizon", "u"), ("power", "u"), ("sin", "v"), ("coordinate", "t")], [2, 3],
          ("horizon", "w")))
def test_curvature_of_a_metric_with_an_off_diagonal_block_matches_sympy(case):
    diagonal, (p, q), off = case
    texts, exprs = zip(*(factor(kind, c) for kind, c in diagonal))
    off_text, off_expr = factor(*off)
    lower = [[texts[i] if i == j else "0" for j in range(len(texts))] for i in range(len(texts))]
    lower[p][q] = lower[q][p] = f"(* M {off_text})"
    g = sp.diag(*exprs)
    g[p, q] = g[q, p] = SYMBOLS["M"] * off_expr
    upper = [[tegi_text(e) for e in g.inv().row(i)] for i in range(g.rows)]
    check_curvature(rows(lower), rows(upper), g)


def tegi_text(e) -> str:
    """A sympy sum, product, integer power, sine, rational or symbol as tegi source."""
    if e.is_Symbol:
        return e.name
    if e.is_Integer:
        return str(e)
    if e.is_Rational:
        return f"(/ {e.p} {e.q})"
    if e.is_Add or e.is_Mul:
        return f"({'+' if e.is_Add else '*'} {' '.join(map(tegi_text, e.args))})"
    if e.is_Pow and e.exp.is_Integer:
        base, n = tegi_text(e.base), int(e.exp)
        power = base if abs(n) == 1 else f"(^ {base} {abs(n)})"
        return power if n > 0 else f"(/ 1 {power})"
    if isinstance(e, sp.sin):
        return f"(sin {tegi_text(e.args[0])})"
    raise ValueError(f"no tegi text for {e}")


def check_curvature(lower: str, upper: str, g_ref) -> None:
    """Run PROGRAM on the metric texts g__ and g~~; compare with curvature_ref
    of the sympy metric g_ref at the points, and check the four identities
    exactly."""
    n = g_ref.rows
    coords = COORDS[:n]
    text = PROGRAM.format(coords=" ".join(coords), lower=lower, upper=upper)
    g, *engine = Interpreter().eval_source(text)
    engine = [t.components for t in engine]

    reference = curvature_ref([SYMBOLS[c] for c in coords], g_ref)
    order = list(SYMBOLS.values())
    for mine, theirs in zip(engine, reference):
        at_point = sp.lambdify(order, theirs, modules="math")
        for seed in range(POINTS):
            at = point(seed)
            want = at_point(*(at[s.name] for s in order))
            for e, w in zip(mine, want):
                assert math.isclose(evaluate_at(e, at), w, rel_tol=1e-9, abs_tol=1e-9)

    first, second, riemann, ricci = (
        dict(zip(itertools.product(range(n), repeat=r), t))
        for r, t in zip((3, 3, 4, 2), engine)
    )
    metric = dict(zip(itertools.product(range(n), repeat=2), g.components))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        assert is_zero(add(riemann[i, j, k, l], riemann[i, j, l, k]))
        assert is_zero(add(riemann[i, j, k, l], riemann[i, k, l, j], riemann[i, l, j, k]))
    for j, l in itertools.product(range(n), repeat=2):
        assert is_zero(sub(ricci[j, l], ricci[l, j]))
    for i, j, k in itertools.product(range(n), repeat=3):
        lowered = add(*(mul(metric[i, m], second[m, j, k]) for m in range(n)))
        assert is_zero(sub(lowered, first[i, j, k]))
