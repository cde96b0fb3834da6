"""Acceptance gate: end-to-end checks of the whole engine.

Numeric oracles are independent loop-nest implementations built on
sympy; nothing here reuses the engine's own derivative or contraction
machinery to produce an expected value.
"""

import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

from tegi.application import SCALAR, apply_with_kinds
from tegi.errors import (
    IndexArityError,
    ShapeMismatchError,
    TegiTypeError,
    UnboundVariableError,
)
from tegi.evaluator import Interpreter, format_value
from tegi.forms import df_normalize
from tegi.symexpr import add, cos, evaluate_at, integer, mul, sin, symbol
from tegi.tensor import (
    IndexMark,
    Sym,
    TensorValue,
    attach_indices,
    flip_indices,
)

from oracles import exterior_d

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"

# (r, θ): the stated point plus four seeded random non-singular ones
_rng = random.Random(20260815)
SAMPLE_POINTS = [(2.0, 0.7)] + [
    (_rng.uniform(0.5, 3.0), _rng.uniform(0.3, 2.8)) for _ in range(4)
]


def ev(src):
    return Interpreter().eval_source(src)[-1]


def show(src):
    return format_value(ev(src))


def tegi_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "tegi.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


# ------------------------------------------------------------------ 1


class TestGoldenCorpus:
    """Criterion 1: the worked examples reproduce byte-for-byte."""

    BLOCKS = [
        # six index-reduction examples
        ("[|[|11 12 13|] [|21 22 23|] [|31 32 33|]|]_i_i", "[|11 22 33|]_i"),
        (
            "[|[|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|]|]~i~j~i",
            "[|[|1 3|] [|6 8|]|]~i~j",
        ),
        ("[|[|11 12 13|] [|21 22 23|] [|31 32 33|]|]~i_i", "[|11 22 33|]~_i"),
        ("[|[|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|]|]~i~i_i", "[|1 8|]~_i"),
        (
            "[|[|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|]|]_i_j_i",
            "[|[|1 3|] [|6 8|]|]_i_j",
        ),
        ("[|[|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|]|]_i_i_i", "[|1 8|]_i"),
        # contraction of a supersubscript
        ("(contract + [|11 22 33|]~_i)", "66"),
        # the three "." applications
        ("(. [|1 2 3|]~i [|10 20 30|]_i)", "140"),
        (
            "(. [|1 2 3|]_i [|10 20 30|]_j)",
            "[|[|10 20 30|] [|20 40 60|] [|30 60 90|]|]_i_j",
        ),
        ("(. [|1 2 3|]_i [|10 20 30|]_i)", "[|10 40 90|]_i"),
        # the two min applications
        ("(min [|1 2 3|]_i [|10 20 30|]_j)", "[|[|1 1 1|] [|2 2 2|] [|3 3 3|]|]_i_j"),
        ("(min [|1 2 3|]_i [|10 20 30|]_i)", "[|1 2 3|]_i"),
        # the two ∂/∂ polar-coordinate results, with their mark lists
        (
            "(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j)",
            "[|[|(sin θ) (* r (cos θ))|] [|(cos θ) (* -1 r (sin θ))|]|]_i~j",
        ),
        (
            "(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_i)",
            "[|(sin θ) (* -1 r (sin θ))|]~_i",
        ),
        # with-symbols transpose
        ("(with-symbols {j} [|[|1 2|] [|3 4|]|]_j_i)", "[|[|1 3|] [|2 4|]|]_i"),
    ]

    @pytest.mark.parametrize("src,want", BLOCKS, ids=range(len(BLOCKS)))
    def test_block(self, src, want):
        assert show(src) == want

    def test_corpus_checker_passes(self):
        r = tegi_cli("check", str(CORPUS))
        assert r.returncode == 0, r.stdout + r.stderr
        assert "0 failed" in r.stdout


# ------------------------------------------------------------------ 2


class TestDocumentedDiscrepancy:
    """Criterion 2: the with-symbols contraction is 140, and the repo
    documents why an inline annotation of 60 cannot be right."""

    SRC = "(with-symbols {i} (contract + (* [|1 2 3|]~i [|10 20 30|]_i)))"

    def test_value_is_140(self):
        assert show(self.SRC) == "140"

    def test_readme_documents_it(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "140" in text
        assert "10 + 40 + 90" in text

    def test_corpus_documents_it(self):
        text = (CORPUS / "with_symbols.tegi").read_text(encoding="utf-8")
        assert ";=> 140" in text


# ------------------------------------------------------------------ 3, 4, 5


def _loop_curvature(g, x, tidy=lambda e: e):
    """Loop-nest (Table/Sum style) Christoffel symbols Γ^i_jk and Riemann
    tensor R^i_jkl of the metric g in coordinates x; tidy maps each entry."""
    ginv = g.inv()
    n = len(x)
    gamma = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = sp.Integer(0)
                for m in range(n):
                    total += ginv[i, m] * (
                        sp.diff(g[m, k], x[j])
                        + sp.diff(g[m, j], x[k])
                        - sp.diff(g[j, k], x[m])
                    )
                gamma[i][j][k] = tidy(total / 2)
    riem = [[[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = sp.diff(gamma[i][j][l], x[k]) - sp.diff(gamma[i][j][k], x[l])
                    for m in range(n):
                        total += (
                            gamma[m][j][l] * gamma[i][m][k]
                            - gamma[m][j][k] * gamma[i][m][l]
                        )
                    riem[i][j][k][l] = tidy(total)
    return gamma, riem


def _sympy_s2():
    r, th = sp.symbols("r theta", positive=True)
    ph = sp.Symbol("phi")
    g = sp.Matrix([[r**2, 0], [0, r**2 * sp.sin(th) ** 2]])
    gamma, riem = _loop_curvature(g, [th, ph], sp.simplify)
    return (r, th), gamma, riem


@pytest.fixture(scope="module")
def oracle():
    return _sympy_s2()


@pytest.fixture(scope="module")
def sphere():
    interp = Interpreter()
    interp.eval_source((CORPUS / "riemann_s2.tegi").read_text(encoding="utf-8"))
    return interp


def numeric(interp, src, rv, tv):
    e = interp.eval_source(src)[-1]
    return evaluate_at(e, {"r": rv, "θ": tv, "φ": 0.25})


class TestChristoffelNumerics:
    """Criterion 3: engine Christoffel symbols match the closed forms and
    the sympy loop-nest oracle at five sample points."""

    def test_closed_forms(self, sphere):
        for rv, tv in SAMPLE_POINTS:
            got = numeric(sphere, "Γ~1_2_2", rv, tv)
            assert abs(got + math.sin(tv) * math.cos(tv)) < 1e-9
            got = numeric(sphere, "Γ~2_1_2", rv, tv)
            assert abs(got - math.cos(tv) / math.sin(tv)) < 1e-9

    def test_symmetry(self, sphere):
        for rv, tv in SAMPLE_POINTS:
            a = numeric(sphere, "Γ~2_1_2", rv, tv)
            b = numeric(sphere, "Γ~2_2_1", rv, tv)
            assert abs(a - b) < 1e-9

    def test_remaining_components_vanish(self, sphere):
        for rv, tv in SAMPLE_POINTS:
            for slot in ("1_1_1", "1_1_2", "1_2_1", "2_1_1", "2_2_2"):
                assert abs(numeric(sphere, f"Γ~{slot}", rv, tv)) < 1e-9

    def test_against_oracle(self, sphere, oracle):
        (r, th), gamma, _ = oracle
        for rv, tv in SAMPLE_POINTS:
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        want = float(gamma[i - 1][j - 1][k - 1].subs({r: rv, th: tv}))
                        got = numeric(sphere, f"Γ~{i}_{j}_{k}", rv, tv)
                        assert abs(got - want) < 1e-9


class TestRiemannNumerics:
    """Criterion 4: the direct curvature formula agrees with its oracle."""

    def test_sectional_component(self, sphere):
        for rv, tv in SAMPLE_POINTS:
            got = numeric(sphere, "R~1_2_1_2", rv, tv)
            assert abs(got - math.sin(tv) ** 2) < 1e-9

    def test_all_slots_against_oracle(self, sphere, oracle):
        (r, th), _, riem = oracle
        for rv, tv in SAMPLE_POINTS:
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        for l in (1, 2):
                            want = float(
                                riem[i - 1][j - 1][k - 1][l - 1].subs({r: rv, th: tv})
                            )
                            got = numeric(sphere, f"R~{i}_{j}_{k}_{l}", rv, tv)
                            assert abs(got - want) < 1e-9


class TestCurvatureFormRoute:
    """Criterion 5: 2·Ω^i_j[k,l] equals R^i_jkl, and Ω is antisymmetric."""

    def test_doubled_form_equals_riemann(self, sphere):
        for rv, tv in SAMPLE_POINTS:
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        for l in (1, 2):
                            om = numeric(sphere, f"Ω~{i}_{j}_{k}_{l}", rv, tv)
                            rr = numeric(sphere, f"R~{i}_{j}_{k}_{l}", rv, tv)
                            assert abs(2 * om - rr) < 1e-9

    def test_exact_antisymmetry(self, sphere):
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    for l in (1, 2):
                        s = sphere.eval_source(
                            f"(+ Ω~{i}_{j}_{k}_{l} Ω~{i}_{j}_{l}_{k})"
                        )[-1]
                        assert format_value(s) == "0"


SCHWARZSCHILD = """
(define $x [| t r θ φ |])
(define $g__
  [| [| (+ -1 (/ (* 2 M) r)) 0 0 0 |]
     [| 0 (/ 1 (- 1 (/ (* 2 M) r))) 0 0 |]
     [| 0 0 r^2 0 |]
     [| 0 0 0 (* r^2 (sin θ)^2) |] |])
(define $g~~
  [| [| (/ 1 (+ -1 (/ (* 2 M) r))) 0 0 0 |]
     [| 0 (- 1 (/ (* 2 M) r)) 0 0 |]
     [| 0 0 (/ 1 r^2) 0 |]
     [| 0 0 0 (/ 1 (* r^2 (sin θ)^2)) |] |])
(define $Γ_i_j_k
  (* (/ 1 2)
     (+ (∂/∂ g_i_k x~j)
        (∂/∂ g_i_j x~k)
        (* -1 (∂/∂ g_j_k x~i)))))
(define $Γ~i_j_k (with-symbols {m} (. g~i~m Γ_m_j_k)))
(define $R~i_j_k_l
  (with-symbols {m}
    (+ (- (∂/∂ Γ~i_j_l x~k) (∂/∂ Γ~i_j_k x~l))
       (- (. Γ~m_j_l Γ~i_m_k) (. Γ~m_j_k Γ~i_m_l)))))
R~i_j_k_l
(contract + R~i_j_i_l)
"""

# (M, r, θ) with r > 2M, away from the poles
SCHWARZSCHILD_POINTS = [(1.0, 7.0, 0.7), (0.5, 1.3, 2.1), (2.0, 4.5, 1.2)]


@pytest.fixture(scope="module")
def schwarzschild():
    return Interpreter().eval_source(SCHWARZSCHILD)


class TestSchwarzschild:
    """4-D vacuum metric: the Riemann tensor of the paper's definition
    matches the loop-nest oracle, and its Ricci contraction vanishes."""

    def test_ricci_vanishes(self, schwarzschild):
        ric = schwarzschild[-1]
        assert ric.shape == (4, 4)
        for m, rv, tv in SCHWARZSCHILD_POINTS:
            for c in ric.components:
                assert abs(evaluate_at(c, {"M": m, "r": rv, "θ": tv})) < 1e-9

    def test_riemann_against_oracle(self, schwarzschild):
        t, r, th, ph, M = sp.symbols("t r theta phi M")
        f = 1 - 2 * M / r
        g = sp.diag(-f, 1 / f, r**2, r**2 * sp.sin(th) ** 2)
        _, riem = _loop_curvature(g, [t, r, th, ph])
        m, rv, tv = SCHWARZSCHILD_POINTS[0]
        point = {M: m, r: rv, th: tv}
        got = schwarzschild[-2]
        assert got.shape == (4, 4, 4, 4)
        for (i, j, k, l), c in zip(itertools.product(range(4), repeat=4), got.components):
            want = float(riem[i][j][k][l].subs(point))
            assert abs(evaluate_at(c, {"M": m, "r": rv, "θ": tv}) - want) < 1e-9


# ------------------------------------------------------------------ 6


CASES = 1000


def rand_tensor(rng, dim, rank):
    comps = tuple(integer(rng.randint(-9, 9)) for _ in range(dim**rank))
    return TensorValue((dim,) * rank, comps)


def rand_marks(rng, rank, labels=("i", "j", "k")):
    return tuple(
        IndexMark(rng.choice((1, -1)), Sym(rng.choice(labels))) for _ in range(rank)
    )


class TestProperties:
    """Criterion 6: six randomized suites, 1000 cases each."""

    def test_reduce_idempotent(self):
        rng = random.Random(101)
        for _ in range(CASES):
            t = rand_tensor(rng, rng.randint(2, 4), rng.randint(1, 3))
            marked = TensorValue(t.shape, t.components, rand_marks(rng, t.rank))
            once = attach_indices(marked, ())
            assert attach_indices(once, ()) == once

    def test_variance_flip_symmetry(self):
        # reduction only compares labels, so superscripts and subscripts
        # reduce the same way up to mark variance
        rng = random.Random(202)
        for _ in range(CASES):
            t = rand_tensor(rng, rng.randint(2, 4), rng.randint(1, 3))
            marks = rand_marks(rng, t.rank)
            flipped = tuple(IndexMark(-m.variance, m.label) for m in marks)
            a = attach_indices(TensorValue(t.shape, t.components, marks), ())
            b = attach_indices(TensorValue(t.shape, t.components, flipped), ())
            assert a.components == b.components
            assert all(
                ma.label == mb.label and ma.variance == -mb.variance
                for ma, mb in zip(a.indices, b.indices)
            )

    def test_scalar_application_shared_index(self):
        # a_i * b_i is the componentwise (diagonal) product
        rng = random.Random(303)
        for _ in range(CASES):
            d = rng.randint(2, 4)
            a, b = rand_tensor(rng, d, 1), rand_tensor(rng, d, 1)
            am = attach_indices(a, [IndexMark(-1, Sym("i"))])
            bm = attach_indices(b, [IndexMark(-1, Sym("i"))])
            got = apply_with_kinds(mul, [SCALAR, SCALAR], [am, bm])
            want = tuple(mul(a.components[c], b.components[c]) for c in range(d))
            assert got.shape == (d,) and got.components == want

    def test_scalar_application_distinct_indices(self):
        # a_i * b_j is the outer product, row-major over (i, j)
        rng = random.Random(404)
        for _ in range(CASES):
            da, db = rng.randint(2, 4), rng.randint(2, 4)
            a, b = rand_tensor(rng, da, 1), rand_tensor(rng, db, 1)
            am = attach_indices(a, [IndexMark(-1, Sym("i"))])
            bm = attach_indices(b, [IndexMark(-1, Sym("j"))])
            got = apply_with_kinds(mul, [SCALAR, SCALAR], [am, bm])
            want = tuple(
                mul(a.components[p], b.components[q])
                for p in range(da)
                for q in range(db)
            )
            assert got.shape == (da, db) and got.components == want

    def test_alternation_idempotent(self):
        rng = random.Random(505)
        for _ in range(CASES):
            t = rand_tensor(rng, rng.randint(2, 3), rng.randint(1, 3))
            once = df_normalize(t)
            assert df_normalize(once) == once

    def test_dd_zero_on_random_0_forms(self):
        rng = random.Random(606)
        th, ph = symbol("θ"), symbol("φ")
        coords = TensorValue((2,), (th, ph))
        for _ in range(CASES):
            f = integer(0)
            for _ in range(rng.randint(1, 3)):
                term = integer(rng.randint(-5, 5))
                for _ in range(rng.randint(0, 2)):
                    term = mul(term, rng.choice((th, ph, sin(th), cos(ph))))
                f = add(f, term)
            dd = df_normalize(exterior_d(exterior_d(f, coords), coords))
            assert all(not c.terms for c in dd.components)

    def test_flip_indices_involution(self):
        rng = random.Random(707)
        for _ in range(CASES):
            t = rand_tensor(rng, rng.randint(2, 4), rng.randint(1, 3))
            marked = TensorValue(t.shape, t.components, rand_marks(rng, t.rank))
            assert flip_indices(flip_indices(marked)) == marked


# ------------------------------------------------------------------ 7


EUCLID = """
(define $g__ [|[|1 0|] [|0 1|]|])
(define $g~~ [|[|1 0|] [|0 1|]|])
"""


class TestHodgeEuclidean:
    """Criterion 7: hodge in n=2 Euclidean space, symbolically."""

    def test_hodge_of_one_is_volume_form(self):
        assert show(EUCLID + "(hodge 1)") == "[|[|0 1|] [|-1 0|]|]"

    def test_hodge_of_1_form(self):
        assert show(EUCLID + "(hodge [|a b|])") == "[|(* -1 b) a|]"

    def test_hodge_twice_negates_1_forms(self):
        assert show(EUCLID + "(hodge (hodge [|a b|]))") == "[|(* -1 a) (* -1 b)|]"


# ------------------------------------------------------------------ 8


class TestErrorPaths:
    """Criterion 8: designated error classes in-process, nonzero CLI exits."""

    FAILING = {
        "over_indexing": ("[|1 2|]_i_j_k", IndexArityError),
        "repeated_symbol_dim_mismatch": (
            "[|[|1 2 3|] [|4 5 6|]|]_i_i",
            ShapeMismatchError,
        ),
        "derivative_by_non_symbol": ("(derivative r 2)", TegiTypeError),
        "signature_mismatch_lookup": (
            "(define $g__ [|[|1 0|] [|0 1|]|])\ng~i_j",
            UnboundVariableError,
        ),
    }

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_error_class(self, name):
        src, err = self.FAILING[name]
        with pytest.raises(err):
            Interpreter().eval_source(src)

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_nonzero_exit(self, name, tmp_path):
        src, _ = self.FAILING[name]
        f = tmp_path / "err.tegi"
        f.write_text(src + "\n", encoding="utf-8")
        r = tegi_cli("run", str(f))
        assert r.returncode != 0
        assert "error" in r.stderr
