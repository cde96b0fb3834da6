"""Tests for the exact symbolic scalar layer.

Expected values tagged in comments:
  [PAPER]   printed forms and derivatives shown in the worked examples
  [DERIVED] computed with an independent oracle (math module / by hand)
  [TRIVIAL] immediate from the definition
"""

import gc
import math
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tegi import evaluator, record, symexpr
from tegi.application import fresh_symbol
from tegi.errors import EvalError, TegiArithmeticError, TegiTypeError
from tegi.evaluator import Interpreter, format_value
from tegi.symexpr import (
    ONE,
    Expr,
    Fun,
    Inv,
    Sym,
    abs_,
    add,
    as_fraction,
    as_int,
    cos,
    differentiate,
    div,
    evaluate_at,
    format_expr,
    int_pow,
    integer,
    mul,
    neg,
    rational,
    sin,
    sqrt,
    sub,
    symbol,
)
from tegi.tensor import TensorValue

from oracles import (
    add_ref,
    atom_key_ref,
    canonicalize,
    differentiate_ref,
    div_ref,
    format_ref,
    int_pow_ref,
    mono_key_ref,
    mul_monos_ref,
    mul_ref,
    order_key_ref,
    structural_ref,
)

CORPUS = Path(__file__).parent / "corpus"

R = symbol("r")
TH = symbol("θ")
X = symbol("x")
Y = symbol("y")
A, B = symbol("a"), symbol("b")
INV_XY = div(integer(1), add(X, Y))  # kept as the atom 1/(x+y)


class TestCanonicalForm:
    def test_like_terms_merge(self):
        # x + x = 2x  [TRIVIAL]
        assert add(X, X) == mul(integer(2), X)

    def test_product_power_merge(self):
        # r*r - r^2 = 0  [TRIVIAL]
        assert sub(mul(R, R), int_pow(R, 2)) == integer(0)

    def test_rational_coefficients(self):
        assert mul(integer(2), rational(1, 2)) == integer(1)
        assert add(rational(1, 3), rational(1, 6)) == rational(1, 2)

    def test_canonicalize_idempotent(self):
        e = add(mul(R, sin(TH)), mul(integer(-1), mul(sin(TH), R)))
        assert canonicalize(e) == e
        assert e == integer(0)

    def test_unique_for_equal_polynomials(self):
        # (x+1)(x-1) = x^2 - 1  [TRIVIAL]
        lhs = mul(add(X, integer(1)), sub(X, integer(1)))
        rhs = sub(int_pow(X, 2), integer(1))
        assert lhs == rhs

    def test_association_order_irrelevant(self):
        a = add(add(X, Y), mul(X, Y))
        b = add(mul(Y, X), add(Y, X))
        assert a == b

    def test_no_trig_rewriting(self):
        # sin^2 + cos^2 stays a two-term sum (no identity rewriting)
        e = add(int_pow(sin(X), 2), int_pow(cos(X), 2))
        assert e != integer(1)
        assert abs(evaluate_at(e, {"x": 0.83}) - 1.0) < 1e-12

    def test_as_int(self):
        assert as_int(integer(7)) == 7
        assert as_int(rational(1, 2)) is None
        assert as_int(X) is None
        assert as_fraction(rational(3, 4)) is not None
        assert as_fraction(mul(R, R)) is None


class TestConstantFolding:
    def test_sqrt_of_perfect_square(self):
        assert sqrt(integer(4)) == integer(2)  # [TRIVIAL]
        assert sqrt(rational(1, 4)) == rational(1, 2)
        assert sqrt(integer(0)) == integer(0)
        assert sqrt(integer(1)) == integer(1)

    def test_sqrt_of_negative_constant(self):
        with pytest.raises(TegiArithmeticError):
            sqrt(integer(-4))

    def test_sqrt_symbolic_stays(self):
        e = sqrt(integer(2))
        assert as_fraction(e) is None  # kept as an exact atom
        assert abs(evaluate_at(e, {}) - math.sqrt(2)) < 1e-12

    def test_abs_folding(self):
        assert abs_(integer(-3)) == integer(3)
        assert abs_(rational(-1, 2)) == rational(1, 2)

    def test_trig_at_zero(self):
        assert sin(integer(0)) == integer(0)
        assert cos(integer(0)) == integer(1)


class TestDivision:
    def test_single_term_denominator(self):
        # 1/r^2 is an exact negative power  [TRIVIAL]
        e = div(integer(1), int_pow(R, 2))
        assert mul(e, int_pow(R, 2)) == integer(1)

    def test_self_division(self):
        assert div(mul(R, sin(TH)), mul(R, sin(TH))) == integer(1)

    def test_division_by_symbolic_zero(self):
        zero = sub(mul(R, R), int_pow(R, 2))
        with pytest.raises(TegiArithmeticError):
            div(integer(1), zero)

    def test_division_by_literal_zero(self):
        with pytest.raises(TegiArithmeticError):
            div(X, integer(0))

    def test_quotient_fallback_numeric(self):
        # 1/(x+1) kept opaque; (x+1) * 1/(x+1) still evaluates to 1  [DERIVED]
        q = div(integer(1), add(X, integer(1)))
        e = mul(q, add(X, integer(1)))
        assert abs(evaluate_at(e, {"x": 3.0}) - 1.0) < 1e-12

    def test_quotient_fallback_monic_scaling(self):
        # 1/(2x+2) = (1/2) * 1/(x+1): same canonical atom either way
        a = div(integer(1), add(mul(integer(2), X), integer(2)))
        b = mul(rational(1, 2), div(integer(1), add(X, integer(1))))
        assert a == b

    def test_cot_evaluates(self):
        # cot(0.7) = 1.1872418321266796  [DERIVED: math.cos(0.7)/math.sin(0.7)]
        e = div(cos(TH), sin(TH))
        assert abs(evaluate_at(e, {"θ": 0.7}) - 1.1872418321266796) < 1e-12

    @pytest.mark.parametrize(
        "num, den, want",
        [
            (integer(1), INV_XY, "(+ y x)"),
            (A, mul(B, INV_XY), "(+ (/ (* a y) b) (/ (* a x) b))"),
            (
                A,
                mul(B, int_pow(INV_XY, 2)),
                "(+ (/ (* a y^2) b) (/ (* a x^2) b) (/ (* 2 a x y) b))",
            ),
        ],
        ids=["reciprocal", "over-a-product", "over-a-square"],
    )
    def test_inverse_atom_in_the_denominator_expands(self, num, den, want):
        # a one-term denominator holding 1/(x+y) puts that atom at a negative
        # power, and the quotient expands it back into a polynomial  [DERIVED by hand]
        got = div(num, den)
        assert format_expr(got) == want
        assert got == div_ref(num, den)


class TestDifferentiate:
    def test_partial_theta(self):
        # d(r sin θ)/dθ = r cos θ  [PAPER]
        assert differentiate(mul(R, sin(TH)), TH) == mul(R, cos(TH))

    def test_partial_r(self):
        # d(r sin θ)/dr = sin θ  [PAPER]
        assert differentiate(mul(R, sin(TH)), R) == sin(TH)

    def test_second_component(self):
        # d(r cos θ)/dθ = -r sin θ  [PAPER]
        got = differentiate(mul(R, cos(TH)), TH)
        assert got == mul(integer(-1), mul(R, sin(TH)))

    def test_constant(self):
        assert differentiate(int_pow(R, 2), TH) == integer(0)  # [TRIVIAL]

    def test_power_rule(self):
        assert differentiate(int_pow(X, 3), X) == mul(integer(3), int_pow(X, 2))
        assert differentiate(int_pow(X, -1), X) == mul(integer(-1), int_pow(X, -2))

    def test_chain_rule(self):
        # d sin(x^2)/dx = 2x cos(x^2)  [DERIVED by hand]
        got = differentiate(sin(int_pow(X, 2)), X)
        assert got == mul(integer(2), mul(X, cos(int_pow(X, 2))))

    def test_sqrt_rule(self):
        # d sqrt(x)/dx = 1/(2 sqrt(x))  [DERIVED by hand]
        got = differentiate(sqrt(X), X)
        assert got == mul(rational(1, 2), int_pow(sqrt(X), -1))

    def test_quotient_rule_via_inverse(self):
        # d(cot θ)/dθ = -1 - cot^2 θ; checked numerically  [DERIVED]
        got = differentiate(div(cos(TH), sin(TH)), TH)
        want = -1.0 - (math.cos(0.7) / math.sin(0.7)) ** 2
        assert abs(evaluate_at(got, {"θ": 0.7}) - want) < 1e-9

    def test_abs_rejected(self):
        with pytest.raises(TegiTypeError):
            differentiate(abs_(X), X)

    def test_generated_symbol_is_its_own_variable(self):
        # x and a scope-fresh x are different variables at every depth  [TRIVIAL]
        fresh = symbol("x", 1)
        inner = add(X, mul(fresh, Y))
        assert differentiate(sin(inner), fresh) == mul(Y, cos(inner))
        assert differentiate(sqrt(add(X, Y)), fresh) == integer(0)

    def test_by_non_symbol(self):
        with pytest.raises(TegiTypeError):
            differentiate(X, integer(2))
        with pytest.raises(TegiTypeError):
            differentiate(X, mul(X, Y))


class TestEvaluateAt:
    def test_polar_point(self):
        # r sin θ at r=2, θ=π/2 -> 2.0  [PAPER]
        v = evaluate_at(mul(R, sin(TH)), {"r": 2.0, "θ": math.pi / 2})
        assert abs(v - 2.0) < 1e-12
        assert evaluate_at(abs_(sub(X, integer(1))), {"x": -2.0}) == 3.0

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            evaluate_at(mul(R, sin(TH)), {"r": 2.0})

    def test_negative_power_at_zero(self):
        with pytest.raises(TegiArithmeticError):
            evaluate_at(int_pow(X, -2), {"x": 0.0})
        with pytest.raises(TegiArithmeticError, match="division by zero"):  # an inverse atom
            evaluate_at(div(ONE, add(X, Y)), {"x": 1.0, "y": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(TegiArithmeticError):
            evaluate_at(sqrt(X), {"x": -1.0})


class TestPrinting:
    def test_printed_forms(self):
        # all four [PAPER] scalar prints from the polar-derivative figures
        assert str(sin(TH)) == "(sin θ)"
        assert str(cos(TH)) == "(cos θ)"
        assert str(mul(R, cos(TH))) == "(* r (cos θ))"
        assert str(mul(integer(-1), mul(R, sin(TH)))) == "(* -1 r (sin θ))"

    def test_integers_and_rationals(self):
        assert str(integer(66)) == "66"
        assert str(integer(-3)) == "-3"
        assert str(rational(1, 2)) == "(/ 1 2)"
        assert str(rational(-1, 2)) == "(/ -1 2)"

    def test_powers(self):
        assert str(int_pow(R, 2)) == "r^2"
        assert str(int_pow(sin(TH), 2)) == "(sin θ)^2"
        assert str(mul(int_pow(R, 2), int_pow(sin(TH), 2))) == "(* r^2 (sin θ)^2)"

    def test_quotients(self):
        assert str(div(integer(1), int_pow(R, 2))) == "(/ 1 r^2)"
        assert str(div(cos(TH), sin(TH))) == "(/ (cos θ) (sin θ))"

    def test_sums(self):
        e = add(int_pow(X, 2), add(mul(integer(2), X), integer(1)))
        assert str(e) == "(+ x^2 (* 2 x) 1)"

    def test_symbol_before_function_atoms(self):
        # symbols sort before function atoms inside a product
        assert str(mul(sin(TH), R)) == "(* r (sin θ))"
        assert str(mul(sin(TH), cos(TH))) == "(* (cos θ) (sin θ))"


# hypothesis strategies: small arithmetic trees over x and y

def exprs():
    leaves = st.one_of(
        st.integers(min_value=-4, max_value=4).map(integer),
        st.sampled_from([X, Y]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: add(*p)),
            st.tuples(children, children).map(lambda p: mul(*p)),
            st.tuples(children, children).map(lambda p: sub(*p)),
            children.map(sin),
            children.map(cos),
            children.map(neg),
        )

    return st.recursive(leaves, extend, max_leaves=8)


POINTS = st.tuples(
    st.floats(min_value=0.3, max_value=1.2),
    st.floats(min_value=0.3, max_value=1.2),
)


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), POINTS)
def test_property_add_homomorphism(a, b, pt):
    env = {"x": pt[0], "y": pt[1]}
    assert math.isclose(
        evaluate_at(add(a, b), env),
        evaluate_at(a, env) + evaluate_at(b, env),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), POINTS)
def test_property_mul_homomorphism(a, b, pt):
    env = {"x": pt[0], "y": pt[1]}
    assert math.isclose(
        evaluate_at(mul(a, b), env),
        evaluate_at(a, env) * evaluate_at(b, env),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@settings(max_examples=100, deadline=None)
@given(exprs(), POINTS)
def test_property_derivative_matches_finite_difference(e, pt):
    # central difference oracle, h=1e-6, mixed tolerance 1e-5
    env = {"x": pt[0], "y": pt[1]}
    d = differentiate(e, X)
    h = 1e-6
    hi = evaluate_at(e, {"x": pt[0] + h, "y": pt[1]})
    lo = evaluate_at(e, {"x": pt[0] - h, "y": pt[1]})
    fd = (hi - lo) / (2 * h)
    assert math.isclose(evaluate_at(d, env), fd, rel_tol=1e-5, abs_tol=1e-5)


@settings(max_examples=100, deadline=None)
@given(exprs())
def test_property_canonicalize_idempotent(e):
    assert canonicalize(e) == e


# memoised hashes and order keys: nested atoms against the uncached key


def nested_exprs(depth=3):
    """Sums, products and quotients over x, y and rationals, with sin, cos,
    sqrt, abs and multi-term inverse atoms nested up to `depth` deep."""
    if depth == 0:
        return st.one_of(
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
                lambda f: rational(f.numerator, f.denominator)
            ),
            st.sampled_from([X, Y]),
        )
    inner = nested_exprs(depth - 1)
    pairs = st.tuples(inner, inner)
    return st.one_of(
        inner,
        pairs.map(lambda p: add(*p)),
        pairs.map(lambda p: mul(*p)),
        inner.map(sin),
        inner.map(cos),
        inner.map(abs_),
        inner.filter(lambda e: (as_fraction(e) or 0) >= 0).map(sqrt),
        pairs.filter(lambda p: add(Y, p[1]).terms).map(lambda p: div(p[0], add(Y, p[1]))),
    )


def nodes(e):
    """e and every expression nested inside its atoms."""
    yield e
    for _, mono in e.terms:
        for atom, _ in mono:
            if isinstance(atom, (Fun, Inv)):
                yield from nodes(atom.arg)


@settings(max_examples=150, deadline=None)
@given(nested_exprs(), nested_exprs())
def test_cached_order_keys_match_the_uncached_key(a, b):
    for e in (add(a, b), mul(a, b), sub(a, b)):
        for node in nodes(e):
            keys = [mono_key_ref(m) for _, m in node.terms]
            assert keys == sorted(keys, reverse=True)
            for _, mono in node.terms:
                atom_keys = [atom_key_ref(atom) for atom, _ in mono]
                assert atom_keys == sorted(atom_keys)
            assert node.key() == order_key_ref(node)
        assert canonicalize(e) == e


@settings(max_examples=150, deadline=None)
@given(nested_exprs(), nested_exprs(), nested_exprs())
def test_equal_values_hash_alike_by_any_route(a, b, c):
    routes = [
        (add(a, b), add(b, a)),
        (mul(a, mul(b, c)), mul(mul(a, b), c)),
        (mul(c, a, b), mul(b, c, a)),
        (sin(add(a, b)), sin(add(b, a))),
        (mul(sin(add(a, b)), sin(add(b, a))), int_pow(sin(add(a, b)), 2)),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)
        assert {x: "found"}[y] == "found"


# integer coefficients: the kernel against its all-Fraction reference


def coefficients_are_stored_exactly(e):
    """Every coefficient, at every nesting level, is an int (not a bool) or a
    Fraction whose denominator is greater than 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for node in nodes(e)
        for c, _ in node.terms
    )


def assert_same_value(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert x.key() == y.key() == order_key_ref(y)
    assert format_expr(x) == format_expr(y)


def outcome(f, *args):
    try:
        return f(*args)
    except TegiArithmeticError as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(nested_exprs(), nested_exprs(), nested_exprs(), st.integers(min_value=-2, max_value=3))
def test_kernel_matches_the_fraction_reference(a, b, c, n):
    minus_one = integer(-1)
    pairs = [
        (add(a, b), add_ref(a, b)),
        (add(a, b, c), add_ref(a, b, c)),
        (mul(a, b), mul_ref(a, b)),
        (mul(a, b, c), mul_ref(a, b, c)),
        (neg(a), mul_ref(minus_one, a)),
        (sub(a, b), add_ref(a, mul_ref(minus_one, b))),
        (mul(rational(3, 2), a), mul_ref(rational(3, 2), a)),
        (outcome(div, a, b), outcome(div_ref, a, b)),
        (outcome(int_pow, a, n), outcome(int_pow_ref, a, n)),
    ]
    for e in (a, b, c):
        assert coefficients_are_stored_exactly(e)
    for got, want in pairs:
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert_same_value(got, want)
        assert coefficients_are_stored_exactly(got)


@settings(max_examples=200, deadline=None)
@given(nested_exprs(), st.sampled_from([X, Y, symbol("x", 1)]))
def test_differentiate_matches_the_rebuilding_reference(e, by):
    try:
        want = differentiate_ref(e, by)
    except TegiTypeError as exc:  # abs has no derivative
        with pytest.raises(TegiTypeError) as got:
            differentiate(e, by)
        assert str(got.value) == str(exc)
        return
    got = differentiate(e, by)
    assert_same_value(got, want)
    assert coefficients_are_stored_exactly(got)


class TestIntegerCoefficients:
    def test_integral_values_are_stored_as_ints(self):
        half = rational(1, 2)
        cases = [
            rational(4, 2),
            add(half, half),
            mul(rational(2, 3), rational(3, 2), X),
            div(X, half),
            div(add(mul(rational(1, 2), X), Y), add(mul(rational(1, 2), X), Y)),
            sqrt(rational(9, 4)),
            sqrt(rational(16, 4)),
            abs_(rational(-4, 2)),
            differentiate(mul(half, int_pow(X, 2)), X),
            add(X, rational(6, 3)),
            mul(rational(6, 3)),
            div(integer(1), add(X, Y)),
            ONE,
            symbol("x"),
            sin(X),
        ]
        for e in cases:
            assert coefficients_are_stored_exactly(e), repr(e)
        assert rational(4, 2).terms == ((2, ()),)
        assert type(sqrt(rational(9, 4)).terms[0][0]) is Fraction

    def test_as_fraction_still_gives_a_fraction(self):
        assert type(as_fraction(integer(3))) is Fraction
        assert as_fraction(rational(1, 2)) == Fraction(1, 2)
        assert type(as_fraction(add(X, neg(X)))) is Fraction

    def test_constant_factor_keeps_term_order(self):
        e = add(X, mul(rational(1, 3), Y), sin(X), integer(5))
        for k in (integer(-1), integer(2), rational(-3, 2)):
            assert [m for _, m in mul(k, e).terms] == [m for _, m in e.terms]
            assert mul(k, e) == mul_ref(k, e)
        assert mul(ONE, e) is e


# the kernel's shortcuts against the general paths they skip


COEFFS = st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(4, 3)])


def single_terms(min_factors=0):
    """Single-term values: a coefficient, int or Fraction, times powers -2..2
    of x, y, sin x and sqrt y, and powers 1..2 of the inverse atom 1/(x+y)."""
    factor = st.one_of(
        st.tuples(st.sampled_from([X, Y, sin(X), sqrt(Y)]), st.integers(min_value=-2, max_value=2)),
        st.tuples(st.just(INV_XY), st.integers(min_value=1, max_value=2)),
    )
    return st.tuples(COEFFS, st.lists(factor, min_size=min_factors, max_size=3)).map(
        lambda cf: mul(rational(cf[0].numerator, cf[0].denominator), *(int_pow(b, p) for b, p in cf[1]))
    )


def sums():
    """Sums of two or three single-term values, constant terms included."""
    return st.lists(single_terms(), min_size=2, max_size=3).map(lambda ts: add(*ts))


@settings(max_examples=200, deadline=None)
@given(single_terms(min_factors=1), st.one_of(single_terms(min_factors=1), sums()))
def test_single_term_product_matches_the_term_table(a, b):
    # one term times one term is built directly, and a monomial times the
    # empty one (a constant term of b) is the monomial; both against the
    # all-Fraction term table
    assert len(a.terms) == 1
    for got in (mul(a, b), mul(b, a)):
        assert_same_value(got, mul_ref(a, b))
        assert coefficients_are_stored_exactly(got)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sums(), nested_exprs()))
def test_neg_matches_the_product_by_minus_one(e):
    got = neg(e)
    assert_same_value(got, mul(integer(-1), e))
    assert [m for _, m in got.terms] == [m for _, m in e.terms]
    assert coefficients_are_stored_exactly(got)
    assert neg(got) == e


# the monomial product: one merge of two sorted monomials against the dict
# and re-sort it replaced

MONO_ATOMS = [
    Sym("x"),
    Sym("y"),
    Sym("x", 1),
    Fun("sin", X),
    Fun("cos", mul(X, sin(Y))),
    Fun("sqrt", Y),
    INV_XY.terms[0][1][0][0],
]


@st.composite
def monomial_pairs(draw):
    """Two canonical monomials over symbol, function and inverse atoms; the
    second often holds an atom of the first to the negated power, so that
    powers cancel."""
    power = st.integers(min_value=-3, max_value=3).filter(bool)
    atoms = st.sets(st.sampled_from(MONO_ATOMS))
    m1 = {a: draw(power) for a in draw(atoms)}
    m2 = {a: -m1[a] if a in m1 and draw(st.booleans()) else draw(power) for a in draw(atoms)}
    return tuple(
        tuple(sorted(m.items(), key=lambda ap: atom_key_ref(ap[0]))) for m in (m1, m2)
    )


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_the_monomial_merge_matches_the_dict_and_sort_product(pair):
    m1, m2 = pair
    for a, b in ((m1, m2), (m2, m1)):
        got = symexpr._mul_monos(a, b)
        assert got == mul_monos_ref(a, b)
        assert all(p for _, p in got)  # a cancelled atom drops out
        assert [atom_key_ref(atom) for atom, _ in got] == sorted(
            atom_key_ref(atom) for atom, _ in got
        )


def test_cancelling_every_power_leaves_the_empty_monomial():
    (x, _), (s, _) = X.terms[0][1][0], sin(X).terms[0][1][0]
    assert symexpr._mul_monos(((x, 2), (s, -1)), ((x, -2), (s, 1))) == ()
    assert symexpr._mul_monos((), ((x, 1),)) == ((x, 1),)


class TestMemoisedNodes:
    def test_mul_identity(self):
        e = add(mul(X, sin(Y)), rational(1, 3))
        assert mul() == ONE
        assert mul(e) == e

    def test_memos_are_not_fields(self):
        e = sqrt(add(X, div(integer(1), add(X, Y))))
        before = repr(e)
        hash(e), e.key()
        assert repr(e) == before
        assert Expr._fields == ("terms",)
        assert Fun._fields == ("tag", "arg")
        assert e == Expr(e.terms)


# interning: one live object per atom


def atoms_of(e):
    """Every atom of e, at every nesting level."""
    for node in nodes(e):
        for _, mono in node.terms:
            for atom, _ in mono:
                yield atom


def rebuilt(atom):
    """The atom built again from its fields, by keyword."""
    return type(atom)(**{f: getattr(atom, f) for f in type(atom)._fields})


@settings(max_examples=150, deadline=None)
@given(nested_exprs(), nested_exprs())
def test_building_an_atom_twice_gives_the_same_object(a, b):
    for e in (a, b, add(a, b), mul(b, a)):
        for atom in atoms_of(e):
            assert rebuilt(atom) is atom
            assert pickle.loads(pickle.dumps(atom)) is atom
        again = canonicalize(e)  # every atom rebuilt bottom-up by a second route
        assert [x for x in atoms_of(again)] == [x for x in atoms_of(e)]
        assert all(x is y for x, y in zip(atoms_of(again), atoms_of(e)))


@settings(max_examples=200, deadline=None)
@given(nested_exprs(), nested_exprs())
def test_equality_hash_key_and_text_match_the_structural_reference(a, b):
    ta, tb = structural_ref(a), structural_ref(b)
    assert (a == b) is (ta == tb)
    if a == b:
        assert hash(a) == hash(b)
    for x in set(atoms_of(a)):
        for y in set(atoms_of(b)):
            same = structural_ref(Expr(((1, ((x, 1),)),))) == structural_ref(
                Expr(((1, ((y, 1),)),)))
            assert (x is y) is (x == y) is same
    for e, t in ((a, ta), (b, tb), (add(a, b), structural_ref(add(a, b)))):
        assert e.key() == order_key_ref(e)
        assert format_expr(e) == format_ref(t)


def test_constructor_spellings_give_one_symbol():
    x = Sym("x")
    assert Sym("x", 0) is x and Sym(name="x") is x and Sym(name="x", uid=0) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert X.terms[0][1][0][0] is x


def test_an_atom_stores_its_argument_canonically_whoever_builds_it_first():
    # an all-Fraction reference may build an atom before the engine does
    w = Sym("interning_w")
    first = Fun("sqrt", Expr(((Fraction(1), ((w, 1),)), (Fraction(2), ()))))
    assert [type(c) for c, _ in first.arg.terms] == [int, int]
    engine = sqrt(add(symbol("interning_w"), integer(2)))
    assert engine.terms[0][1][0][0] is first
    assert coefficients_are_stored_exactly(engine)
    assert div_ref(ONE, add(symbol("interning_w"), integer(2))) == div(
        ONE, add(symbol("interning_w"), integer(2)))


def test_generated_symbols_with_one_name_stay_distinct():
    s, t = fresh_symbol("i"), fresh_symbol("i")
    assert s is not t and s != t and Sym("i") not in (s, t)
    assert Sym("i", s.uid) is s
    assert len(add(symbol("i", s.uid), symbol("i", t.uid), symbol("i")).terms) == 3
    one, two = Interpreter().eval_source("(with-symbols {t} t)\n(with-symbols {t} t)")
    assert format_expr(one) == format_expr(two) == "t"
    assert one != two and len(add(one, two).terms) == 2


def test_atoms_die_with_the_values_that_hold_them():
    text = (CORPUS / "forms_s3.tegi").read_text(encoding="utf-8")
    gc.collect()
    before = len(record._live)
    interp = Interpreter()
    printed = [format_value(v) for v in interp.eval_source(text)]
    assert len(record._live) > before
    del interp
    gc.collect()
    assert len(record._live) == before
    assert printed == [format_value(v) for v in Interpreter().eval_source(text)]


def test_an_atom_leaves_the_table_with_its_last_holder_without_the_collector():
    arg = add(symbol("table_u"), symbol("table_v"))  # holds its symbols live
    key = (Fun, "sin", arg)
    gc.disable()
    try:
        for _ in range(2):  # the second build makes a new atom, dropped the same way
            before = len(record._live)
            atom = Fun("sin", arg)
            assert len(record._live) == before + 1 and record._live[key]() is atom
            gone = weakref.ref(atom)
            del atom  # its entry goes at once, with no collection
            assert gone() is None and key not in record._live
            assert len(record._live) == before
    finally:
        gc.enable()


def test_printing_a_value_twice_formats_the_same_atoms_twice(monkeypatch):
    # a text cached on a long-lived atom would make the second print cheaper
    text = (CORPUS / "forms_s3.tegi").read_text(encoding="utf-8")
    values = Interpreter().eval_source(text)
    calls = []

    def counting(e, atoms=None):
        calls.append(e)
        return format_expr(e, atoms)

    for module in (evaluator, symexpr):  # as a layer tracer rebinds it
        monkeypatch.setattr(module, "format_expr", counting)
    first = [format_value(v) for v in values]
    n = len(calls)
    assert n > len(values)
    assert [format_value(v) for v in values] == first
    assert len(calls) == 2 * n
    monkeypatch.undo()
    for v in values:  # format_expr as the scalar printer: one fresh memo per scalar
        assert format_value(v) == format_value(v, format_expr)


@settings(max_examples=100, deadline=None)
@given(st.lists(nested_exprs(), min_size=1, max_size=4))
def test_shared_print_memo_matches_formatting_each_component_alone(comps):
    value = TensorValue((len(comps),), tuple(comps))
    shared = format_value(value)
    assert shared == "[|" + " ".join(format_ref(structural_ref(c)) for c in comps) + "|]"
    assert shared == format_value(value, format_expr)
