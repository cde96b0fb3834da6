"""Tests for the exact symbolic scalar layer.

Expected values tagged in comments:
  [PAPER]   printed forms and derivatives shown in the worked examples
  [DERIVED] computed with an independent oracle (math module / by hand)
  [TRIVIAL] immediate from the definition
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tegi.errors import EvalError, TegiArithmeticError, TegiTypeError
from tegi.symexpr import (
    ONE,
    Expr,
    Fun,
    Inv,
    abs_,
    add,
    as_fraction,
    as_int,
    canonicalize,
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

from oracles import (
    add_ref,
    atom_key_ref,
    div_ref,
    int_pow_ref,
    mono_key_ref,
    mul_ref,
    order_key_ref,
)

R = symbol("r")
TH = symbol("θ")
X = symbol("x")
Y = symbol("y")


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

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            evaluate_at(mul(R, sin(TH)), {"r": 2.0})

    def test_negative_power_at_zero(self):
        with pytest.raises(TegiArithmeticError):
            evaluate_at(int_pow(X, -2), {"x": 0.0})

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
            X + Fraction(6, 3),
            mul(Fraction(6, 3)),
            div(1, add(X, Y)),
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
        e = add(X, mul(rational(1, 3), Y), sin(X), 5)
        for k in (integer(-1), integer(2), rational(-3, 2)):
            assert [m for _, m in mul(k, e).terms] == [m for _, m in e.terms]
            assert mul(k, e) == mul_ref(k, e)
        assert mul(ONE, e) is e


class TestMemoisedNodes:
    def test_mul_identity(self):
        e = add(mul(X, sin(Y)), rational(1, 3))
        assert mul() == ONE
        assert mul(e) == e

    def test_memos_are_not_fields(self):
        e = sqrt(add(X, div(1, add(X, Y))))
        before = repr(e)
        hash(e), e.key()
        assert repr(e) == before
        assert Expr._fields == ("terms",)
        assert Fun._fields == ("tag", "arg")
        assert e == Expr(e.terms)
