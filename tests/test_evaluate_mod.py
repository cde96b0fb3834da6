"""The exact zero test of `oracles.evaluate_mod`: sound on identities the
engine leaves unsimplified, sharp on a flipped sign, and canonical on
Laurent polynomials, where equal signatures mean equal values."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tegi.evaluator import Interpreter
from tegi.symexpr import (
    ONE,
    Expr,
    abs_,
    add,
    cos,
    differentiate,
    div,
    int_pow,
    mul,
    rational,
    sin,
    sqrt,
    sub,
    symbol,
)

from oracles import MOD_P, evaluate_mod

PROGRAMS = Path(__file__).parent.parent / "bench" / "programs"
SEEDS = (0, 1)

x, y, z, θ = symbol("x"), symbol("y"), symbol("z"), symbol("θ")


def signature(e: Expr) -> tuple:
    return tuple(evaluate_mod(e, s) for s in SEEDS)


def is_zero(e: Expr) -> bool:
    return signature(e) == (0,) * len(SEEDS)


def flipped(e: Expr, i: int) -> Expr:
    """e with the sign of its term i flipped."""
    return Expr(tuple((-c, m) if n == i else (c, m) for n, (c, m) in enumerate(e.terms)))


IDENTITIES = {
    "sin²+cos²-1": sub(add(int_pow(sin(θ), 2), int_pow(cos(θ), 2)), ONE),
    "(x+y)/(x+y)-1": sub(div(add(x, y), add(x, y)), ONE),
    "sqrt(x+1)²-(x+1)": sub(int_pow(sqrt(add(x, ONE)), 2), add(x, ONE)),
    "d tan-1/cos²": sub(differentiate(div(sin(θ), cos(θ)), θ), div(ONE, int_pow(cos(θ), 2))),
    "d 1/(x+y)+1/(x+y)²": add(
        differentiate(div(ONE, add(x, y)), x), div(ONE, int_pow(add(x, y), 2))
    ),
    "(|x|+y)/(|x|+y)-1": sub(div(add(abs_(x), y), add(abs_(x), y)), ONE),
}


@pytest.mark.parametrize("e", IDENTITIES.values(), ids=IDENTITIES.keys())
def test_an_identity_the_engine_leaves_unsimplified_is_zero(e):
    assert len(e.terms) > 1
    assert is_zero(e)


@pytest.mark.parametrize("e", IDENTITIES.values(), ids=IDENTITIES.keys())
def test_one_flipped_sign_is_nonzero(e):
    for i in range(len(e.terms)):
        assert evaluate_mod(flipped(e, i), 0) != 0


def test_constants_are_residues():
    assert evaluate_mod(rational(1, 3)) * 3 % MOD_P == 1
    assert evaluate_mod(rational(-2, 1)) == MOD_P - 2
    assert evaluate_mod(sub(x, x)) == 0


def test_the_schwarzschild_ricci_sums_are_zero():
    # the program is read in place; its last value is Ric_j_l, which holds
    # 4 sums that print as nonzero
    text = (PROGRAMS / "schwarzschild.tegi").read_text(encoding="utf-8")
    ric = Interpreter().eval_source(text)[-1]
    sums = [c for c in ric.components if c.terms]
    assert len(sums) == 4
    assert all(is_zero(c) for c in sums)
    assert all(evaluate_mod(flipped(c, 0), 0) != 0 for c in sums)


COEFFICIENTS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
MONOMIALS = st.tuples(*[st.integers(-3, 3)] * 3)


def laurent(terms) -> Expr:
    """Σ c·x^a·y^b·z^c over (c, (a, b, c)), built by the engine."""
    return add(
        *(
            mul(rational(c.numerator, c.denominator), *map(int_pow, (x, y, z), ps))
            for c, ps in terms
        )
    )


TERMS = st.lists(st.tuples(COEFFICIENTS, MONOMIALS), max_size=4)


@settings(max_examples=300, deadline=None)
@given(TERMS, TERMS, st.data())
def test_equal_signatures_mean_equal_laurent_polynomials(a_terms, b_terms, data):
    # b is drawn on its own, or as a with its terms reordered, some split in
    # two, and a term added and taken away, so that it often equals a
    a = laurent(a_terms)
    if data.draw(st.booleans()):
        split = [(c / 2, ps) for c, ps in a_terms] * 2
        b_terms = data.draw(st.permutations(split)) + b_terms
        b = sub(laurent(b_terms), laurent(b_terms[len(split):]))
    else:
        b = laurent(b_terms)
    assert (signature(a) == signature(b)) == (a == b)
