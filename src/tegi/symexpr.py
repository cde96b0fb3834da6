"""Exact symbolic scalars.

An expression is kept in a canonical sum-of-products form: a sorted tuple of
terms, each a rational coefficient times a monomial over atoms.  Atoms are
plain symbols, the function applications sin/cos/sqrt/abs, and an opaque
inverse atom for denominators that cannot be folded into negative powers.
A coefficient is an `int` when it is integral, and a `Fraction` only when
its denominator is greater than 1, so the common integer case never pays
for `Fraction` arithmetic.  An `int` and the equal `Fraction` compare and
hash alike, so equality, hashes and term order do not depend on which one
is stored.  Equality of canonical forms is structural equality, which
makes expressions usable directly as expected values in tests.

No trig identities or radical simplification are applied; only rational
constants fold.

Nodes (expressions and atoms) are immutable records, so each computes its
hash and its order key once, on first use, and keeps them.  The memoised
values live in slots that are not record fields: equality, repr and the
canonical term order are those of the structure alone.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import EvalError, TegiArithmeticError, TegiTypeError
from .record import Record

__all__ = [
    "Expr",
    "Sym",
    "abs_",
    "add",
    "as_fraction",
    "as_int",
    "as_symbol",
    "canonicalize",
    "cos",
    "differentiate",
    "div",
    "evaluate_at",
    "int_pow",
    "integer",
    "mul",
    "neg",
    "rational",
    "sin",
    "sqrt",
    "sub",
    "symbol",
]


class _Node(Record):
    """Hash and order key of an immutable node, each computed on first use.

    The memo slots start with `_`, so they are not record fields.
    """

    __slots__ = ("_hash", "_order")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.key())  # the key is a function of the structure
            object.__setattr__(self, "_hash", h)
            return h

    def key(self):
        try:
            return self._order
        except AttributeError:
            k = self._order_key()
            object.__setattr__(self, "_order", k)
            return k


class Sym(_Node):
    """A named symbol; uid > 0 marks a generated (scope-fresh) symbol."""

    __slots__ = ("name", "uid")
    _defaults = {"uid": 0}

    def _order_key(self):
        return (0, self.name, self.uid)


class Fun(_Node):
    __slots__ = ("tag", "arg")  # tag: "sin" | "cos" | "sqrt" | "abs"

    def _order_key(self):
        return (1, self.tag, self.arg.key())


class Inv(_Node):
    """Opaque 1/arg for a multi-term denominator (arg scaled monic-first)."""

    __slots__ = ("arg",)

    def _order_key(self):
        return (2, "inv", self.arg.key())


Atom = Sym | Fun | Inv
# a monomial maps atoms to nonzero integer powers, stored sorted by atom key
Mono = tuple[tuple[Atom, int], ...]
Coeff = int | Fraction  # an int when integral, else a Fraction
Term = tuple[Coeff, Mono]


class Expr(_Node):
    __slots__ = ("terms",)  # a tuple of Terms
    _defaults = {"terms": ()}

    def _order_key(self):
        return tuple((_mono_key(m), (c.numerator, c.denominator)) for c, m in self.terms)

    def __str__(self) -> str:
        return format_expr(self)

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, n: int):
        return int_pow(self, n)

    def __neg__(self):
        return neg(self)


ZERO = Expr(())
ONE = Expr(((1, ()),))


def _norm(c: Coeff) -> Coeff:
    """The stored form of a coefficient: an int unless its denominator is > 1."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return integer(v)
    if isinstance(v, Fraction):
        return Expr(((_norm(v), ()),)) if v else ZERO
    raise TegiTypeError(f"not a scalar: {v!r}")


def _mono_key(mono: Mono):
    return tuple((a.key(), p) for a, p in mono)


def _mk(termmap: dict[Mono, Coeff]) -> Expr:
    terms = [(_norm(c), m) for m, c in termmap.items() if c]
    if len(terms) > 1:
        terms.sort(key=lambda t: _mono_key(t[1]), reverse=True)
    return Expr(tuple(terms))


def integer(n: int) -> Expr:
    return Expr(((n, ()),)) if n else ZERO


def rational(p: int, q: int) -> Expr:
    c = Fraction(p, q)
    return Expr(((_norm(c), ()),)) if c else ZERO


def symbol(name: str, uid: int = 0) -> Expr:
    return Expr(((1, ((Sym(name, uid), 1),)),))


def add(*es: Expr) -> Expr:
    termmap: dict[Mono, Coeff] = {}
    for e in es:
        for c, m in _coerce(e).terms:
            termmap[m] = termmap.get(m, 0) + c
    return _mk(termmap)


def neg(e: Expr) -> Expr:
    return mul(integer(-1), e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def _mul_monos(m1: Mono, m2: Mono) -> Mono:
    powers: dict[Atom, int] = dict(m1)
    for a, p in m2:
        q = powers.get(a, 0) + p
        if q:
            powers[a] = q
        elif a in powers:
            del powers[a]
    return tuple(sorted(powers.items(), key=lambda ap: ap[0].key()))


def _scale(c: Coeff, e: Expr) -> Expr:
    """c * e for a nonzero constant c: same monomials, same term order."""
    if c == 1:
        return e
    return Expr(tuple((_norm(c * c1), m) for c1, m in e.terms))


def _mul2(a: Expr, b: Expr) -> Expr:
    if len(b.terms) == 1 and not b.terms[0][1]:
        return _scale(b.terms[0][0], a)
    if len(a.terms) == 1 and not a.terms[0][1]:
        return _scale(a.terms[0][0], b)
    termmap: dict[Mono, Coeff] = {}
    for c1, m1 in a.terms:
        for c2, m2 in b.terms:
            m = _mul_monos(m1, m2)
            termmap[m] = termmap.get(m, 0) + c1 * c2
    return _mk(termmap)


def mul(*es: Expr) -> Expr:
    if not es:
        return ONE
    out = _coerce(es[0])
    for e in es[1:]:
        out = _mul2(out, _coerce(e))
    return out


def _term_expr(c: Coeff, mono: Mono) -> Expr:
    """Rebuild a term, expanding any inverse atom raised to a negative power."""
    plain = []
    expand = ONE
    for a, p in mono:
        if isinstance(a, Inv) and p < 0:
            expand = mul(expand, int_pow(a.arg, -p))
        else:
            plain.append((a, p))
    base = Expr(((c, tuple(plain)),))
    return _mul2(base, expand) if expand != ONE else base


def div(a: Expr, b: Expr) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if not b.terms:
        raise TegiArithmeticError("division by zero")
    lead, mono = b.terms[0]
    recip = _norm(Fraction(1, lead))  # 1 / lead would be a float for an int
    if len(b.terms) == 1:
        inv_mono = tuple((atom, -p) for atom, p in mono)
        return _mul2(a, _term_expr(recip, inv_mono))
    monic = _mul2(Expr(((recip, ()),)), b)
    inv = Expr(((recip, ((Inv(monic), 1),)),))
    return _mul2(a, inv)


def int_pow(e: Expr, n: int) -> Expr:
    e = _coerce(e)
    if n == 0:
        return ONE
    if n < 0:
        return div(ONE, int_pow(e, -n))
    out, base = ONE, e
    while n:
        if n & 1:
            out = _mul2(out, base)
        base_next = _mul2(base, base) if n > 1 else base
        base, n = base_next, n >> 1
    return out


def as_fraction(e: Expr) -> Fraction | None:
    if not e.terms:
        return Fraction(0)
    if len(e.terms) == 1 and e.terms[0][1] == ():
        return Fraction(e.terms[0][0])
    return None


def as_int(e: Expr) -> int | None:
    c = as_fraction(e)
    if c is not None and c.denominator == 1:
        return int(c)
    return None


def as_symbol(e: Expr) -> Sym | None:
    if (
        isinstance(e, Expr)
        and len(e.terms) == 1
        and e.terms[0][0] == 1
        and len(e.terms[0][1]) == 1
        and e.terms[0][1][0][1] == 1
        and isinstance(e.terms[0][1][0][0], Sym)
    ):
        return e.terms[0][1][0][0]
    return None


def _fun(tag: str, e: Expr) -> Expr:
    return Expr(((1, ((Fun(tag, e), 1),)),))


def sin(e: Expr) -> Expr:
    e = _coerce(e)
    if as_fraction(e) == 0:
        return ZERO
    return _fun("sin", e)


def cos(e: Expr) -> Expr:
    e = _coerce(e)
    if as_fraction(e) == 0:
        return ONE
    return _fun("cos", e)


def sqrt(e: Expr) -> Expr:
    e = _coerce(e)
    c = as_fraction(e)
    if c is not None:
        if c < 0:
            raise TegiArithmeticError("sqrt of a negative constant")
        pn, qd = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if pn * pn == c.numerator and qd * qd == c.denominator:
            return Expr(((_norm(Fraction(pn, qd)), ()),)) if pn else ZERO
    return _fun("sqrt", e)


def abs_(e: Expr) -> Expr:
    e = _coerce(e)
    c = as_fraction(e)
    if c is not None:
        return Expr(((_norm(abs(c)), ()),)) if c else ZERO
    return _fun("abs", e)


_FUN_CONSTRUCTORS = {"sin": sin, "cos": cos, "sqrt": sqrt, "abs": abs_}


def _atom_as_expr(atom: Atom) -> Expr:
    if isinstance(atom, Sym):
        return symbol(atom.name, atom.uid)
    if isinstance(atom, Fun):
        return _FUN_CONSTRUCTORS[atom.tag](canonicalize(atom.arg))
    return div(ONE, canonicalize(atom.arg))


def canonicalize(e: Expr) -> Expr:
    """Rebuild an expression bottom-up; idempotent on constructed values."""
    e = _coerce(e)
    acc = ZERO
    for c, mono in e.terms:
        t = Expr(((c, ()),))
        for atom, p in mono:
            t = _mul2(t, int_pow(_atom_as_expr(atom), p))
        acc = add(acc, t)
    return acc


def _d_atom(atom: Atom, s: Sym) -> Expr:
    if isinstance(atom, Sym):
        return ONE if atom == s else ZERO
    if isinstance(atom, Inv):
        inner = differentiate(atom.arg, symbol(s.name, s.uid))
        self_expr = Expr(((1, ((atom, 1),)),))
        return mul(integer(-1), int_pow(self_expr, 2), inner)
    inner = differentiate(atom.arg, symbol(s.name, s.uid))
    if atom.tag == "sin":
        return mul(cos(atom.arg), inner)
    if atom.tag == "cos":
        return mul(integer(-1), sin(atom.arg), inner)
    if atom.tag == "sqrt":
        self_expr = Expr(((1, ((atom, 1),)),))
        return mul(rational(1, 2), int_pow(self_expr, -1), inner)
    raise TegiTypeError("cannot differentiate abs")


def differentiate(e: Expr, by: Expr) -> Expr:
    s = as_symbol(_coerce(by))
    if s is None:
        raise TegiTypeError(f"cannot differentiate by non-symbol: {by}")
    e = _coerce(e)
    acc = ZERO
    for c, mono in e.terms:
        for i, (atom, p) in enumerate(mono):
            da = _d_atom(atom, s)
            if not da.terms:
                continue
            rest = Expr(((_norm(c * p), tuple(ap for j, ap in enumerate(mono) if j != i)),))
            acc = add(acc, mul(rest, int_pow(_atom_as_expr(atom), p - 1), da))
    return acc


def _atom_value(atom: Atom, env: Mapping[str, float]) -> float:
    if isinstance(atom, Sym):
        if atom.name not in env:
            raise EvalError(f"unbound symbol: {atom.name}")
        return float(env[atom.name])
    if isinstance(atom, Inv):
        v = evaluate_at(atom.arg, env)
        if v == 0.0:
            raise TegiArithmeticError("division by zero")
        return 1.0 / v
    v = evaluate_at(atom.arg, env)
    if atom.tag == "sin":
        return math.sin(v)
    if atom.tag == "cos":
        return math.cos(v)
    if atom.tag == "sqrt":
        if v < 0:
            raise TegiArithmeticError("sqrt of a negative value")
        return math.sqrt(v)
    return abs(v)


def evaluate_at(e: Expr, env: Mapping[str, float]) -> float:
    """Numeric value of e with symbols bound by name.

    A coefficient, a power or a value beyond the float range raises a
    `TegiArithmeticError`, not Python's `OverflowError`, and never comes
    back as `inf` or `nan`; the check on each argument of a function atom
    keeps an infinite value away from `math.sin` and the others.
    """
    total = 0.0
    try:
        for c, mono in _coerce(e).terms:
            val = float(c)
            for atom, p in mono:
                base = _atom_value(atom, env)
                if base == 0.0 and p < 0:
                    raise TegiArithmeticError("division by zero")
                val *= base**p
            total += val
    except OverflowError:
        raise TegiArithmeticError("numeric overflow") from None
    if not math.isfinite(total):
        raise TegiArithmeticError("numeric overflow")
    return total


# printing: prefix notation matching the worked examples


def _pow_str(base: str, p: int) -> str:
    return base if p == 1 else f"{base}^{p}"


def _product_str(n: int, factors: list[str]) -> str:
    if not factors:
        return str(n)
    parts = factors if n == 1 else [str(n), *factors]
    if len(parts) == 1:
        return parts[0]
    return "(* " + " ".join(parts) + ")"


def _atom_str(atom: Atom) -> str:
    if isinstance(atom, Sym):
        return atom.name
    if isinstance(atom, Fun):
        return f"({atom.tag} {format_expr(atom.arg)})"
    return format_expr(atom.arg)


def _term_str(c: Coeff, mono: Mono) -> str:
    num, den = [], []
    for atom, p in mono:
        if isinstance(atom, Inv):
            p = -p  # an inverse atom is its argument on the other side
        (num if p > 0 else den).append(_pow_str(_atom_str(atom), abs(p)))
    if den or c.denominator != 1:
        return f"(/ {_product_str(c.numerator, num)} {_product_str(c.denominator, den)})"
    return _product_str(c.numerator, num)


def format_expr(e: Expr) -> str:
    if not e.terms:
        return "0"
    parts = [_term_str(c, m) for c, m in e.terms]
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"
