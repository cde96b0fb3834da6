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

Values are built by the functions below (`add`, `mul`, `div`, `sin`, ...);
`Expr` has no arithmetic operators, and the functions take `Expr` values
only: the evaluator checks its scalars.  Inside the module, `_const` builds
a constant and `_atom` an atom to the first power; products, quotients and
`neg` build their terms directly.  A constructed value is canonical, so
`differentiate` uses the atoms it meets as they are, without rebuilding them.
In a canonical value every monomial lists its atoms once each, in ascending
order of their keys, with nonzero powers; each constructor keeps that order
(a subsequence, a negation of powers or a merge of sorted monomials stays
sorted), so the product of two monomials is one merge, with no re-sort.

Nodes (expressions and atoms) are immutable records.  Atoms are interned
(hash-consed): building an atom whose structure is live hands back the live
object, so there is one object per atom, and atom equality and hashing are
those of `object`, identity.  A weak table holds the atoms, so an atom is
freed with the last value that holds it.  Only atoms memoise: each computes
its structural order key once, when it is interned, into a slot that is not a
record field, so repr is that of the structure.  An `Expr` is plain data, not
interned: its equality and hash are those of its terms, whose atoms compare
and hash by identity, and its order key is computed when asked for.  Term
order and printed text depend on the order keys alone.  `format_expr`
memoises the text of each function or inverse atom in a dict its caller may
share across one printed value; the text is never stored on the atom, so
printing costs the same each time.

No integer of more than `MAX_DIGITS` digits is printed, on any Python
version: `int_pow` refuses a power whose one coefficient would certainly be
longer, judged from bit lengths before it multiplies, and printing refuses
any longer integer with a `DigitLimitError`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import DigitLimitError, DomainError, EvalError, TegiArithmeticError, TegiTypeError
from .record import Record

__all__ = [
    "Expr",
    "MAX_DIGITS",
    "Sym",
    "abs_",
    "add",
    "as_fraction",
    "as_int",
    "as_symbol",
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


class _Atom(Record):
    """An interned atom: one live object per structure, so `==` and `hash`
    are those of `object`, identity, and run at C speed.  Its `__post_init__`
    stores its structural order key once, when the atom is built."""

    __slots__ = ("_key", "__weakref__")
    _interned = True
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def key(self):
        return self._key


def _store_canonical_arg(atom):
    """Store the argument with canonical coefficients.

    Lookup treats an `int` and the equal `Fraction` alike, so the first atom
    built for a structure is the one every later build gets; storing its
    argument canonically keeps a `Fraction(2, 1)` out of the engine's values.
    """
    terms = atom.arg.terms
    if any(type(c) is not int and c.denominator == 1 for c, _ in terms):
        object.__setattr__(atom, "arg", Expr(tuple((_norm(c), m) for c, m in terms)))


class Sym(_Atom):
    """A named symbol; uid > 0 marks a generated (scope-fresh) symbol."""

    __slots__ = ("name", "uid")
    _defaults = {"uid": 0}

    def __post_init__(self):
        object.__setattr__(self, "_key", (0, self.name, self.uid))


class Fun(_Atom):
    __slots__ = ("tag", "arg")  # tag: "sin" | "cos" | "sqrt" | "abs"

    def __post_init__(self):
        _store_canonical_arg(self)
        object.__setattr__(self, "_key", (1, self.tag, self.arg.key()))


class Inv(_Atom):
    """Opaque 1/arg for a multi-term denominator (arg scaled monic-first)."""

    __slots__ = ("arg",)

    def __post_init__(self):
        _store_canonical_arg(self)
        object.__setattr__(self, "_key", (2, "inv", self.arg.key()))


Atom = Sym | Fun | Inv
# a monomial maps atoms to nonzero integer powers, stored sorted by atom key
Mono = tuple[tuple[Atom, int], ...]
Coeff = int | Fraction  # an int when integral, else a Fraction
Term = tuple[Coeff, Mono]

MAX_DIGITS = 4300  # the longest integer read or printed: CPython's default int-str limit
_TOO_LONG = 10**MAX_DIGITS  # the least integer of more digits


class Expr(Record):
    __slots__ = ("terms",)  # a tuple of Terms
    _defaults = {"terms": ()}

    def key(self):
        """The structural order key, computed on demand."""
        return tuple((_mono_key(m), (c.numerator, c.denominator)) for c, m in self.terms)

    def __str__(self) -> str:
        return format_expr(self)


ZERO = Expr(())
ONE = Expr(((1, ()),))


def _norm(c: Coeff) -> Coeff:
    """The stored form of a coefficient: an int unless its denominator is > 1."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _const(c: Coeff) -> Expr:
    """The constant c, its coefficient normalised, or ZERO."""
    return Expr(((_norm(c), ()),)) if c else ZERO


def _atom(a: Atom) -> Expr:
    """The atom a to the first power."""
    return Expr(((1, ((a, 1),)),))


def _mono_key(mono: Mono):
    return tuple((a._key, p) for a, p in mono)


def _mk(termmap: dict[Mono, Coeff]) -> Expr:
    terms = [(_norm(c), m) for m, c in termmap.items() if c]
    if len(terms) > 1:
        terms.sort(key=lambda t: _mono_key(t[1]), reverse=True)
    return Expr(tuple(terms))


def integer(n: int) -> Expr:
    return _const(n)


def rational(p: int, q: int) -> Expr:
    return _const(Fraction(p, q))


def symbol(name: str, uid: int = 0) -> Expr:
    return _atom(Sym(name, uid))


def add(*es: Expr) -> Expr:
    termmap: dict[Mono, Coeff] = {}
    for e in es:
        for c, m in e.terms:
            termmap[m] = termmap.get(m, 0) + c
    return _mk(termmap)


def neg(e: Expr) -> Expr:
    """-e: each coefficient negated; term order depends only on monomials."""
    return Expr(tuple((-c, m) for c, m in e.terms))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def _mul_monos(m1: Mono, m2: Mono) -> Mono:
    """m1 * m2 by one merge of the two atom-key-sorted monomials; an atom
    whose powers sum to 0 drops out.  Interning makes an atom on both sides
    the same object."""
    if not m1 or not m2:
        return m1 or m2
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, p = m1[i]
        b, q = m2[j]
        if a is b:
            if p + q:
                out.append((a, p + q))
            i += 1
            j += 1
        elif a._key < b._key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


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
    if len(a.terms) == 1 and len(b.terms) == 1:
        (c1, m1), (c2, m2) = a.terms[0], b.terms[0]
        return Expr(((_norm(c1 * c2), _mul_monos(m1, m2)),))
    termmap: dict[Mono, Coeff] = {}
    for c1, m1 in a.terms:
        for c2, m2 in b.terms:
            m = _mul_monos(m1, m2)
            termmap[m] = termmap.get(m, 0) + c1 * c2
    return _mk(termmap)


def mul(*es: Expr) -> Expr:
    if not es:
        return ONE
    out = es[0]
    for e in es[1:]:
        out = _mul2(out, e)
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
    if not b.terms:
        raise TegiArithmeticError("division by zero")
    lead, mono = b.terms[0]
    recip = _norm(Fraction(1, lead))  # 1 / lead would be a float for an int
    if len(b.terms) == 1:
        inv_mono = tuple((atom, -p) for atom, p in mono)
        return _mul2(a, _term_expr(recip, inv_mono))
    monic = _mul2(_const(recip), b)
    inv = Expr(((recip, ((Inv(monic), 1),)),))
    return _mul2(a, inv)


def int_pow(e: Expr, n: int) -> Expr:
    if n == 0:
        return ONE
    if n < 0:
        return div(ONE, int_pow(e, -n))
    if len(e.terms) == 1:  # c**n from the one coefficient c, at least 2**(n * (bits - 1))
        c = e.terms[0][0]
        if n * (max(abs(c.numerator), c.denominator).bit_length() - 1) >= _TOO_LONG.bit_length():
            raise DomainError(f"a power with a coefficient of more than {MAX_DIGITS} digits")
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
        len(e.terms) == 1
        and e.terms[0][0] == 1
        and len(e.terms[0][1]) == 1
        and e.terms[0][1][0][1] == 1
        and isinstance(e.terms[0][1][0][0], Sym)
    ):
        return e.terms[0][1][0][0]
    return None


def sin(e: Expr) -> Expr:
    if as_fraction(e) == 0:
        return ZERO
    return _atom(Fun("sin", e))


def cos(e: Expr) -> Expr:
    if as_fraction(e) == 0:
        return ONE
    return _atom(Fun("cos", e))


def sqrt(e: Expr) -> Expr:
    c = as_fraction(e)
    if c is not None:
        if c < 0:
            raise TegiArithmeticError("sqrt of a negative constant")
        pn, qd = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if pn * pn == c.numerator and qd * qd == c.denominator:
            return _const(Fraction(pn, qd))
    return _atom(Fun("sqrt", e))


def abs_(e: Expr) -> Expr:
    c = as_fraction(e)
    if c is not None:
        return _const(abs(c))
    return _atom(Fun("abs", e))


def _d_atom(atom: Atom, s: Sym) -> Expr:
    if isinstance(atom, Sym):
        return ONE if atom == s else ZERO
    inner = _d_expr(atom.arg, s)
    if isinstance(atom, Inv):
        return neg(mul(int_pow(_atom(atom), 2), inner))
    if atom.tag == "sin":
        return mul(cos(atom.arg), inner)
    if atom.tag == "cos":
        return neg(mul(sin(atom.arg), inner))
    if atom.tag == "sqrt":
        return mul(rational(1, 2), int_pow(_atom(atom), -1), inner)
    raise TegiTypeError("cannot differentiate abs")


def _d_expr(e: Expr, s: Sym) -> Expr:
    """d e / d s, term by term with the product rule; atoms are used as they are."""
    acc = ZERO
    for c, mono in e.terms:
        for i, (atom, p) in enumerate(mono):
            da = _d_atom(atom, s)
            if not da.terms:
                continue
            rest = Expr(((_norm(c * p), mono[:i] + mono[i + 1 :]),))
            acc = add(acc, mul(rest, int_pow(_atom(atom), p - 1), da))
    return acc


def differentiate(e: Expr, by: Expr) -> Expr:
    s = as_symbol(by)
    if s is None:
        raise TegiTypeError(f"cannot differentiate by non-symbol: {by}")
    return _d_expr(e, s)


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
        for c, mono in e.terms:
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


def _int_str(n: int) -> str:
    if -_TOO_LONG < n < _TOO_LONG:
        try:
            return str(n)
        except ValueError:  # the interpreter's own limit, set lower
            pass
    raise DigitLimitError(f"cannot print an integer of more than {MAX_DIGITS} digits")


def _pow_str(base: str, p: int) -> str:
    return base if p == 1 else f"{base}^{_int_str(p)}"


def _product_str(n: int, factors: list[str]) -> str:
    if not factors:
        return _int_str(n)
    parts = factors if n == 1 else [_int_str(n), *factors]
    if len(parts) == 1:
        return parts[0]
    return "(* " + " ".join(parts) + ")"


def _atom_str(atom: Atom, atoms: dict) -> str:
    if isinstance(atom, Sym):
        return atom.name
    s = atoms.get(atom)
    if s is None:
        s = format_expr(atom.arg, atoms)
        if isinstance(atom, Fun):
            s = f"({atom.tag} {s})"
        atoms[atom] = s
    return s


def _term_str(c: Coeff, mono: Mono, atoms: dict) -> str:
    num, den = [], []
    for atom, p in mono:
        if isinstance(atom, Inv):
            p = -p  # an inverse atom is its argument on the other side
        (num if p > 0 else den).append(_pow_str(_atom_str(atom, atoms), abs(p)))
    if den or c.denominator != 1:
        return f"(/ {_product_str(c.numerator, num)} {_product_str(c.denominator, den)})"
    return _product_str(c.numerator, num)


def format_expr(e: Expr, atoms: dict | None = None) -> str:
    """The printed form of e; `atoms` memoises the text of each function or
    inverse atom, and a caller may share it across the scalars of one value."""
    if not e.terms:
        return "0"
    if atoms is None:
        atoms = {}
    parts = [_term_str(c, m, atoms) for c, m in e.terms]
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"
