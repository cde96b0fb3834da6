"""Tree-walking interpreter: environments, function values, builtins.

A single global frame holds the prelude and user definitions, so prelude
functions like `d` can reference a coordinate frame `x` the user defines
later.  Tensor-typed variables are stored under (name, variance-signature)
keys; `Environment.lookup`, the one rule for every name, plain or marked,
tries the longest matching signature prefix per frame, then the plain name.

Every function is a `Function`: a name (None for a lambda), the kind of
each parameter (None for a variadic scalar builtin) and a Python callable.
A lambda evaluates once to a `Function` whose callable runs the body in a
new frame; `Interpreter.call` checks the arity and runs the callable itself
when no argument is a tensor, else completes omitted indices and hands it
to `apply_with_kinds`, the same way for both.  A lambda whose body applies
a named function, without `!`, to exactly its own parameters, as `∂/∂`'s
`(derivative f x)` does, is a direct kernel: it skips evaluating the body
and makes the body's call through `Interpreter.call`, so values and errors
are the body's.  A lambda of two `%` parameters whose body is
`(contract + (* p q))` on them, without `!`, as the prelude's `.` is, runs
as one sparse join (`tensor.contract_product`) while `contract`, `+` and `*`
are this interpreter's own builtins and both arguments are tensors of
scalars with every axis marked; otherwise it evaluates its body.  Each
`Interpreter` keeps one bounded memo of `derivative` results, and the Hodge
star of the last metric `hodge` used.

Each check on the way to a kernel happens once: `_scalar_args` refuses a
non-scalar argument before a scalar builtin runs, and the one handler in
`Interpreter.eval` locates an error at the innermost node being evaluated.
The prelude is parsed without locations, so an error inside a prelude
function such as `.` or `d` is located at the user's call.
The one top-level loop, `Interpreter.run`, hands each value to a printer.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from functools import reduce

from . import lang
from .application import (
    ParamKind,
    apply_with_kinds,
    complete_omitted_indices,
    fresh_symbol,
    with_symbols_scope,
)
from .errors import (
    ArityError,
    DigitLimitError,
    DomainError,
    EvalError,
    IndexLabelError,
    TegiError,
    TegiTypeError,
    UnboundVariableError,
)
from .forms import det, df_normalize, df_order, hodge_star, levi_civita
from .record import Record
from .symexpr import (
    Expr,
    Sym,
    abs_,
    add,
    as_fraction,
    as_int,
    as_symbol,
    cos,
    differentiate,
    div,
    format_expr,
    int_pow,
    integer,
    mul,
    neg,
    sin,
    sqrt,
    sub,
    symbol,
)
from .tensor import (
    Dummy,
    IndexMark,
    TensorValue,
    attach_indices,
    check_size,
    contract,
    contract_product,
    flip_indices,
    format_tensor,
    fresh_uid,
    tensor,
    tensor_map,
    transpose,
)

__all__ = ["Environment", "Function", "Interpreter", "format_value"]

SCALAR, TENSOR = ParamKind.SCALAR, ParamKind.TENSOR
_MISSING = object()
DERIVATIVE_MEMO_ENTRIES = 10_000  # past this many, derivatives are computed, not stored


class Environment:
    """A chain of binding frames; keys are names or (name, signature)."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict | None = None, parent: "Environment | None" = None):
        self.bindings = bindings if bindings is not None else {}
        self.parent = parent

    def lookup(self, name: str, variances: tuple = ()):
        """name in the nearest frame binding it under the longest signature
        prefix of variances, else plainly; _MISSING when no frame does."""
        env = self
        while env is not None:
            bindings = env.bindings
            if variances:  # without this test every reference cost 1.6–1.9%
                for k in range(len(variances), 0, -1):
                    key = (name, variances[:k])
                    if key in bindings:
                        return bindings[key]
            if name in bindings:
                return bindings[name]
            env = env.parent
        return _MISSING


class Function(Record):
    # name None is a lambda; kinds None is a variadic scalar builtin
    __slots__ = ("name", "kinds", "fn", "min_args")
    __hash__ = None
    _defaults = {"min_args": 1}


def format_value(v, scalar: Callable[[Expr], str] | None = None) -> str:
    """Canonical printed form of any runtime value.

    `scalar` prints each scalar, inside tensors and `{…}` tuples too; the
    default is `format_expr`, looked up at each call, with one memo of atom
    texts shared by every scalar of `v`.
    """
    if scalar is None:
        atoms = {}
        scalar = lambda e: format_expr(e, atoms)
    if isinstance(v, bool):
        return "#t" if v else "#f"
    if isinstance(v, Expr):
        return scalar(v)
    if isinstance(v, TensorValue):
        return format_tensor(v, lambda c: format_value(c, scalar))
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, tuple):
        return "{" + " ".join(format_value(x, scalar) for x in v) + "}"
    return "#<function>" if v.name is None else f"#<function {v.name}>"


def _scalar(v) -> Expr:
    if isinstance(v, Expr):
        return v
    raise TegiTypeError(f"expected a scalar, got {format_value(v)}")


def _scalars(v):
    """v, once every component of a tensor v is known to be a scalar."""
    if isinstance(v, TensorValue):
        for c in v.components:
            _scalar(c)
    return v


def _scalar_args(fn):
    """fn, called once every argument is known to be a scalar."""

    def checked(*xs):
        for x in xs:
            if not isinstance(x, Expr):
                _scalar(x)
        return fn(*xs)

    return checked


def _index_label(v) -> Sym | int | None:
    """The index label a value stands for: a symbol, else an integer, else None."""
    if not isinstance(v, Expr):
        return None
    s = as_symbol(v)
    return s if s is not None else as_int(v)


def _marked_scalars(v) -> bool:
    """Whether v is a tensor with every axis marked and every component a scalar."""
    return (
        isinstance(v, TensorValue)
        and 0 < len(v.indices) == len(v.shape)
        and all(isinstance(c, Expr) for c in v.components)
    )


def _one_application(body: lang.Node, names: tuple) -> bool:
    """Whether body applies a named function, without `!`, to exactly the
    distinct parameters `names`, in order, the name being none of them."""
    return (
        isinstance(body, lang.Apply)
        and not body.distinct
        and isinstance(body.fn, lang.SymbolRef)
        and tuple(a.name if isinstance(a, lang.SymbolRef) else None for a in body.args) == names
        and len({body.fn.name, *names}) == len(names) + 1
    )


def _contracted_product(body: lang.Node, names: tuple) -> bool:
    """Whether body is `(contract + (* p q))`, without `!`, on the two
    distinct parameters `names` in order, none named `contract`, `+` or `*`."""
    return (
        len({*names, "contract", "+", "*"}) == len(names) + 3 == 5
        and isinstance(body, lang.Apply)
        and getattr(body.fn, "name", None) == "contract"  # before the unparse
        and lang.unparse(body) == "(contract + (* {} {}))".format(*names)
    )


class Interpreter:
    def __init__(self):
        self.global_env = Environment()
        for b in self._builtins():
            self.global_env.bindings[b.name] = b
        path = os.path.join(os.path.dirname(__file__), "prelude.tegi")
        with open(path, encoding="utf-8") as f:
            for node in lang.parse_program(f.read(), located=False):
                self.eval(node, self.global_env)

    # -- entry points --------------------------------------------------------

    def run(self, text: str, emit: Callable[[object], None]) -> None:
        """Evaluate top-level forms in order, calling `emit` on each non-define value."""
        for node in lang.parse_program(text):
            try:  # recursion too deep, in `eval` or in `emit`, is located at the form
                v = self.eval(node, self.global_env)
                if not isinstance(node, lang.Define):
                    emit(v)
            except RecursionError:
                raise EvalError("recursion too deep", node.loc) from None
            except DigitLimitError as exc:  # from `emit` it has no location yet
                exc.location = exc.location or node.loc
                raise

    def eval_source(self, text: str) -> list:
        """Evaluate top-level forms; returns the values of non-define forms."""
        values = []
        self.run(text, values.append)
        return values

    # -- evaluation ----------------------------------------------------------

    def eval(self, node: lang.Node, env: Environment):
        try:
            # most frequent first: references, then applications
            if isinstance(node, lang.SymbolRef):
                v = env.lookup(node.name)
                return symbol(node.name) if v is _MISSING else v
            if isinstance(node, lang.Apply):
                fn = self.eval(node.fn, env)
                args = [self.eval(a, env) for a in node.args]
                return self.call(fn, args, node.distinct)
            if isinstance(node, lang.IntLit):
                return integer(node.value)
            if isinstance(node, lang.StrLit):
                return node.value
            if isinstance(node, lang.IndexedRef):
                return self._indexed(node, env)
            if isinstance(node, lang.TensorLit):
                elems = [self.eval(e, env) for e in node.elements]
                # Check leaves first: tensor() would stack a {…} element as an axis.
                return tensor([e if isinstance(e, TensorValue) else _scalar(e) for e in elems])
            if isinstance(node, lang.Braces):
                return tuple(self.eval(e, env) for e in node.items)
            if isinstance(node, lang.Lambda):
                return self._lambda(node, env)
            if isinstance(node, lang.Define):
                return self._define(node, env)
            if isinstance(node, lang.WithSymbols):
                syms = [fresh_symbol(name) for name in node.names]
                frame = {s.name: symbol(s.name, s.uid) for s in syms}
                result = self.eval(node.body, Environment(frame, env))
                return with_symbols_scope(syms, result)
            if isinstance(node, lang.Let):
                frame = {n: self.eval(e, env) for n, e in node.bindings}
                return self.eval(node.body, Environment(frame, env))
            if isinstance(node, lang.If):
                cond = self.eval(node.cond, env)
                if not isinstance(cond, bool):
                    raise TegiTypeError(f"if needs a boolean, got {format_value(cond)}")
                return self.eval(node.then if cond else node.other, env)
            raise TegiTypeError(f"cannot evaluate {node!r}")
        except TegiError as exc:
            if exc.location is None:  # the innermost node being evaluated wins
                exc.location = node.loc
            raise

    def call(self, fnv, args: Sequence, distinct: bool = False):
        if not isinstance(fnv, Function):
            raise TegiTypeError(f"not a function: {format_value(fnv)}")
        kinds = fnv.kinds
        if kinds is None:
            if len(args) < fnv.min_args:
                raise ArityError(f"{fnv.name} needs at least {fnv.min_args} argument(s)")
            kinds = (SCALAR,) * len(args)
        elif len(args) != len(kinds):
            who = "" if fnv.name is None else f"{fnv.name} "
            raise ArityError(f"{who}expected {len(kinds)} arguments, got {len(args)}")

        for a in args:
            if isinstance(a, TensorValue):
                break
        else:
            return fnv.fn(*args)  # nothing to complete or lift
        args, gens = complete_omitted_indices(args, kinds, distinct)
        return with_symbols_scope(gens, apply_with_kinds(fnv.fn, kinds, args))

    def _lambda(self, node: lang.Lambda, env: Environment) -> Function:
        kinds = tuple(ParamKind(sigil) for sigil, _ in node.params)
        names = tuple(name for _, name in node.params)
        body = node.body

        def kernel(*vals):
            # `self.eval` is looked up at each call, so a rebound `eval` is used
            return self.eval(body, Environment(dict(zip(names, vals)), env))

        if kinds == (TENSOR, TENSOR) and _contracted_product(body, names):
            own = self._product_builtins
            product = body.args[1]

            def join(a, b):
                # the body's value as one sparse join, while its three names
                # are this interpreter's own builtins and both arguments are
                # marked tensors of scalars; else the body, as written
                if not (
                    all(env.lookup(f.name) is f for f in own)
                    and _marked_scalars(a)
                    and _marked_scalars(b)
                ):
                    return kernel(a, b)
                try:
                    return contract_product(a, b)
                except TegiError as exc:
                    if exc.location is None:  # where `*` would have raised it
                        exc.location = product.loc
                    raise

            return Function(None, kinds, join)
        if not _one_application(body, names):
            return Function(None, kinds, kernel)
        name = body.fn.name

        def direct(*vals):
            # the body's own call, made without evaluating the body; the name
            # is looked up at each call, because the global frame is dynamic
            fn = env.lookup(name)
            try:
                return self.call(symbol(name) if fn is _MISSING else fn, vals)
            except TegiError as exc:
                if exc.location is None:  # as `eval` locates it
                    exc.location = body.loc
                raise

        return Function(None, kinds, direct)

    # -- indexed references --------------------------------------------------

    def _indexed(self, node: lang.IndexedRef, env: Environment):
        marks = [self._mark(m, env) for m in node.marks]
        base = node.base
        if isinstance(base, lang.SymbolRef):
            value = env.lookup(base.name, tuple(m.variance for m in node.marks))
            if value is _MISSING:
                raise UnboundVariableError(
                    f"unbound indexed variable: {base.name}", base.loc
                )
        else:
            value = self.eval(base, env)
        return attach_indices(value, marks)

    def _mark(self, m: IndexMark, env: Environment) -> IndexMark:
        if isinstance(m.label, int):
            return m
        if m.label == "#":
            return IndexMark(m.variance, Dummy(fresh_uid()))
        v = env.lookup(m.label)
        if v is _MISSING:
            return IndexMark(m.variance, Sym(m.label))
        label = _index_label(v)
        if label is None:
            raise IndexLabelError(f"index label {m.label!r} is not a symbol or integer")
        return IndexMark(m.variance, label)

    # -- defines ---------------------------------------------------------------

    def _define(self, node: lang.Define, env: Environment):
        sig = tuple(m.variance for m in node.signature)
        value = self.eval(node.body, env)
        if not sig:
            env.bindings[node.name] = value
            return None
        if not isinstance(value, TensorValue):
            raise TegiTypeError(f"define ${node.name}: a signature needs a tensor value")
        if value.indices:
            raise TegiTypeError(f"define ${node.name}: the value still carries index marks")
        if value.rank < len(sig):
            raise ArityError(
                f"define ${node.name}: value of rank {value.rank} cannot satisfy "
                f"a signature of {len(sig)} indices"
            )
        env.bindings[node.name, sig] = value
        return None

    # -- builtins --------------------------------------------------------------

    def _builtins(self) -> list[Function]:
        S, T = SCALAR, TENSOR

        def minus(*xs):
            return neg(xs[0]) if len(xs) == 1 else reduce(sub, xs)

        plus = Function("+", None, _scalar_args(add))
        memo = {}  # (f.terms, x.terms) -> derivative, kept by this interpreter only

        def derivative(f, x):
            key = (f.terms, x.terms)
            d = memo.get(key)
            if d is None:
                d = differentiate(f, x)
                if len(memo) < DERIVATIVE_MEMO_ENTRIES:
                    memo[key] = d
            return d

        def contract_fn(f, t):
            if not isinstance(f, Function):
                raise TegiTypeError(f"not a function: {format_value(f)}")
            if f is plus:
                return contract(plus.fn, t)
            return contract(lambda *run: reduce(lambda a, b: self.call(f, [a, b]), run), t)

        def less_than(a, b):
            fa, fb = as_fraction(a), as_fraction(b)
            if fa is None or fb is None:
                raise TegiTypeError("less-than? needs numeric scalars")
            return fa < fb

        def power(base, e):  # not behind _scalar_args: the exponent is checked first
            n = as_int(_scalar(e))
            if n is None:
                raise TegiTypeError("'^' needs an integer exponent")
            return int_pow(_scalar(base), n)

        def between(a, b):
            lo, hi = as_int(a), as_int(b)
            if lo is None or hi is None:
                raise DomainError("between needs integer bounds")
            check_size(hi - lo + 1, "between", lo, hi)
            return tuple(integer(i) for i in range(lo, hi + 1))

        def transpose_by(order, t):
            if not isinstance(order, tuple):
                raise IndexLabelError("transpose needs a {…} collection of labels")
            labels = []
            for item in order:
                label = _index_label(item)
                if label is None:
                    raise IndexLabelError("transpose labels must be symbols or integers")
                labels.append(label)
            return transpose(labels, t)

        def map_fn(f, coll):
            if not isinstance(coll, tuple):
                raise TegiTypeError("map needs a {…} collection")
            return tuple(self.call(f, [x]) for x in coll)

        star = [None, None, None]  # g_lower, g_upper and the star of the last hodge call

        def hodge_fn(a):
            # g_lower is found as `g_#_#` finds it; the inverse only under its
            # own signature, since a plain $g is the metric, not its inverse
            g_lower = self.global_env.lookup("g", (-1, -1))
            g_upper = self.global_env.bindings.get(("g", (1, 1)), _MISSING)
            if g_upper is _MISSING:
                g_upper = self.global_env.bindings.get(("g", (1,)), _MISSING)
            if g_lower is _MISSING or g_upper is _MISSING:
                raise UnboundVariableError("hodge needs $g__ and $g~~ defined")
            _scalars(a)
            if g_lower is not star[0] or g_upper is not star[1]:  # a new or redefined metric
                star[:] = g_lower, g_upper, hodge_star(_scalars(g_lower), _scalars(g_upper))
            return star[2](a)

        mul_b = Function("*", None, _scalar_args(mul))
        contract_b = Function("contract", (T, T), contract_fn)
        # the builtins a `(contract + (* p q))` body must find to run as one join
        self._product_builtins = (contract_b, plus, mul_b)
        return [
            plus,
            Function("-", None, _scalar_args(minus)),
            mul_b,
            Function("/", None, _scalar_args(lambda *xs: reduce(div, xs)), min_args=2),
            Function("^", (S, S), power),
            Function("less-than?", (S, S), _scalar_args(less_than)),
            Function("sin", (S,), _scalar_args(sin)),
            Function("cos", (S,), _scalar_args(cos)),
            Function("sqrt", (S,), _scalar_args(sqrt)),
            Function("abs", (S,), _scalar_args(abs_)),
            Function("derivative", (S, S), _scalar_args(derivative)),
            contract_b,
            Function("tensor-map", (T, T), lambda f, t: tensor_map(lambda c: self.call(f, [c]), t)),
            Function("flip-indices", (T,), flip_indices),
            Function("transpose", (T, T), transpose_by),
            Function("df-order", (T,), lambda v: integer(df_order(v))),
            Function("df-normalize", (T,), lambda v: df_normalize(_scalars(v))),
            Function("M.det", (T,), lambda m: det(_scalars(m))),
            Function("levi-civita", (S,), _scalar_args(lambda n: levi_civita(as_int(n)))),
            Function("hodge", (T,), hodge_fn),
            Function("map", (T, T), map_fn),
            Function("between", (S, S), _scalar_args(between)),
        ]
