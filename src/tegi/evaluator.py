"""Tree-walking interpreter: environments, application semantics, builtins.

A single global frame holds the prelude and user definitions, so prelude
functions like `d` can reference a coordinate frame `x` the user defines
later.  Tensor-typed variables are stored under (name, variance-signature)
keys; references try the longest matching signature prefix per frame, then
the plain name.
"""

from __future__ import annotations

import os
from collections.abc import Callable

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
    DomainError,
    EvalError,
    IndexLabelError,
    TegiError,
    TegiTypeError,
    UnboundVariableError,
)
from .forms import det, df_normalize, df_order, hodge, levi_civita
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
    contract,
    flip_indices,
    format_tensor,
    fresh_uid,
    tensor,
    tensor_map,
    transpose,
)

__all__ = ["Builtin", "Closure", "Environment", "Interpreter", "format_value"]

SCALAR, TENSOR, INVERTED = ParamKind.SCALAR, ParamKind.TENSOR, ParamKind.INVERTED
_SIGIL_KIND = {"$": SCALAR, "%": TENSOR, "*$": INVERTED}
_MISSING = object()


class Environment:
    """A chain of binding frames; keys are names or (name, signature)."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict | None = None, parent: "Environment | None" = None):
        self.bindings = bindings if bindings is not None else {}
        self.parent = parent

    def lookup(self, key):
        env = self
        while env is not None:
            if key in env.bindings:
                return env.bindings[key]
            env = env.parent
        raise KeyError(key)

    def get(self, key, default=None):
        try:
            return self.lookup(key)
        except KeyError:
            return default

    def define(self, key, value):
        self.bindings[key] = value


class Closure(Record):
    __slots__ = ("params", "body", "env")  # params: tuple of (ParamKind, name)
    __hash__ = None


class Builtin(Record):
    __slots__ = ("name", "kinds", "fn", "min_args")  # kinds None means variadic scalar
    __hash__ = None
    _defaults = {"min_args": 1}


def format_value(v, scalar: Callable[[Expr], str] | None = None) -> str:
    """Canonical printed form of any runtime value.

    `scalar` prints each scalar, inside tensors and `{…}` tuples too; the
    default is `format_expr`, looked up at each call.
    """
    if isinstance(v, bool):
        return "#t" if v else "#f"
    if isinstance(v, Expr):
        return format_expr(v) if scalar is None else scalar(v)
    if isinstance(v, TensorValue):
        return format_tensor(v, lambda c: format_value(c, scalar))
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, tuple):
        return "{" + " ".join(format_value(x, scalar) for x in v) + "}"
    if isinstance(v, Builtin):
        return f"#<function {v.name}>"
    if isinstance(v, Closure):
        return "#<function>"
    return repr(v)


def _scalar(v) -> Expr:
    if isinstance(v, Expr):
        return v
    raise TegiTypeError(f"expected a scalar, got {format_value(v)}")


_PRELUDE_CACHE: str | None = None


def _prelude_source() -> str:
    global _PRELUDE_CACHE
    if _PRELUDE_CACHE is None:
        path = os.path.join(os.path.dirname(__file__), "prelude.tegi")
        with open(path, encoding="utf-8") as f:
            _PRELUDE_CACHE = f.read()
    return _PRELUDE_CACHE


class Interpreter:
    def __init__(self):
        self.global_env = Environment()
        for b in self._builtins():
            self.global_env.define(b.name, b)
        self.eval_source(_prelude_source())

    # -- entry points --------------------------------------------------------

    def iter_source(self, text: str):
        """Evaluate top-level forms in order, yielding each non-define value."""
        for node in lang.parse_program(text):
            try:
                v = self.eval(node, self.global_env)
            except RecursionError:
                raise EvalError("recursion too deep", node.loc) from None
            if not isinstance(node, lang.Define):
                yield v

    def eval_source(self, text: str) -> list:
        """Evaluate top-level forms; returns the values of non-define forms."""
        return list(self.iter_source(text))

    # -- evaluation ----------------------------------------------------------

    def eval(self, node: lang.Node, env: Environment):
        if isinstance(node, lang.IntLit):
            return integer(node.value)
        if isinstance(node, lang.StrLit):
            return node.value
        if isinstance(node, lang.SymbolRef):
            v = env.get(node.name, _MISSING)
            return symbol(node.name) if v is _MISSING else v
        if isinstance(node, lang.IndexedRef):
            return self._indexed(node, env)
        if isinstance(node, lang.TensorLit):
            elems = [self.eval(e, env) for e in node.elements]
            # Check leaves first: tensor() would stack a {…} element as an axis.
            return tensor([e if isinstance(e, TensorValue) else _scalar(e) for e in elems])
        if isinstance(node, lang.Braces):
            return tuple(self.eval(e, env) for e in node.items)
        if isinstance(node, (lang.Apply, lang.BangApply)):
            try:
                fn = self.eval(node.fn, env)
                args = [self.eval(a, env) for a in node.args]
                distinct = isinstance(node, lang.BangApply)
                return self.call(fn, args, distinct=distinct, loc=node.loc)
            except TegiError as exc:
                if exc.location is None:  # the innermost application wins
                    exc.location = node.loc
                raise
        if isinstance(node, lang.Lambda):
            params = tuple((_SIGIL_KIND[s], n) for s, n in node.params)
            return Closure(params, node.body, env)
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
                raise TegiTypeError(
                    f"if needs a boolean, got {format_value(cond)}", node.loc
                )
            return self.eval(node.then if cond else node.other, env)
        raise TegiTypeError(f"cannot evaluate {node!r}")

    def call(self, fnv, args: list, distinct: bool = False, loc=None):
        if isinstance(fnv, Closure):
            if len(args) != len(fnv.params):
                raise ArityError(
                    f"expected {len(fnv.params)} arguments, got {len(args)}", loc
                )
            kinds = [k for k, _ in fnv.params]
            names = [n for _, n in fnv.params]

            def kernel(*vals):
                return self.eval(fnv.body, Environment(dict(zip(names, vals)), fnv.env))

        elif isinstance(fnv, Builtin):
            if fnv.kinds is None:
                if len(args) < fnv.min_args:
                    raise ArityError(
                        f"{fnv.name} needs at least {fnv.min_args} argument(s)", loc
                    )
                kinds = [SCALAR] * len(args)
            else:
                if len(args) != len(fnv.kinds):
                    raise ArityError(
                        f"{fnv.name} expected {len(fnv.kinds)} arguments, got {len(args)}",
                        loc,
                    )
                kinds = list(fnv.kinds)
            kernel = fnv.fn
        else:
            raise TegiTypeError(f"not a function: {format_value(fnv)}", loc)

        if distinct:
            args, gens = complete_omitted_indices(args, "distinct")
        else:
            spots = [i for i, k in enumerate(kinds) if k is not TENSOR]
            sub, gens = complete_omitted_indices([args[i] for i in spots], "shared")
            args = list(args)
            for i, v in zip(spots, sub):
                args[i] = v
        result = apply_with_kinds(kernel, kinds, args)
        return with_symbols_scope(gens, result)

    # -- indexed references --------------------------------------------------

    def _indexed(self, node: lang.IndexedRef, env: Environment):
        try:
            marks = [self._mark(m, env) for m in node.marks]
            base = node.base
            if isinstance(base, lang.SymbolRef):
                value = self._lookup_indexed(base.name, [m.variance for m in node.marks], env)
                if value is _MISSING:
                    raise UnboundVariableError(
                        f"unbound indexed variable: {base.name}", base.loc
                    )
            else:
                value = self.eval(base, env)
            return attach_indices(value, marks)
        except TegiError as exc:
            if exc.location is None:  # as in `eval`: the innermost node wins
                exc.location = node.loc
            raise

    def _lookup_indexed(self, name: str, variances: list, env: Environment):
        frame = env
        while frame is not None:
            for k in range(len(variances), -1, -1):
                key = (name, tuple(variances[:k])) if k else name
                if key in frame.bindings:
                    return frame.bindings[key]
            frame = frame.parent
        return _MISSING

    def _mark(self, m: lang.MarkAst, env: Environment) -> IndexMark:
        if isinstance(m.label, int):
            return IndexMark(m.variance, m.label)
        if m.label == "#":
            return IndexMark(m.variance, Dummy(fresh_uid()))
        v = env.get(m.label, _MISSING)
        if v is _MISSING:
            return IndexMark(m.variance, Sym(m.label))
        if isinstance(v, Expr):
            s = as_symbol(v)
            if s is not None:
                return IndexMark(m.variance, s)
            n = as_int(v)
            if n is not None:
                return IndexMark(m.variance, n)
        raise IndexLabelError(f"index label {m.label!r} is not a symbol or integer")

    # -- defines ---------------------------------------------------------------

    def _define(self, node: lang.Define, env: Environment):
        sig = tuple(m.variance for m in node.signature)
        value = self.eval(node.body, env)
        if not sig:
            env.define(node.name, value)
            return None
        if not isinstance(value, TensorValue):
            raise TegiTypeError(
                f"define ${node.name}: a signature needs a tensor value", node.loc
            )
        if value.indices:
            raise TegiTypeError(
                f"define ${node.name}: the value still carries index marks", node.loc
            )
        if value.rank < len(sig):
            raise ArityError(
                f"define ${node.name}: value of rank {value.rank} cannot satisfy "
                f"a signature of {len(sig)} indices",
                node.loc,
            )
        env.define((node.name, sig), value)
        return None

    # -- builtins --------------------------------------------------------------

    def _builtins(self) -> list[Builtin]:
        S, T = SCALAR, TENSOR

        def fold(op, unary=None):
            def fn(*xs):
                vals = [_scalar(x) for x in xs]
                if len(vals) == 1 and unary is not None:
                    return unary(vals[0])
                acc = vals[0]
                for x in vals[1:]:
                    acc = op(acc, x)
                return acc

            return fn

        def less_than(a, b):
            fa, fb = as_fraction(_scalar(a)), as_fraction(_scalar(b))
            if fa is None or fb is None:
                raise TegiTypeError("less-than? needs numeric scalars")
            return fa < fb

        def power(base, e):
            n = as_int(_scalar(e))
            if n is None:
                raise TegiTypeError("'^' needs an integer exponent")
            return int_pow(_scalar(base), n)

        def levi(n):
            k = as_int(_scalar(n))
            if k is None:
                raise DomainError("levi-civita needs a positive integer dimension")
            return levi_civita(k)

        def between(a, b):
            lo, hi = as_int(_scalar(a)), as_int(_scalar(b))
            if lo is None or hi is None:
                raise DomainError("between needs integer bounds")
            return tuple(integer(i) for i in range(lo, hi + 1))

        def transpose_by(order, t):
            if not isinstance(order, tuple):
                raise IndexLabelError("transpose needs a {…} collection of labels")
            labels = []
            for item in order:
                lab = None
                if isinstance(item, Expr):
                    lab = as_symbol(item)
                    if lab is None:
                        lab = as_int(item)
                if lab is None:
                    raise IndexLabelError("transpose labels must be symbols or integers")
                labels.append(lab)
            return transpose(labels, t)

        def map_fn(f, coll):
            if not isinstance(coll, tuple):
                raise TegiTypeError("map needs a {…} collection")
            return tuple(self.call(f, [x]) for x in coll)

        def hodge_fn(a):
            g_lower = self.global_env.get(("g", (-1, -1)), _MISSING)
            g_upper = self.global_env.get(("g", (1, 1)), _MISSING)
            if g_lower is _MISSING or g_upper is _MISSING:
                raise UnboundVariableError("hodge needs $g__ and $g~~ defined")
            return hodge(a, g_lower, g_upper)

        return [
            Builtin("+", None, fold(add)),
            Builtin("-", None, fold(sub, unary=neg)),
            Builtin("*", None, fold(mul)),
            Builtin("/", None, fold(div), min_args=2),
            Builtin("^", (S, S), power),
            Builtin("less-than?", (S, S), less_than),
            Builtin("sin", (S,), lambda x: sin(_scalar(x))),
            Builtin("cos", (S,), lambda x: cos(_scalar(x))),
            Builtin("sqrt", (S,), lambda x: sqrt(_scalar(x))),
            Builtin("abs", (S,), lambda x: abs_(_scalar(x))),
            Builtin("derivative", (S, S), lambda f, x: differentiate(_scalar(f), _scalar(x))),
            Builtin("contract", (T, T), lambda f, t: contract(lambda a, b: self.call(f, [a, b]), t)),
            Builtin("tensor-map", (T, T), lambda f, t: tensor_map(lambda c: self.call(f, [c]), t)),
            Builtin("flip-indices", (T,), flip_indices),
            Builtin("transpose", (T, T), transpose_by),
            Builtin("df-order", (T,), lambda v: integer(df_order(v))),
            Builtin("df-normalize", (T,), df_normalize),
            Builtin("M.det", (T,), det),
            Builtin("levi-civita", (S,), levi),
            Builtin("hodge", (T,), hodge_fn),
            Builtin("map", (T, T), map_fn),
            Builtin("between", (S, S), between),
        ]
