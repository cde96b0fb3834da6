"""Outside-in layer tracer for the tegi engine.

Each layer is a module of the `tegi` package.  `Tracer.install` wraps the
public functions of `lang`, `application`, `tensor`, `symexpr` and `forms`
(their `__all__`, plus `symexpr.format_expr`, which other modules import by
name), and `Interpreter.eval`, `Interpreter.call` and `format_value` for the
`evaluator` layer.  Every module attribute that holds one of those functions
is rebound, because `evaluator` and friends import `add`, `mul` and others by
name.  Install before constructing an `Interpreter`: its builtins capture
`add`/`sub`/`mul`/`div` in closures when it is built.

Spans: a call entering a layer from another layer (or from outside the
engine) opens a span; a call within the span's own layer opens none.  A
layer's self time is its spans' time minus the time of their child spans.
Spans are folded into per-layer totals as they close, so memory stays flat
and nothing is written until `counts` and `times` are read at the end.

Counts:
- `<layer>.calls`: every call of a wrapped function of the layer, calls from
  inside the same layer included;
- `application.kernel_calls`: calls of the kernels handed to
  `apply_with_kinds` (each is timed as `evaluator`, so `fold` and `_scalar`
  time lands there);
- `application.lift_yield`: components returned by `apply_with_kinds` per
  kernel call;
- `tensor.components`: components of every `TensorValue` constructed;
- `symexpr.terms_out` / `symexpr.max_terms`: total and largest term count of
  the expressions `symexpr` hands back across its boundary;
- `lang.tokens`: tokens produced by `tokenize`.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("lang", "evaluator", "application", "tensor", "symexpr", "forms")
_EXTRA_PUBLIC = {"symexpr": ("format_expr",)}


class Tracer:
    def __init__(self):
        self._rebound: list[tuple[object, str, object]] = []
        self.calls = Counter()  # "layer.function" -> calls; wrappers hold it
        self.reset()

    def reset(self):
        """Zero every aggregate; wrappers stay installed."""
        self.layer = None
        self.children = []  # child-span time accumulated per open span
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls.clear()
        self.tokens = 0
        self.lift_out = 0
        self.components = 0
        self.terms_out = 0
        self.max_terms = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, on_exit=None):
        key = f"{layer}.{name}"
        calls = self.calls
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            if tracer.layer == layer:
                return fn(*args, **kwargs)
            outer = tracer.layer
            tracer.layer = layer
            tracer.children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.self_s[layer] += elapsed - tracer.children.pop()
                if tracer.children:
                    tracer.children[-1] += elapsed
                tracer.layer = outer
            if on_exit is not None:
                on_exit(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and rebind each name that refers to it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        from tegi import application, evaluator, forms, lang, symexpr, tensor

        modules = {"lang": lang, "application": application, "tensor": tensor,
                   "symexpr": symexpr, "forms": forms}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name in (*mod.__all__, *_EXTRA_PUBLIC.get(layer, ())):
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(
                        layer, name, self._hooked(layer, name, fn), self._exit_hook(layer)
                    )
        fv = evaluator.format_value
        wrappers[id(fv)] = self._wrap("evaluator", "format_value", fv)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tegi" or mod_name.startswith("tegi.")):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, name, wrapper)

        cls = evaluator.Interpreter
        for name in ("eval", "call"):
            self._rebind(cls, name, self._wrap("evaluator", name, vars(cls)[name]))
        tv = tensor.TensorValue
        post_init = vars(tv)["__post_init__"]

        def counting_post_init(value):
            self.components += len(value.components)
            post_init(value)

        self._rebind(tv, "__post_init__", counting_post_init)
        self.reset()

    def _rebind(self, owner, name, value):
        self._rebound.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    def _hooked(self, layer, name, fn):
        """Add the counting that one function needs on every call."""
        if (layer, name) == ("lang", "tokenize"):
            def tokenize(text):
                toks = fn(text)
                self.tokens += len(toks)
                return toks

            return tokenize
        if (layer, name) == ("application", "apply_with_kinds"):
            def apply_with_kinds(kernel, kinds, args):
                result = fn(self._wrap("evaluator", "kernel", kernel), kinds, args)
                comps = getattr(result, "components", None)
                self.lift_out += 1 if comps is None else len(comps)
                return result

            return apply_with_kinds
        return fn

    def _exit_hook(self, layer):
        if layer != "symexpr":
            return None
        from tegi.symexpr import Expr

        def count_terms(result):
            if type(result) is Expr:
                n = len(result.terms)
                self.terms_out += n
                if n > self.max_terms:
                    self.max_terms = n

        return count_terms

    # -- results -------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    def counts(self) -> dict:
        """Deterministic per-layer counts (no times)."""
        kernel = self.calls["evaluator.kernel"]
        return {
            "lang.tokens": self.tokens,
            "lang.calls": self.layer_calls("lang"),
            "evaluator.calls": self.calls["evaluator.eval"] + self.calls["evaluator.call"],
            "application.kernel_calls": kernel,
            "application.lift_yield": self.lift_out / kernel if kernel else 0.0,
            "tensor.components": self.components,
            "tensor.calls": self.layer_calls("tensor"),
            "symexpr.calls": self.layer_calls("symexpr"),
            "symexpr.add_calls": self.calls["symexpr.add"],
            "symexpr.mul_calls": self.calls["symexpr.mul"],
            "symexpr.terms_out": self.terms_out,
            "symexpr.max_terms": self.max_terms,
            "forms.calls": self.layer_calls("forms"),
        }

    def times(self) -> dict:
        return {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
