"""Lexer, parser, desugarer, and unparser for the surface language.

The syntax is a parenthesized prefix notation with three extra pieces: tensor
literals `[|...|]`, index suffixes (`_i`, `~j`, `~_k`, `_2`, `_#`) that glue
onto the expression before them, and parameter sigils (`$`, `%`, `*$`).
"""

from __future__ import annotations

from .errors import DesugarError, LexError, ParseError
from .record import Record

__all__ = [
    "Apply",
    "BangApply",
    "Braces",
    "Define",
    "If",
    "IndexedRef",
    "IntLit",
    "Lambda",
    "Let",
    "MarkAst",
    "StrLit",
    "SymbolRef",
    "TensorLit",
    "Token",
    "WithSymbols",
    "desugar_define_indices",
    "parse_program",
    "tokenize",
    "unparse",
]


# ---------------------------------------------------------------------------
# tokens

PUNCT = {"(", ")", "[", "]", "{", "}", "[|", "|]", "_", "~", "~_", "!", "$", "%", "*$", "#", "^"}

_DELIMS = set(" \t\r\n()[]{}|~_$%#!^;\"")


class Token(Record):
    """A lexeme and the position where it starts.

    `type` is one of PUNCT, or "int" | "sym" | "str" | "eof"; `glued` is
    true when no whitespace or comment separates it from the last token.
    """

    __slots__ = ("type", "value", "line", "col", "glued")


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    glued = False
    open_tensors: list[tuple[int, int]] = []

    def emit(type_, value, l, c, width):
        nonlocal glued
        toks.append(Token(type_, value, l, c, glued))
        glued = True
        return width

    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            glued = False
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            glued = False
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            glued = False
            continue
        l, c = line, col
        if ch == "[" and i + 1 < n and text[i + 1] == "|":
            open_tensors.append((l, c))
            w = emit("[|", "[|", l, c, 2)
        elif ch == "|" and i + 1 < n and text[i + 1] == "]":
            if open_tensors:
                open_tensors.pop()
            w = emit("|]", "|]", l, c, 2)
        elif ch == "|":
            raise LexError("stray '|'", (l, c))
        elif ch == "~" and i + 1 < n and text[i + 1] == "_":
            w = emit("~_", "~_", l, c, 2)
        elif ch == "*" and i + 1 < n and text[i + 1] == "$":
            w = emit("*$", "*$", l, c, 2)
        elif ch in "()[]{}_~!$%#^":
            w = emit(ch, ch, l, c, 1)
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string", (l, c))
            w = emit("str", "".join(buf), l, c, j + 1 - i)
        elif ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            w = emit("int", int(text[i:j]), l, c, j - i)
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            if j == i:
                raise LexError(f"unexpected character {ch!r}", (l, c))
            w = emit("sym", text[i:j], l, c, j - i)
        i += w
        col += w
    if open_tensors:
        raise LexError("unterminated tensor literal", open_tensors[-1])
    toks.append(Token("eof", None, line, col, False))
    return toks


# ---------------------------------------------------------------------------
# abstract syntax

Label = str | int  # symbol name, 1-based component, or "#" for a dummy


class MarkAst(Record):
    """An index mark in the source.

    `variance` is 1 superscript, -1 subscript, 0 supersubscript; `label` is
    a Label, or None only in define signatures.
    """

    __slots__ = ("variance", "label")


# A node's `loc` is its source (line, col), or None.


class IntLit(Record):
    __slots__ = ("value", "loc")


class StrLit(Record):
    __slots__ = ("value", "loc")


class SymbolRef(Record):
    __slots__ = ("name", "loc")


class IndexedRef(Record):
    __slots__ = ("base", "marks", "loc")  # marks: tuple of MarkAst


class TensorLit(Record):
    __slots__ = ("elements", "loc")


class Braces(Record):
    __slots__ = ("items", "loc")


class Apply(Record):
    __slots__ = ("fn", "args", "loc")


class BangApply(Record):
    __slots__ = ("fn", "args", "loc")


class Lambda(Record):
    __slots__ = ("params", "body", "loc")  # params: tuple of (sigil, name)


class Define(Record):
    __slots__ = ("name", "signature", "body", "loc")  # signature: tuple of MarkAst


class WithSymbols(Record):
    __slots__ = ("names", "body", "loc")


class Let(Record):
    __slots__ = ("bindings", "body", "loc")  # bindings: tuple of (name, Node)


class If(Record):
    __slots__ = ("cond", "then", "other", "loc")


Node = (
    IntLit | StrLit | SymbolRef | IndexedRef | TensorLit | Braces
    | Apply | BangApply | Lambda | Define | WithSymbols | Let | If
)

_MARK_TOKENS = {"_": -1, "~": 1, "~_": 0}
_SIGILS = {"$", "%", "*$"}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, type_: str) -> Token:
        t = self.next()
        if t.type != type_:
            raise ParseError(f"expected {type_!r}, found {t.value!r}", (t.line, t.col))
        return t

    def loc(self, t: Token) -> tuple:
        return (t.line, t.col)

    # -- expressions --------------------------------------------------------

    def expression(self) -> Node:
        return self.postfixes(self.primary())

    def primary(self) -> Node:
        t = self.next()
        if t.type == "int":
            return IntLit(t.value, self.loc(t))
        if t.type == "str":
            return StrLit(t.value, self.loc(t))
        if t.type == "sym":
            return SymbolRef(t.value, self.loc(t))
        if t.type == "[|":
            elems = []
            while self.peek().type != "|]":
                if self.peek().type == "eof":
                    raise ParseError("unterminated tensor literal", self.loc(t))
                elems.append(self.expression())
            self.next()
            if not elems:
                raise ParseError("empty tensor literal", self.loc(t))
            return TensorLit(tuple(elems), self.loc(t))
        if t.type == "{":
            items = []
            while self.peek().type != "}":
                if self.peek().type == "eof":
                    raise ParseError("unterminated '{'", self.loc(t))
                items.append(self.expression())
            self.next()
            return Braces(tuple(items), self.loc(t))
        if t.type == "!":
            opener = self.expect("(")
            form = self.form(opener)
            if not isinstance(form, Apply):
                raise ParseError("'!' must precede a function application", self.loc(t))
            return BangApply(form.fn, form.args, self.loc(t))
        if t.type == "(":
            return self.form(t)
        raise ParseError(f"unexpected {t.value!r}", (t.line, t.col))

    def postfixes(self, base: Node) -> Node:
        while True:
            t = self.peek()
            if t.type in _MARK_TOKENS and t.glued:
                marks = []
                while self.peek().type in _MARK_TOKENS and self.peek().glued:
                    mt = self.next()
                    marks.append(MarkAst(_MARK_TOKENS[mt.type], self.mark_label()))
                base = IndexedRef(base, tuple(marks), self.loc(t))
            elif t.type == "^" and t.glued:
                self.next()
                e = self.peek()
                if e.type != "int" or not e.glued:
                    raise ParseError("'^' needs an integer exponent", (e.line, e.col))
                self.next()
                base = Apply(
                    SymbolRef("^", self.loc(t)),
                    (base, IntLit(e.value, self.loc(e))),
                    self.loc(t),
                )
            else:
                return base

    def mark_label(self) -> Label:
        t = self.peek()
        if t.glued and t.type in ("sym", "int", "#"):
            self.next()
            return "#" if t.type == "#" else t.value
        raise ParseError("index mark needs a label", (t.line, t.col))

    # -- parenthesized forms -------------------------------------------------

    def form(self, opener: Token) -> Node:
        head = self.peek()
        if head.type == "sym":
            handler = {
                "define": self.define_form,
                "lambda": self.lambda_form,
                "with-symbols": self.with_symbols_form,
                "let": self.let_form,
                "if": self.if_form,
            }.get(head.value)
            if handler is not None:
                self.next()
                return handler(opener)
        fn = self.expression()
        args = []
        while self.peek().type != ")":
            if self.peek().type == "eof":
                raise ParseError("unterminated '('", self.loc(opener))
            args.append(self.expression())
        self.next()
        return Apply(fn, tuple(args), self.loc(opener))

    def define_form(self, opener: Token) -> Node:
        if self.peek().type == "$":
            self.next()
        name = self.expect("sym")
        sig = []
        while self.peek().type in _MARK_TOKENS and self.peek().glued:
            mt = self.next()
            label = None
            t = self.peek()
            if t.glued and t.type in ("sym", "int", "#"):
                self.next()
                label = "#" if t.type == "#" else t.value
            if mt.type == "~_" and label is None:
                # a bare "~_" in a name is two marks, not a supersubscript
                sig.append(MarkAst(1, None))
                sig.append(MarkAst(-1, None))
            else:
                sig.append(MarkAst(_MARK_TOKENS[mt.type], label))
        body = self.expression()
        self.expect(")")
        node = Define(name.value, tuple(sig), body, self.loc(opener))
        return desugar_define_indices(node)

    def lambda_form(self, opener: Token) -> Node:
        self.expect("[")
        params = []
        while self.peek().type != "]":
            t = self.next()
            if t.type not in _SIGILS:
                raise ParseError(
                    "parameter needs a '$', '%', or '*$' sigil", (t.line, t.col)
                )
            name = self.expect("sym")
            params.append((t.type, name.value))
        self.next()
        body = self.expression()
        self.expect(")")
        return Lambda(tuple(params), body, self.loc(opener))

    def with_symbols_form(self, opener: Token) -> Node:
        self.expect("{")
        names = []
        while self.peek().type != "}":
            names.append(self.expect("sym").value)
        self.next()
        body = self.expression()
        self.expect(")")
        return WithSymbols(tuple(names), body, self.loc(opener))

    def let_form(self, opener: Token) -> Node:
        self.expect("{")
        bindings = []
        while self.peek().type != "}":
            self.expect("[")
            if self.peek().type in _SIGILS:
                self.next()
            name = self.expect("sym")
            value = self.expression()
            self.expect("]")
            bindings.append((name.value, value))
        self.next()
        body = self.expression()
        self.expect(")")
        return Let(tuple(bindings), body, self.loc(opener))

    def if_form(self, opener: Token) -> Node:
        cond = self.expression()
        then = self.expression()
        other = self.expression()
        self.expect(")")
        return If(cond, then, other, self.loc(opener))


def parse_program(text: str) -> list[Node]:
    """Parse source text into a list of (desugared) top-level forms.

    A form nested too deeply for the Python stack is a ParseError located at
    the start of that top-level form; the recursion limit is left alone.
    """
    p = _Parser(tokenize(text))
    forms = []
    while p.peek().type != "eof":
        start = p.peek()
        try:
            forms.append(p.expression())
        except RecursionError:
            raise ParseError("nesting too deep", p.loc(start)) from None
    return forms


# ---------------------------------------------------------------------------
# define-name desugaring

def desugar_define_indices(node: Define) -> Define:
    """Rewrite `(define $T_i_j E)` to the signature-plus-with-symbols form.

    `(define $Γ_i_j_k E)` becomes
    `(define $Γ___ (with-symbols {i j k} (transpose {i j k} E)))`;
    defines with bare or absent marks pass through unchanged.
    """
    if not any(m.label is not None for m in node.signature):
        return node
    labels = []
    for m in node.signature:
        if m.label is None:
            raise DesugarError(
                f"define name {node.name!r} mixes bare and labeled indices", node.loc
            )
        if not isinstance(m.label, str) or m.label == "#":
            raise DesugarError(
                f"define name {node.name!r} needs symbolic indices", node.loc
            )
        labels.append(m.label)
    if len(set(labels)) != len(labels):
        raise DesugarError(
            f"define name {node.name!r} repeats an index symbol", node.loc
        )
    refs = Braces(tuple(SymbolRef(s) for s in labels))
    body = WithSymbols(
        tuple(labels),
        Apply(SymbolRef("transpose"), (refs, node.body)),
    )
    signature = tuple(MarkAst(m.variance, None) for m in node.signature)
    return Define(node.name, signature, body, node.loc)


# ---------------------------------------------------------------------------
# unparser

_VARIANCE_STR = {1: "~", -1: "_", 0: "~_"}


def _mark_str(m: MarkAst) -> str:
    return _VARIANCE_STR[m.variance] + ("" if m.label is None else str(m.label))


def unparse(node: Node) -> str:
    """Render a node back to surface syntax (canonical spacing)."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, StrLit):
        escaped = node.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(node, SymbolRef):
        return node.name
    if isinstance(node, IndexedRef):
        return unparse(node.base) + "".join(_mark_str(m) for m in node.marks)
    if isinstance(node, TensorLit):
        return "[|" + " ".join(unparse(e) for e in node.elements) + "|]"
    if isinstance(node, Braces):
        return "{" + " ".join(unparse(e) for e in node.items) + "}"
    if isinstance(node, Apply):
        if (
            isinstance(node.fn, SymbolRef)
            and node.fn.name == "^"
            and len(node.args) == 2
            and isinstance(node.args[1], IntLit)
        ):
            return f"{unparse(node.args[0])}^{node.args[1].value}"
        return "(" + " ".join(unparse(e) for e in (node.fn, *node.args)) + ")"
    if isinstance(node, BangApply):
        return "!(" + " ".join(unparse(e) for e in (node.fn, *node.args)) + ")"
    if isinstance(node, Lambda):
        params = " ".join(sigil + name for sigil, name in node.params)
        return f"(lambda [{params}] {unparse(node.body)})"
    if isinstance(node, Define):
        marks = "".join(_mark_str(m) for m in node.signature)
        return f"(define ${node.name}{marks} {unparse(node.body)})"
    if isinstance(node, WithSymbols):
        return f"(with-symbols {{{' '.join(node.names)}}} {unparse(node.body)})"
    if isinstance(node, Let):
        binds = " ".join(f"[${n} {unparse(e)}]" for n, e in node.bindings)
        return f"(let {{{binds}}} {unparse(node.body)})"
    if isinstance(node, If):
        return f"(if {unparse(node.cond)} {unparse(node.then)} {unparse(node.other)})"
    raise TypeError(f"cannot unparse {node!r}")
