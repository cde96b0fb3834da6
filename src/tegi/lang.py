"""Lexer, parser, desugarer, and unparser for the surface language.

The syntax is a parenthesized prefix notation with three extra pieces: tensor
literals `[|...|]`, index suffixes (`_i`, `~j`, `~_k`, `_2`, `_#`) that glue
onto the expression before them, and parameter sigils (`$`, `%`, `*$`).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import DesugarError, LexError, ParseError
from .record import Record

__all__ = [
    "Apply",
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
    "VARIANCE_STR",
    "WithSymbols",
    "desugar_define_indices",
    "parse_program",
    "tokenize",
    "unparse",
]


# ---------------------------------------------------------------------------
# tokens

Token = namedtuple("Token", "type value line col glued")
Token.__doc__ = """A lexeme and the position where it starts.

`type` is the punctuation itself for ( ) [ ] { } [| |] _ ~ ~_ ! $ % *$ # ^,
else "int" | "sym" | "str" | "eof"; `glued` is true when no whitespace
or comment separates it from the last token.  The lexer builds tokens with
`tuple.__new__`, which skips the Python-level constructor.
"""
_token = tuple.__new__


# One lexeme, then the blanks and comments after it; `findall` reads the
# whole text as a run of such matches, the first with no lexeme when the
# text starts with blanks, and the last empty.  A '"' that opens no string
# takes the rest of the text, so a failed string is scanned once, not once
# per later '"'.
_LEXEME = re.compile(
    r"""(?: (\[\||\|\]|~_|\*\$|[()\[\]{}_~!$%\#^])      # punctuation
          | ("(?:\\[\s\S]|[^"\\])*")                    # string, quotes included
          | (-?\d+)                                     # integer
          | ([^ \t\r\n()\[\]{}|~_$%\#!^;"]+)            # symbol
          | (\||"[\s\S]*)                               # stray '|', or '"' with no end
        )?
        ((?:[ \t\r\n]|;[^\n]*)*)                        # blanks and comments after it
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0  # a column is 1 plus the offset from line_start
    glued = False
    open_tensors: list[tuple[int, int]] = []
    for punct, string, num, sym, stray, blanks in _LEXEME.findall(text):
        c = pos - line_start + 1
        if punct:
            if punct == "[|":
                open_tensors.append((line, c))
            elif punct == "|]" and open_tensors:
                open_tensors.pop()
            toks.append(_token(Token, (punct, punct, line, c, glued)))
        elif sym:
            toks.append(_token(Token, ("sym", sym, line, c, glued)))
        elif num:
            toks.append(_token(Token, ("int", int(num), line, c, glued)))
        elif string:
            toks.append(_token(Token, ("str", _ESCAPE.sub(r"\1", string[1:-1]), line, c, glued)))
        elif stray:
            raise LexError("stray '|'" if stray == "|" else "unterminated string", (line, c))
        end = pos + len(punct or sym or num or string) + len(blanks)
        if "\n" in blanks or "\n" in string:
            line += text.count("\n", pos, end)
            line_start = text.rindex("\n", pos, end) + 1
        pos, glued = end, not blanks
    if open_tensors:
        raise LexError("unterminated tensor literal", open_tensors[-1])
    toks.append(_token(Token, ("eof", None, line, pos - line_start + 1, False)))
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
    __slots__ = ("fn", "args", "distinct", "loc")  # distinct: written with `!`
    _defaults = {"distinct": False}


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
    | Apply | Lambda | Define | WithSymbols | Let | If
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
        if t.type in ("sym", "^"):  # an unglued `^` names the power function
            return SymbolRef(t.value, self.loc(t))
        if t.type == "[|":
            elems = []
            while self.peek().type != "|]":  # the lexer rejects an unclosed [|
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
            return Apply(form.fn, form.args, True, self.loc(t))
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
                    loc=self.loc(t),
                )
            else:
                return base

    def glued_label(self) -> Label | None:
        """Read the label glued onto the mark just read, or None if there is none."""
        t = self.peek()
        if t.glued and t.type in ("sym", "int", "#"):
            self.next()
            return "#" if t.type == "#" else t.value
        return None

    def mark_label(self) -> Label:
        label = self.glued_label()
        if label is None:
            t = self.peek()
            raise ParseError("index mark needs a label", (t.line, t.col))
        return label

    # -- parenthesized forms -------------------------------------------------

    def form(self, opener: Token) -> Node:
        head = self.peek()
        if head.type == "sym":
            handler = _SPECIAL_FORMS.get(head.value)
            if handler is not None:
                self.next()
                return handler(self, opener)
        fn = self.expression()
        args = []
        while self.peek().type != ")":
            if self.peek().type == "eof":
                raise ParseError("unterminated '('", self.loc(opener))
            args.append(self.expression())
        self.next()
        return Apply(fn, tuple(args), loc=self.loc(opener))

    def define_form(self, opener: Token) -> Node:
        if self.peek().type == "$":
            self.next()
        name = self.expect("sym")
        sig = []
        while self.peek().type in _MARK_TOKENS and self.peek().glued:
            mt = self.next()
            label = self.glued_label()
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


# the parser method for each special form, keyed by its head symbol
_SPECIAL_FORMS = {
    "define": _Parser.define_form,
    "lambda": _Parser.lambda_form,
    "with-symbols": _Parser.with_symbols_form,
    "let": _Parser.let_form,
    "if": _Parser.if_form,
}


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
    # The generated nodes carry the define's location, so an error raised
    # inside them (say, by the transpose) is reported where the define is.
    loc = node.loc
    refs = Braces(tuple(SymbolRef(s, loc) for s in labels), loc)
    body = WithSymbols(
        tuple(labels),
        Apply(SymbolRef("transpose", loc), (refs, node.body), loc=loc),
        loc,
    )
    signature = tuple(MarkAst(m.variance, None) for m in node.signature)
    return Define(node.name, signature, body, node.loc)


# ---------------------------------------------------------------------------
# unparser

# How each variance is spelled, in source and in everything printed.
VARIANCE_STR = {1: "~", -1: "_", 0: "~_"}


def _mark_str(m: MarkAst) -> str:
    return VARIANCE_STR[m.variance] + ("" if m.label is None else str(m.label))


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
            not node.distinct
            and isinstance(node.fn, SymbolRef)
            and node.fn.name == "^"
            and len(node.args) == 2
            and isinstance(node.args[1], IntLit)
        ):
            return f"{unparse(node.args[0])}^{node.args[1].value}"
        opener = "!(" if node.distinct else "("
        return opener + " ".join(unparse(e) for e in (node.fn, *node.args)) + ")"
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
