"""Lexer, parser, desugarer, and unparser for the surface language.

The syntax is a parenthesized prefix notation with three extra pieces: tensor
literals `[|...|]`, index suffixes (`_i`, `~j`, `~_k`, `_2`, `_#`) that glue
onto the expression before them, and parameter sigils (`$`, `%`, `*$`).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .application import ParamKind
from .errors import LexError, ParseError
from .record import Record
from .symexpr import MAX_DIGITS
from .tensor import VARIANCE_STR, IndexMark, mark_str

__all__ = [
    "Apply",
    "Braces",
    "Define",
    "If",
    "IndexedRef",
    "IntLit",
    "Lambda",
    "Let",
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
# Each opener and the name an unclosed one is reported by; any closer pops the innermost.
_OPENERS = {"(": "'('", "[": "'['", "{": "'{'", "[|": "tensor literal"}
_CLOSERS = {")", "]", "}", "|]"}


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0  # a column is 1 plus the offset from line_start
    glued = False
    open_brackets: list[tuple[str, int, int]] = []
    for punct, string, num, sym, stray, blanks in _LEXEME.findall(text):
        c = pos - line_start + 1
        if punct:
            if punct in _OPENERS:
                open_brackets.append((punct, line, c))
            elif punct in _CLOSERS and open_brackets:
                open_brackets.pop()
            toks.append(_token(Token, (punct, punct, line, c, glued)))
        elif sym:
            toks.append(_token(Token, ("sym", sym, line, c, glued)))
        elif num:
            if len(num.lstrip("-")) > MAX_DIGITS:
                raise LexError(f"integer literal of more than {MAX_DIGITS} digits", (line, c))
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
    if open_brackets:
        opener, line, c = open_brackets[-1]
        raise LexError(f"unterminated {_OPENERS[opener]}", (line, c))
    toks.append(_token(Token, ("eof", None, line, pos - line_start + 1, False)))
    return toks


# ---------------------------------------------------------------------------
# abstract syntax

# A node's `loc` is its source (line, col), or None.


class IntLit(Record):
    __slots__ = ("value", "loc")


class StrLit(Record):
    __slots__ = ("value", "loc")


class SymbolRef(Record):
    __slots__ = ("name", "loc")


class IndexedRef(Record):
    __slots__ = ("base", "marks", "loc")  # marks: tuple of IndexMark


class TensorLit(Record):
    __slots__ = ("elements", "loc")


class Braces(Record):
    __slots__ = ("items", "loc")


class Apply(Record):
    __slots__ = ("fn", "args", "distinct", "loc")  # distinct: written with `!`
    _defaults = {"distinct": False}


class Lambda(Record):
    __slots__ = ("params", "body", "loc")  # params: tuple of (ParamKind, name)


class Define(Record):
    __slots__ = ("name", "signature", "body", "loc")  # signature: tuple of IndexMark


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

_MARK_TOKENS = {spelling: v for v, spelling in VARIANCE_STR.items()}
_SUFFIXES = {*_MARK_TOKENS, "^"}  # the tokens that glue onto an expression
_SIGILS = {kind.value: kind for kind in ParamKind}
_SPECIAL_FORMS = {"define", "lambda", "with-symbols", "let", "if"}


def parse_program(text: str, located: bool = True) -> list[Node]:
    """Parse source text into a list of (desugared) top-level forms.

    Each node's `loc` is where it starts in the text.  With `located` false
    every `loc` is None, so that an error raised while evaluating the nodes
    (the prelude's) is located at the user's node that reached them; parse
    errors are located in the text either way, a name bound twice in one
    binding form at the form's '('.  A form nested too deeply for the Python
    stack is a ParseError located at the start of that top-level form; the
    recursion limit is left alone.
    """
    toks = tokenize(text)
    pos = 0

    def expect(type_: str) -> Token:
        nonlocal pos
        t = toks[pos]
        pos += 1
        if t.type != type_:
            found = "end of input" if t.type == "eof" else repr(t.value)
            raise ParseError(f"expected {type_!r}, found {found}", (t.line, t.col))
        return t

    def until(close: str, item) -> tuple:
        """What `item` reads up to the token `close`, which it then steps over;
        the lexer has closed every bracket, so `close` comes before the end."""
        nonlocal pos
        items = []
        while toks[pos].type != close:
            items.append(item())
        pos += 1
        return tuple(items)

    def marks(labeled: bool) -> tuple:
        """The index marks glued on at the cursor.  A reference's mark needs a
        glued label; a signature's need not, and there a bare `~_` is two
        marks, not a supersubscript."""
        nonlocal pos
        out = []
        while toks[pos].type in _MARK_TOKENS and toks[pos].glued:
            m, t = toks[pos], toks[pos + 1]
            pos += 1
            if t.glued and t.type in ("sym", "int", "#"):
                pos += 1
                out.append(IndexMark(_MARK_TOKENS[m.type], t.value))
            elif labeled:
                raise ParseError("index mark needs a label", (t.line, t.col))
            elif m.type == "~_":
                out += (IndexMark(1, None), IndexMark(-1, None))
            else:
                out.append(IndexMark(_MARK_TOKENS[m.type], None))
        return tuple(out)

    def expression(top: bool = False) -> Node:
        """A primary and the index marks and `^` exponents glued after it;
        only a `top` expression, a whole top-level form, may be a define."""
        nonlocal pos
        t = toks[pos]
        pos += 1
        kind = t.type
        loc = (t.line, t.col) if located else None
        if kind == "int":
            node = IntLit(t.value, loc)
        elif kind == "str":
            node = StrLit(t.value, loc)
        elif kind == "sym" or kind == "^":  # an unglued `^` names the power function
            node = SymbolRef(t.value, loc)
        elif kind == "[|":
            node = TensorLit(until("|]", expression), loc)
            if not node.elements:
                raise ParseError("empty tensor literal", (t.line, t.col))
        elif kind == "{":
            node = Braces(until("}", expression), loc)
        elif kind == "(" or kind == "!":
            node = form(t if kind == "(" else expect("("), loc, kind == "!")
            if kind == "!" and not isinstance(node, Apply):
                raise ParseError("'!' must precede a function application", (t.line, t.col))
            if isinstance(node, Define):
                after = toks[pos]
                if not top or after.glued and after.type in _SUFFIXES:
                    raise ParseError("define must be a top-level form", (t.line, t.col))
        else:
            raise ParseError(f"unexpected {t.value!r}", (t.line, t.col))
        while toks[pos].glued:
            t = toks[pos]
            if t.type in _MARK_TOKENS:
                node = IndexedRef(node, marks(True), (t.line, t.col) if located else None)
            elif t.type == "^":
                e = toks[pos + 1]
                if e.type != "int" or not e.glued:
                    raise ParseError("'^' needs an integer exponent", (e.line, e.col))
                pos += 2
                loc = (t.line, t.col) if located else None
                exponent = IntLit(e.value, (e.line, e.col) if located else None)
                node = Apply(SymbolRef("^", loc), (node, exponent), False, loc)
            else:
                break
        return node

    def form(opener: Token, loc: tuple | None, distinct: bool) -> Node:
        """The form after its '(' `opener`; an application is located at `loc`."""
        nonlocal pos
        head = toks[pos].value if toks[pos].type == "sym" else None
        if head not in _SPECIAL_FORMS:
            return Apply(expression(), until(")", expression), distinct, loc)
        pos += 1
        names = ()
        if head == "define":
            if toks[pos].type == "$":
                pos += 1
            node = Define(expect("sym").value, marks(False), expression(), loc)
        elif head == "lambda":
            expect("[")
            node = Lambda(until("]", parameter), expression(), loc)
            names = [name for _, name in node.params]
        elif head == "with-symbols":
            expect("{")
            node = WithSymbols(until("}", lambda: expect("sym").value), expression(), loc)
            names = node.names
        elif head == "let":
            expect("{")
            node = Let(until("}", binding), expression(), loc)
            names = [name for name, _ in node.bindings]
        else:
            node = If(expression(), expression(), expression(), loc)
        expect(")")
        at = (opener.line, opener.col)  # whether or not the nodes are located
        if head == "define":  # its index symbols: none when every mark is bare
            names = [m.label for m in node.signature if m.label is not None]
            for m in node.signature if names else ():
                if not isinstance(m.label, str) or m.label == "#":
                    shape = "mixes bare and labeled" if m.label is None else "needs symbolic"
                    raise ParseError(f"define name {node.name!r} {shape} indices", at)
        if len(set(names)) < len(names):  # the one rule: a form binds each name once
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            if head == "define":
                raise ParseError(f"define name {node.name!r} repeats an index symbol", at)
            raise ParseError(f"{head} binds {twice!r} twice", at)
        return desugar_define_indices(node) if head == "define" else node

    def parameter() -> tuple:
        nonlocal pos
        t = toks[pos]
        pos += 1
        kind = _SIGILS.get(t.type)
        if kind is None:
            raise ParseError("parameter needs a '$', '%', or '*$' sigil", (t.line, t.col))
        return kind, expect("sym").value

    def binding() -> tuple:
        nonlocal pos
        expect("[")
        if toks[pos].type in _SIGILS:
            pos += 1
        name_value = expect("sym").value, expression()
        expect("]")
        return name_value

    forms = []
    while toks[pos].type != "eof":
        start = toks[pos]
        try:
            forms.append(expression(True))
        except RecursionError:
            raise ParseError("nesting too deep", (start.line, start.col)) from None
    # the closures above refer to one another, a cycle that holds `toks`:
    # emptying it frees the tokens now, not at the next cyclic collection
    toks.clear()
    return forms


# ---------------------------------------------------------------------------
# define-name desugaring

def desugar_define_indices(node: Define) -> Define:
    """Rewrite `(define $T_i_j E)` to the signature-plus-with-symbols form.

    `(define $Γ_i_j_k E)` becomes
    `(define $Γ___ (with-symbols {i j k} (transpose {i j k} E)))`;
    defines with bare or absent marks pass through unchanged.  A rewrite of
    a name the parser has already checked: all bare, or distinct symbols.
    """
    labels = tuple(m.label for m in node.signature if m.label is not None)
    if not labels:
        return node
    # The generated nodes carry the define's location, so an error raised
    # inside them (say, by the transpose) is reported where the define is.
    loc = node.loc
    refs = Braces(tuple(SymbolRef(s, loc) for s in labels), loc)
    body = WithSymbols(
        labels,
        Apply(SymbolRef("transpose", loc), (refs, node.body), loc=loc),
        loc,
    )
    signature = tuple(IndexMark(m.variance, None) for m in node.signature)
    return Define(node.name, signature, body, node.loc)


# ---------------------------------------------------------------------------
# unparser

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
        return unparse(node.base) + "".join(mark_str(m) for m in node.marks)
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
        params = " ".join(kind.value + name for kind, name in node.params)
        return f"(lambda [{params}] {unparse(node.body)})"
    if isinstance(node, Define):
        marks = "".join(mark_str(m) for m in node.signature)
        return f"(define ${node.name}{marks} {unparse(node.body)})"
    if isinstance(node, WithSymbols):
        return f"(with-symbols {{{' '.join(node.names)}}} {unparse(node.body)})"
    if isinstance(node, Let):
        binds = " ".join(f"[${n} {unparse(e)}]" for n, e in node.bindings)
        return f"(let {{{binds}}} {unparse(node.body)})"
    if isinstance(node, If):
        return f"(if {unparse(node.cond)} {unparse(node.then)} {unparse(node.other)})"
    raise TypeError(f"cannot unparse {node!r}")
