"""Tests for the lexer, parser, desugarer, and unparser."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tegi.errors import DesugarError, LexError, ParseError
from tegi.lang import (
    Apply,
    Braces,
    Define,
    If,
    IndexedRef,
    IntLit,
    Lambda,
    Let,
    SymbolRef,
    TensorLit,
    WithSymbols,
    desugar_define_indices,
    parse_program,
    tokenize,
    unparse,
)
from tegi.tensor import IndexMark


ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.tegi"))
STRING = re.compile(r'"(?:\\[\s\S]|[^"\\])*"')


def kinds(text):
    return [t.type for t in tokenize(text) if t.type != "eof"]


# Pieces of source that lex in any sequence: joined with no separator they
# glue, merge into longer symbols or split at delimiters.  A comment ends its
# line, so one without a newline may only come last.
PIECES = [
    "(", ")", "[", "]", "{", "}", "[|1|]", "_i", "~j", "~_k", "$", "%", "*$", "#", "!",
    "^2", "x", "Γ~", "∂/∂", "-3", "42", " ", "\t", "\r", "\n", "\n\n", "; c\n",
    '"s"', '"a\nb"', '"\n"',
]
TEXTS = st.builds(
    lambda pieces, last: "".join(pieces) + last,
    st.lists(st.sampled_from(PIECES), max_size=12),
    st.sampled_from(["", "; end"]),
)

# The opener each name in an `unterminated …` message is spelled with.
OPENERS = {"'('": "(", "'['": "[", "'{'": "{", "tensor literal": "[|"}
OPENER_NAMES = {opener: name for name, opener in OPENERS.items()}


def lexeme(t):
    """How a token's source text begins."""
    if t.type in ("int", "sym"):
        return str(t.value)
    return '"' if t.type == "str" else t.type


def parse1(text):
    forms = parse_program(text)
    assert len(forms) == 1
    return forms[0]


class TestTokenize:
    def test_tensor_literal_with_subscript(self):
        # [PAPER] "[|1 2|]_i"
        assert kinds("[|1 2|]_i") == ["[|", "int", "int", "|]", "_", "sym"]

    def test_partial_derivative_call(self):
        # [PAPER] "(∂/∂ Γ~i_j_k x~l)"
        toks = tokenize("(∂/∂ Γ~i_j_k x~l)")
        assert kinds("(∂/∂ Γ~i_j_k x~l)") == [
            "(", "sym", "sym", "~", "sym", "_", "sym", "_", "sym",
            "sym", "~", "sym", ")",
        ]
        assert toks[1].value == "∂/∂"

    def test_dummy_symbols(self):
        # [PAPER] "g_#_#"
        assert kinds("g_#_#") == ["sym", "_", "#", "_", "#"]

    def test_supersubscript(self):
        assert kinds("[|11 22 33|]~_i") == ["[|", "int", "int", "int", "|]", "~_", "sym"]

    def test_inverted_scalar_sigil(self):
        assert kinds("[$f *$x]") == ["[", "$", "sym", "*$", "sym", "]"]

    def test_star_alone_is_a_symbol(self):
        toks = tokenize("(* -1 r)")
        assert kinds("(* -1 r)") == ["(", "sym", "int", "sym", ")"]
        assert toks[1].value == "*" and toks[2].value == -1

    def test_caret(self):
        assert kinds("r^2") == ["sym", "^", "int"]

    def test_comments(self):
        assert kinds("1 ; a comment\n2") == ["int", "int"]

    def test_strings(self):
        toks = tokenize('"hello world"')
        assert toks[0].type == "str" and toks[0].value == "hello world"

    def test_glued_flag(self):
        spaced = tokenize("a _i")
        glued = tokenize("a_i")
        assert spaced[1].glued is False
        assert glued[1].glued is True

    def test_unterminated_tensor(self):
        with pytest.raises(LexError) as ei:
            tokenize("[|1 2")
        assert "line 1" in str(ei.value)

    @pytest.mark.parametrize("literal", ["7" * 4301, "-" + "7" * 4344, "0" * 4301])
    def test_an_integer_literal_of_more_than_4300_digits_is_refused(self, literal):
        with pytest.raises(LexError) as ei:
            tokenize(f"(+ 1\n  {literal})")
        assert str(ei.value) == "line 2, col 3: integer literal of more than 4300 digits"

    def test_an_integer_literal_of_4300_digits_is_read(self):
        assert tokenize("-" + "9" * 4300)[0].value == -(10**4300 - 1)

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_locations(self):
        toks = tokenize("(f\n  x)")
        assert (toks[2].line, toks[2].col) == (2, 3)

    def test_locations_after_a_string_spanning_lines(self):
        toks = tokenize('"a\nb" x\n"c\n\nd"(y)')
        assert [(t.line, t.col) for t in toks] == [(1, 1), (2, 4), (3, 1), (5, 3), (5, 4), (5, 5), (5, 6)]

    @pytest.mark.parametrize("text", ["²", "²2", "³r", "-²"])
    def test_non_decimal_digits_are_symbol_characters(self, text):
        # "²" passes str.isdigit but not int(); only decimal digits start an int
        assert [(t.type, t.value) for t in tokenize(text)][:-1] == [("sym", text)]

    def test_decimal_digits_end_before_a_superscript(self):
        assert [(t.type, t.value) for t in tokenize("12²")][:-1] == [("int", 12), ("sym", "²")]

    @settings(max_examples=300, deadline=None)
    @given(TEXTS)
    def test_each_token_is_located_where_its_lexeme_starts(self, text):
        # a column is 1 plus the offset from the start of its line, after
        # comments and strings spanning lines too; a bracket left open is
        # refused where its opener starts
        lines = text.split("\n")
        try:
            *toks, eof = tokenize(text)
        except LexError as exc:
            line, col = exc.location
            opener = OPENERS[exc.message.removeprefix("unterminated ")]
            assert lines[line - 1][col - 1:].startswith(opener), (exc, text)
            return
        for t in toks:
            assert lines[t.line - 1][t.col - 1:].startswith(lexeme(t)), (t, text)
        assert (eof.line, eof.col) == (len(lines), len(lines[-1]) + 1)


class TestParse:
    def test_min_lambda(self):
        # [PAPER] min function body
        got = parse1("(lambda [$x $y] (if (less-than? x y) x y))")
        assert got == Lambda(
            (("$", "x"), ("$", "y")),
            If(
                Apply(SymbolRef("less-than?"), (SymbolRef("x"), SymbolRef("y"))),
                SymbolRef("x"),
                SymbolRef("y"),
            ),
        )

    def test_bang_application(self):
        # [PAPER] !(. A B)
        got = parse1("!(. A B)")
        assert got == Apply(SymbolRef("."), (SymbolRef("A"), SymbolRef("B")), distinct=True)

    def test_bang_and_plain_applications_differ(self):
        assert parse1("!(f x)") != parse1("(f x)")
        assert parse1("(f x)").distinct is False

    def test_indexed_tensor_literal(self):
        # [PAPER] [|[|1 2|] [|3 4|]|]_j_i
        got = parse1("[|[|1 2|] [|3 4|]|]_j_i")
        assert got == IndexedRef(
            TensorLit((
                TensorLit((IntLit(1), IntLit(2))),
                TensorLit((IntLit(3), IntLit(4))),
            )),
            (IndexMark(-1, "j"), IndexMark(-1, "i")),
        )

    def test_mark_variances(self):
        assert parse1("v~i") == IndexedRef(SymbolRef("v"), (IndexMark(1, "i"),))
        assert parse1("v~_i") == IndexedRef(SymbolRef("v"), (IndexMark(0, "i"),))
        assert parse1("M_2_1") == IndexedRef(
            SymbolRef("M"), (IndexMark(-1, 2), IndexMark(-1, 1))
        )
        assert parse1("g_#_#") == IndexedRef(
            SymbolRef("g"), (IndexMark(-1, "#"), IndexMark(-1, "#"))
        )

    def test_with_symbols(self):
        got = parse1("(with-symbols {i j} (f i j))")
        assert got == WithSymbols(
            ("i", "j"), Apply(SymbolRef("f"), (SymbolRef("i"), SymbolRef("j")))
        )

    def test_let(self):
        got = parse1("(let {[$k (df-order A)]} k)")
        assert got == Let(
            (("k", Apply(SymbolRef("df-order"), (SymbolRef("A"),))),),
            SymbolRef("k"),
        )

    def test_caret_desugars_to_application(self):
        assert parse1("r^2") == Apply(SymbolRef("^"), (SymbolRef("r"), IntLit(2)))
        got = parse1("(sin θ)^2")
        assert got == Apply(
            SymbolRef("^"),
            (Apply(SymbolRef("sin"), (SymbolRef("θ"),)), IntLit(2)),
        )

    def test_plain_define(self):
        got = parse1("(define $x [|θ φ|])")
        assert got == Define("x", (), TensorLit((SymbolRef("θ"), SymbolRef("φ"))))

    def test_signature_define(self):
        got = parse1("(define $g__ M)")
        assert got == Define("g", (IndexMark(-1, None), IndexMark(-1, None)), SymbolRef("M"))

    def test_braces_argument(self):
        got = parse1("(transpose {i j} M)")
        assert got == Apply(
            SymbolRef("transpose"),
            (Braces((SymbolRef("i"), SymbolRef("j"))), SymbolRef("M")),
        )

    def test_marks_on_parenthesized_form(self):
        got = parse1("(f x)_i")
        assert got == IndexedRef(
            Apply(SymbolRef("f"), (SymbolRef("x"),)), (IndexMark(-1, "i"),)
        )

    def test_multiple_top_level_forms(self):
        assert len(parse_program("1 2 (f 3)")) == 3

    def test_unbalanced(self):
        with pytest.raises(LexError):
            parse_program("(f 1")
        with pytest.raises(ParseError):
            parse_program("(f 1))")

    def test_stray_mark(self):
        with pytest.raises(ParseError):
            parse_program("_i")
        with pytest.raises(ParseError):
            parse_program("f _i")

    def test_mark_without_label_in_expression(self):
        with pytest.raises(ParseError):
            parse_program("(contract + v_)")

    def test_parse_errors_carry_location(self):
        with pytest.raises(LexError) as ei:
            parse_program("(f\n")
        assert "line" in str(ei.value)


class TestDesugarDefineIndices:
    def test_labeled_define_rule(self):
        # [PAPER] (define $Γ_i_j_k E) =>
        #   (define $Γ___ (with-symbols {i j k} (transpose {i j k} E)))
        got = parse1("(define $Γ_i_j_k (f i j k))")
        want = parse1("(define $Γ___ (with-symbols {i j k} (transpose {i j k} (f i j k))))")
        assert got == want

    def test_mixed_variance(self):
        # [DERIVED: same rule at mixed variance]
        got = parse1("(define $ω~i_j E)")
        want = parse1("(define $ω~_ (with-symbols {i j} (transpose {i j} E)))")
        assert got == want

    def test_no_indices_unchanged(self):
        got = parse1("(define $x [|θ φ|])")
        assert got == Define("x", (), TensorLit((SymbolRef("θ"), SymbolRef("φ"))))

    def test_duplicate_labels(self):
        with pytest.raises(DesugarError):
            parse_program("(define $T_i_i E)")

    def test_mixed_bare_and_labeled(self):
        with pytest.raises(DesugarError):
            parse_program("(define $T_i_ E)")

    def test_integer_labels_rejected(self):
        with pytest.raises(DesugarError):
            parse_program("(define $T_1 E)")

    def test_direct_call(self):
        node = Define("R", (IndexMark(1, "i"), IndexMark(-1, "j")), SymbolRef("E"))
        got = desugar_define_indices(node)
        assert got.signature == (IndexMark(1, None), IndexMark(-1, None))
        assert isinstance(got.body, WithSymbols)


S2_PROGRAM = """
(define $x [| θ φ |])

(define $g__ [| [| r^2 0 |] [| 0 (* r^2 (sin θ)^2) |] |])
(define $g~~ [| [| (/ 1 r^2) 0 |] [| 0 (/ 1 (* r^2 (sin θ)^2)) |] |])

(define $Γ_i_j_k
  (* (/ 1 2)
     (+ (∂/∂ g_i_k x~j)
        (∂/∂ g_i_j x~k)
        (* -1 (∂/∂ g_j_k x~i)))))

(define $Γ~i_j_k (with-symbols {m} (. g~i~m Γ_m_j_k)))

(define $ω~i_j (with-symbols {k} Γ~i_j_k))

(define $Ω~i_j (with-symbols {k}
  (df-normalize (+ (d ω~i_j)
                   (wedge ω~i_k ω~k_j)))))
"""


class TestUnparse:
    def test_atoms(self):
        assert unparse(parse1("[|1 2|]_i")) == "[|1 2|]_i"
        assert unparse(parse1("x~_i")) == "x~_i"
        assert unparse(parse1("g_#_#")) == "g_#_#"
        assert unparse(parse1("r^2")) == "r^2"
        assert unparse(parse1("!(. A B)")) == "!(. A B)"
        assert unparse(parse1("!(f x)")) == "!(f x)"
        # a distinct power keeps its `!`, so it never becomes `^` sugar
        power = Apply(SymbolRef("^"), (SymbolRef("r"), IntLit(2)), distinct=True)
        assert unparse(power) == "!(^ r 2)"

    def test_desugared_define(self):
        got = unparse(parse1("(define $Γ_i_j_k E)"))
        assert got == "(define $Γ___ (with-symbols {i j k} (transpose {i j k} E)))"

    def test_lambda(self):
        text = "(lambda [$f *$x] (derivative f x))"
        assert unparse(parse1(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "(define $min (lambda [$x $y] (if (less-than? x y) x y)))",
            "(define $. (lambda [%t1 %t2] (contract + (* t1 t2))))",
            "(. [|1 2 3|]~i [|10 20 30|]_i)",
            "(with-symbols {j} [|[|1 2|] [|3 4|]|]_j_i)",
            "(contract + [|11 22 33|]~_i)",
            "(let {[$k (df-order A)] [$n 2]} (+ k n))",
            "(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j)",
            "!((flip ∂/∂) x A)",
            r'(f "a\"b\\c")',
            S2_PROGRAM,
        ],
    )
    def test_round_trip(self, text):
        # parse . unparse . parse == parse
        first = parse_program(text)
        again = parse_program("\n".join(unparse(f) for f in first))
        assert again == first

    @pytest.mark.parametrize(
        "node, text",
        [
            (Apply(SymbolRef("^"), (SymbolRef("r"), IntLit(2)), distinct=True), "!(^ r 2)"),
            (Apply(SymbolRef("^"), (SymbolRef("r"), SymbolRef("n"))), "(^ r n)"),
        ],
    )
    def test_power_without_sugar_round_trips(self, node, text):
        # neither node can be written as `r^2`, so `^` heads the form
        assert unparse(node) == text
        assert parse_program(text) == [node]


def token_spans(text):
    """(start, end, type) of each token of text, as offsets into it."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for t in tokenize(text)[:-1]:
        start = line_starts[t.line - 1] + t.col - 1
        if t.type == "str":
            end = STRING.match(text, start).end()
        else:
            end = start + len(str(t.value) if t.type in ("int", "sym") else t.type)
        yield start, end, t.type


def prefix_errors(text):
    """Each prefix of text, cut at every character, with the error its
    parse must raise: a string or a `|]` cut in two is refused where it
    starts, else a bracket left open is refused at the innermost opener; a
    prefix with no bracket open has None and must parse or be a ParseError."""
    def where(offset):
        line_start = text.rfind("\n", 0, offset) + 1
        return text.count("\n", 0, offset) + 1, offset - line_start + 1

    spans, j, opened = list(token_spans(text)), 0, []
    for k in range(len(text) + 1):
        while j < len(spans) and spans[j][1] <= k:
            start, _, kind = spans[j]
            if kind in OPENER_NAMES:
                opened.append((OPENER_NAMES[kind], start))
            elif kind in (")", "]", "}", "|]"):
                opened.pop()
            j += 1
        start, _, kind = spans[j] if j < len(spans) and spans[j][0] < k else (k, k, None)
        if kind == "str":
            want = LexError, "unterminated string", where(start)
        elif kind == "|]":
            want = LexError, "stray '|'", where(start)
        elif kind == "[|" or opened:  # a `[|` cut in two leaves its `[` open
            name, at = ("'['", start) if kind == "[|" else opened[-1]
            want = LexError, f"unterminated {name}", where(at)
        else:
            want = None
        yield text[:k], want


@pytest.mark.parametrize("path", PROGRAMS, ids=[p.name for p in PROGRAMS])
def test_every_prefix_of_a_program_parses_or_is_a_located_error(path):
    # an unfinished program names its innermost open bracket, and no parse
    # error names Python's None where a token belongs
    wrong = []
    for prefix, want in prefix_errors(path.read_text(encoding="utf-8")):
        try:
            parse_program(prefix)
            got = None
        except (LexError, ParseError) as exc:
            got = type(exc), exc.message, exc.location
        if want is not None:
            ok = got == want
        else:
            ok = got is None or got[0] is ParseError and got[2] and "None" not in got[1]
        if not ok:
            wrong.append((prefix[-30:], want, got))
    assert not wrong, (len(wrong), wrong[:5])
