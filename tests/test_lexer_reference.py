"""Differential test: the lexer against the character loop it replaced.

`oracles.tokenize_ref` reads one character at a time; `tegi.lang.tokenize`
reads the same tokens with one regular expression.  Both must give equal
token lists, or an error of the same class, message and location.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tegi.errors import TegiError
from tegi.lang import tokenize

from oracles import tokenize_ref

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.tegi"))

# Every delimiter, the escape, the sign and the star of two-character tokens,
# letters and digits, a decimal digit outside ASCII (٣), a superscript digit
# that is not decimal (²), and two characters that are not blanks: a no-break
# space and a form feed.
ALPHABET = " \t\r\n()[]{}|~_$%#!^;\"\\-*ab19٣²\u00a0\x0c"


def lexed(lex, text):
    try:
        return lex(text)
    except TegiError as exc:
        return type(exc), str(exc), exc.location


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
@example('"a\\"b\n" c')  # an escaped quote and a newline inside a string
@example('x "a\\')  # a string cut off after its escape
@example("[| [|1|] ; |]\n")  # an unclosed tensor whose closer is commented out
@example("-1-2 - 3 *$x * $")
def test_tokenize_matches_the_reference(text):
    assert lexed(tokenize, text) == lexed(tokenize_ref, text)


@pytest.mark.parametrize("path", PROGRAMS, ids=[p.name for p in PROGRAMS])
def test_tokenize_matches_the_reference_on_every_program(path):
    text = path.read_text(encoding="utf-8")
    assert lexed(tokenize, text) == lexed(tokenize_ref, text)
