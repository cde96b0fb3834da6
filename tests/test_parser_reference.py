"""Differential test: the parser against the class-based parser it replaced.

`oracles.parse_ref` reads each construct through per-token methods, with a
loop of its own for each bracketed sequence; `tegi.lang.parse_program`
reads each construct once.  Both must give equal trees with equal source
locations, or an error of the same class, message and location.  Record
equality ignores `loc`, so the locations are compared through a walk of
the trees.  Parsed with `located=False`, the trees must also equal the
reference's, with no location anywhere, and errors stay the same.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tegi.errors import TegiError
from tegi.lang import parse_program, tokenize
from tegi.record import Record

from oracles import parse_ref

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.tegi"))
TEXTS = [p.read_text(encoding="utf-8") for p in PROGRAMS]

# Every punctuation token, the special-form heads, symbols that are index
# labels, integers and a string; a glued pair of these may lex as one token.
VOCABULARY = [
    "(", ")", "[", "]", "{", "}", "[|", "|]", "_", "~", "~_", "!", "$", "%", "*$", "#",
    "^", "define", "lambda", "with-symbols", "let", "if", "f", "i", "j", "1", "-2", '"s"',
]
SEPARATORS = ["", "", " ", "\n"]  # mostly glued


def locations(x) -> list:
    """The `loc` of every node in x, in a pre-order walk."""
    if isinstance(x, (tuple, list)):
        return [loc for y in x for loc in locations(y)]
    if isinstance(x, Record):
        return [getattr(x, "loc", None), *locations(x._values(x))]
    return []


def parsed(parse, text):
    try:
        forms = parse(text)
    except TegiError as exc:
        return type(exc), str(exc), exc.location
    return forms, locations(forms)


def assert_parses_as_the_reference(text):
    want = parsed(parse_ref, text)
    assert parsed(parse_program, text) == want
    got = parsed(lambda t: parse_program(t, located=False), text)
    if isinstance(want[0], list):
        assert got[0] == want[0]
        assert not any(got[1])
    else:
        assert got == want


def token_offsets(text) -> list[int]:
    """The offset in text where each token starts, the end of input last."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    return [line_starts[t.line - 1] + t.col - 1 for t in tokenize(text)]


@st.composite
def slices(draw):
    """A run of whole tokens out of one of the programs."""
    text = draw(st.sampled_from(TEXTS))
    offsets = token_offsets(text)
    i = draw(st.integers(0, len(offsets) - 1))
    j = draw(st.integers(i, min(i + 60, len(offsets) - 1)))
    return text[offsets[i] : offsets[j]]


@st.composite
def mutations(draw):
    """One of the programs with one token deleted, replaced or inserted."""
    text = draw(st.sampled_from(TEXTS))
    offsets = token_offsets(text)
    i = draw(st.integers(0, len(offsets) - 2))
    new = draw(st.sampled_from(VOCABULARY)) + draw(st.sampled_from(SEPARATORS))
    end = draw(st.sampled_from([offsets[i], offsets[i + 1]]))  # insert, or replace/delete
    if end == offsets[i] or draw(st.booleans()):
        return text[: offsets[i]] + new + text[end:]
    return text[: offsets[i]] + text[end:]


soups = st.lists(
    st.tuples(st.sampled_from(VOCABULARY), st.sampled_from(SEPARATORS)), max_size=30
).map(lambda pairs: "".join(tok + sep for tok, sep in pairs))


@settings(max_examples=3000, deadline=None)
@given(soups)
@example("(define $a_i_i v extra)")  # the ')' is checked before the desugaring
@example("!(define $a_i_i v)")  # a desugar error is located at the '('
@example("!(if a b c)")
@example("(f 1")
@example("{1 2")
@example("(lambda [$x")
@example("(let {[$x 1]")
@example("(with-symbols {i")
@example("x_ ")
@example("x_i^ 2")
@example("(define $T~_ E) (define $T~_i E)")
@example("[| |]")
def test_parse_matches_the_reference_on_token_soups(text):
    assert_parses_as_the_reference(text)


@settings(max_examples=500, deadline=None)
@given(slices())
def test_parse_matches_the_reference_on_program_slices(text):
    assert_parses_as_the_reference(text)


@settings(max_examples=500, deadline=None)
@given(mutations())
def test_parse_matches_the_reference_on_mutated_programs(text):
    assert_parses_as_the_reference(text)


@pytest.mark.parametrize("text", TEXTS, ids=[p.name for p in PROGRAMS])
def test_parse_matches_the_reference_on_every_program(text):
    assert_parses_as_the_reference(text)
