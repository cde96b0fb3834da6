"""Differential test: name resolution against the README's rule.

`Environment.lookup` walks the frames once, trying signature prefixes from
the longest down and then the plain name in each; `oracles.lookup_ref`
collects every frame's candidate bindings and takes the longest signature
of the nearest frame that has any.  Every binding holds its own object, so a
lookup that picks the wrong binding is seen by identity.
"""

from hypothesis import given, settings, strategies as st

from tegi.evaluator import Environment
from tegi.tensor import SUBSCRIPT, SUPERSCRIPT, SUPERSUBSCRIPT

from oracles import lookup_ref

NAMES = st.sampled_from(["g", "h"])
VARIANCES = st.sampled_from([SUPERSCRIPT, SUBSCRIPT, SUPERSUBSCRIPT])
KEYS = NAMES | st.tuples(NAMES, st.lists(VARIANCES, min_size=1, max_size=3).map(tuple))


@st.composite
def chains(draw):
    """A chain of 1–3 frames, nearest first, of plain and signature keys."""
    env = None
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(KEYS, max_size=6, unique=True))
        env = Environment({key: object() for key in keys}, env)
    return env


@settings(max_examples=500, deadline=None)
@given(chains(), NAMES, st.lists(VARIANCES, max_size=3).map(tuple))
def test_lookup_matches_the_rule(env, name, variances):
    assert env.lookup(name, variances) is lookup_ref(env, name, variances)

