"""Differential tests: the engine's value records against the dataclasses
they replace (`DATACLASS_TWINS` in `tests/oracles.py`).

Both sides are built from the same arguments and compared on equality,
hashing, repr, the ignored `loc`, immutability, pickling and construction
errors: the TensorValue checks, and the `TypeError` of a wrong argument
count or an unknown keyword.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from oracles import DATACLASS_TWINS
from tegi import evaluator, lang, symexpr, tensor
from tegi.application import SCALAR, TENSOR
from tegi.errors import TegiError
from tegi.symexpr import ONE, ZERO, add, div, integer, sin, symbol

NAMES = sorted(DATACLASS_TWINS)
MODULES = (lang, tensor, symexpr, evaluator)
ENGINE = {n: next(getattr(m, n) for m in MODULES if hasattr(m, n)) for n in NAMES}
NODES = {"Sym", "Fun", "Inv", "Expr"}  # atoms hash by identity, an Expr by its terms
UNHASHABLE = {"Function"}
# classes whose instances can hold the same field values
SHARED_FIELDS = [
    ("IntLit", "StrLit", "SymbolRef", "TensorLit", "Braces"),
    ("Lambda", "WithSymbols", "Let"),
    ("Fun", "Sym"),
    ("Inv", "Expr"),
]

X, Y = symbol("x"), symbol("y")
EXPRS = [ZERO, ONE, X, add(X, Y), sin(X), div(integer(1), add(X, Y))]
PLAIN = [0, 1, "a", "b", (), (1, 2), None, True, lang.IntLit(1), lang.IntLit(1, (3, 4))]
LOCS = [None, (1, 1), (2, 5)]
MARKS = [tensor.IndexMark(1, "a"), tensor.IndexMark(-1, 2)]
SPECIAL = {
    ("Sym", "name"): st.sampled_from(["x", "y"]),
    ("Sym", "uid"): st.sampled_from([0, 1]),
    ("Fun", "tag"): st.sampled_from(["sin", "cos"]),
    ("Fun", "arg"): st.sampled_from(EXPRS),
    ("Inv", "arg"): st.sampled_from(EXPRS),
    ("Expr", "terms"): st.sampled_from([e.terms for e in EXPRS]),
    # a lambda reads the kinds and names of its parameters as it is built
    ("Lambda", "params"): st.sampled_from([(), ((SCALAR, "a"),), ((TENSOR, "a"), (TENSOR, "b"))]),
}


def twin_fields(name):
    return [f.name for f in dataclasses.fields(DATACLASS_TWINS[name])]


@st.composite
def args_for(draw, name):
    if name == "TensorValue":
        shape = draw(st.sampled_from([(), (2,), (1, 2)]))
        size = 1
        for d in shape:
            size *= d
        comps = tuple(draw(st.sampled_from(EXPRS)) for _ in range(size))
        return shape, comps, tuple(MARKS[: draw(st.integers(0, len(shape)))])
    values = {f: SPECIAL.get((name, f), st.sampled_from(PLAIN)) for f in twin_fields(name)}
    values["loc"] = st.sampled_from(LOCS)
    return tuple(draw(values[f]) for f in twin_fields(name))


@st.composite
def instance_pair(draw):
    """(name, args) twice, biased towards one class or classes sharing fields."""
    a = draw(st.sampled_from(NAMES))
    group = next((g for g in SHARED_FIELDS if a in g), (a,))
    b = draw(st.one_of(st.just(a), st.sampled_from(group), st.sampled_from(NAMES)))
    return (a, draw(args_for(a))), (b, draw(args_for(b)))


def both(name, args):
    return ENGINE[name](*args), DATACLASS_TWINS[name](*args)


def construction(name, args, kwargs=None):
    """What building the engine record and its twin gives: a repr or an error."""
    out = []
    for cls in (ENGINE[name], DATACLASS_TWINS[name]):
        try:
            out.append(repr(cls(*args, **(kwargs or {}))))
        except (TypeError, TegiError) as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=400, deadline=None)
@given(instance_pair())
def test_equality_hash_and_repr_match_the_dataclasses(pair):
    (na, aa), (nb, ab) = pair
    a, ta = both(na, aa)
    b, tb = both(nb, ab)
    assert (a == b) is (ta == tb)
    assert (a != b) is (ta != tb)
    assert repr(a) == repr(ta)
    if na in UNHASHABLE:
        return
    if na not in NODES:
        assert hash(a) == hash(ta)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES).flatmap(lambda n: st.tuples(st.just(n), args_for(n))))
def test_keywords_build_the_same_record(case):
    name, args = case
    kwargs = dict(zip(twin_fields(name), args))
    record = ENGINE[name](**kwargs)
    assert record == ENGINE[name](*args)
    assert repr(record) == repr(DATACLASS_TWINS[name](**kwargs))
    for bad_args, bad_kwargs in [
        ((), {**kwargs, "no_such_field": 0}),  # an unknown keyword
        (args[:1], kwargs),  # the first field twice
        (args + (0,), {}),  # one argument too many
    ]:
        engine, twin = construction(name, bad_args, bad_kwargs)
        assert engine == twin and isinstance(twin, tuple)


@pytest.mark.parametrize(
    "name, args",
    [("Sym", ("x",)), ("Expr", ()), ("TensorValue", ((1,), (ONE,))),
     ("Function", ("f", None, len)), ("IntLit", (3,)), ("Apply", (1, ())),
     # wrong argument counts
     ("Sym", ()), ("Sym", ("x", 1, 2)), ("Expr", ((), 1)), ("Dummy", ()),
     ("TensorValue", ((1,),)), ("Function", ("f", None)), ("Function", ("f", None, len, 1, 2)),
     ("IntLit", ()), ("IntLit", (3, None, 0)), ("Apply", (1,))],
)
def test_defaults_match(name, args):
    engine, twin = construction(name, args)
    assert engine == twin
    if isinstance(twin, tuple):
        assert twin[0] is TypeError
        return
    defaults = [f.default for f in dataclasses.fields(DATACLASS_TWINS[name])[len(args):]]
    assert ENGINE[name](*args) == ENGINE[name](*args, *defaults)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([n for n in NAMES if "loc" in twin_fields(n)]).flatmap(
    lambda n: st.tuples(st.just(n), args_for(n), st.sampled_from(LOCS))))
def test_loc_is_kept_but_ignored(case):
    name, args, loc = case
    a, ta = both(name, args)
    b, tb = both(name, args[:-1] + (loc,))
    assert a == b and ta == tb
    assert hash(a) == hash(b) == hash(ta)
    assert repr(a) == repr(b) == repr(ta)
    assert (a.loc, b.loc) == (args[-1], loc)
    assert "loc" not in ENGINE[name]._fields


@pytest.mark.parametrize("group", SHARED_FIELDS, ids="/".join)
def test_classes_sharing_fields_are_never_equal(group):
    args = {"Fun": ("x", X), "Sym": ("x", X), "Inv": (X,), "Expr": (X,)}
    for na in group:
        for nb in group:
            if na == nb:
                continue
            shared = args.get(na, ((), (), None)[: len(twin_fields(na))])
            a, ta = both(na, shared)
            b, tb = both(nb, shared)
            assert a != b and ta != tb
            assert not (a == b) and not (ta == tb)
            assert a.__eq__(b) is NotImplemented


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES).flatmap(lambda n: st.tuples(st.just(n), args_for(n))))
def test_fields_cannot_be_assigned_or_deleted(case):
    name, args = case
    record, twin = both(name, args)
    for field in (*twin_fields(name), "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        if name not in UNHASHABLE:  # the twin of Function is mutable
            with pytest.raises(AttributeError):
                setattr(twin, field, 0)
    assert record == ENGINE[name](*args)


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_closures_and_builtins_are_unhashable(name):
    for value in both(name, ("f", None, len)):
        with pytest.raises(TypeError):
            hash(value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(0, 10),
    st.integers(0, 4),
)
def test_tensor_value_errors_match(shape, n_components, n_marks):
    args = (shape, (ONE,) * n_components, tuple(MARKS[i % 2] for i in range(n_marks)))
    outcomes = []
    for cls in (ENGINE["TensorValue"], DATACLASS_TWINS["TensorValue"]):
        try:
            outcomes.append(repr(cls(*args)))
        except TegiError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_post_init_rebound_on_the_class_runs_at_each_construction(monkeypatch):
    # a layer tracer counts the components of every tensor built this way
    cls = ENGINE["TensorValue"]
    checks = cls.__post_init__
    built = []

    def counting(value):
        built.append(len(value.components))
        checks(value)

    monkeypatch.setattr(cls, "__post_init__", counting)
    cls((2,), (ONE, ONE))
    tensor.tensor([[1, 2], [3, 4]])
    with pytest.raises(TegiError):
        cls((2,), (ONE,))
    assert built == [2, 2, 2, 4, 1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES).flatmap(
    lambda n: st.tuples(st.just(n), args_for(n))))
def test_pickle_round_trip(case):
    name, args = case
    record = ENGINE[name](*args)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == repr(record)
    assert [getattr(copy, f) for f in twin_fields(name)] == list(args)


def test_memos_are_not_pickled():
    e = sin(add(X, div(integer(1), add(X, Y))))
    before = pickle.dumps(e)
    hash(e), e.key()
    assert pickle.dumps(e) == before
    assert hash(pickle.loads(before)) == hash(e)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_compared_dataclass_fields(name):
    compared = tuple(f.name for f in dataclasses.fields(DATACLASS_TWINS[name]) if f.compare)
    assert ENGINE[name]._fields == compared
