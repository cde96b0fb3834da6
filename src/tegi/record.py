"""Immutable value records: what a frozen dataclass gives, from `__slots__`.

A record class states its fields once, in `__slots__`, and defines no
constructor.  Its slots, root class first, are the parameters of the one
constructor the base compiles for it: the class's `__init__`, or `__new__`
for an interned class, named `__init__` either way so that its argument
errors read like a dataclass's.  It sets each slot through that slot's
descriptor and then, if the class has a `__post_init__`, calls
`self.__post_init__()`, looked up on the instance at each call so that a
method rebound on the class takes effect.  Slots named `_...` (memos) are not
parameters.  A parameter named `loc` defaults to `None`; any other default is
declared once, in the class's `_defaults` dict, because a class attribute
cannot share a slot's name.  As in any `def`, a parameter with a default
cannot precede one without.

The fields are the parameters except `loc` (a source location, kept but not
part of the value).  From the fields the base derives:

- `==`: true between instances of the same class with equal fields; an
  operand of any other class gets `NotImplemented`;
- the hash of the tuple of fields (a class that must not be hashed sets
  `__hash__ = None`);
- the repr `Name(field=value, ...)`;
- an `AttributeError` on assigning or deleting any attribute;
- pickling through the constructor, so memos are never pickled.

A class that sets `_interned = True` keeps one live record per argument
tuple.  Its `__new__` hands back the live record under the key
`(class, *arguments)` if there is one, and otherwise builds a record and
registers it.  The table is a plain dict of weak references, so a record is
freed with the last value that holds it; the reference's callback then drops
the entry, unless a newer record holds the key by then.  Unpickling goes
through the constructor, so it finds the live record too.  The lookup and
the registration are not locked: records are built from one thread.
"""

from operator import attrgetter
from weakref import ref

__all__ = ["Record"]

_live = {}  # (class, *arguments) -> a weak reference to the live record built from them

_INIT = "def __init__(self, {params}):\n{build}"
_NEW = """def __new__(cls, {params}):
    key = (cls, {args})
    entry = _live.get(key)
    if entry is not None and (self := entry()) is not None:
        return self
    self = _new(cls)
{build}
    def drop(entry, key=key):  # the entry goes unless a newer record took the key
        if _live.get(key) is entry:
            del _live[key]
    _live[key] = _ref(self, drop)
    return self"""


def _getter(names):
    """A function from a record to the tuple of the named attributes."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda r: (get(r),)
    return attrgetter(*names) if names else lambda r: ()


def _compile_constructor(cls, names):
    """Compile the constructor of `cls`, with one parameter per name, in
    order, and set it on the class: `__init__`, or `__new__` if interned."""
    defaults = {"loc": None, **getattr(cls, "_defaults", {})}
    build = [f"_set_{n}(self, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        build.append("self.__post_init__()")
    source = (_NEW if cls._interned else _INIT).format(
        params=", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names),
        args="".join(f"{n}, " for n in names),
        build="\n".join(f"    {b}" for b in build or ["pass"]),
    )
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    namespace.update(_defaults=defaults, _live=_live, _new=object.__new__, _ref=ref)
    exec(source, namespace)
    name = "__new__" if cls._interned else "__init__"
    namespace[name].__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, name, namespace[name])


class Record:
    __slots__ = ()
    _interned = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ())]
        args = tuple(s for s in slots if not s.startswith("_"))
        cls._fields = tuple(s for s in args if s != "loc")
        cls._values = staticmethod(_getter(cls._fields))
        cls._args = staticmethod(_getter(args))
        _compile_constructor(cls, args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._args(self)
