"""Immutable value records: what a frozen dataclass gives, from `__slots__`.

A record class states its fields once, in `__slots__`.  Its slots, root
class first, are the parameters of its constructor, which the base compiles
for each class: `__init__(self, <slots>)` sets each slot and then, if the
class has a `__post_init__`, calls `self.__post_init__()`, looked up on the
instance at each call so that a method rebound on the class takes effect.
A record class defines no `__init__` of its own.  Slots named `_...` (memos)
are not parameters.  A parameter named `loc` defaults to `None`; any other
default is declared once, in the class's `_defaults` dict, because a class
attribute cannot share a slot's name.  As in any `def`, a parameter with a
default cannot precede one without.

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
tuple.  Its compiled function binds the arguments to a key, and its
`__new__` hands back the live record with an equal key when there is one,
and otherwise builds and registers a new one (running `__post_init__` only
then).  The table is a `weakref.WeakValueDictionary`, so a record is freed
with the last value that refers to it, and its entry goes with it.
Unpickling goes through the constructor, so it finds the live record too.
The lookup and the registration are not locked: records are built from one
thread.
"""

from operator import attrgetter
from weakref import WeakValueDictionary

__all__ = ["Record"]

_live = WeakValueDictionary()  # (class, *arguments) -> the live record built from them


def _getter(names):
    """A function from a record to the tuple of the named attributes."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda r: (get(r),)
    return attrgetter(*names) if names else lambda r: ()


def _make_init(cls, names):
    """Compile `cls.__init__` with one parameter per name, in order; for an
    interned class, compile instead its key, the tuple `(cls, *arguments)`,
    from the same parameters.  Either is named `__init__`, so its argument
    errors read like a dataclass's."""
    defaults = {"loc": None, **getattr(cls, "_defaults", {})}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    if cls._interned:
        body = [f"    return (self, {', '.join(names)})"]
    else:
        body = [f"    _set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):\n" + ("\n".join(body) or "    pass"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _intern(cls, *args, **kwargs):
    """`__new__` of an interned class: the live record built from equal
    arguments if there is one, else a new record, registered."""
    key = cls._intern_key(cls, *args, **kwargs)
    self = _live.get(key)
    if self is None:
        self = object.__new__(cls)
        for name, value in zip(cls._fields, key[1:]):  # an interned class has no `loc`
            object.__setattr__(self, name, value)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()
        _live[key] = self
    return self


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
        if cls._interned:
            cls._intern_key = staticmethod(_make_init(cls, args))
            cls.__new__ = _intern
            cls.__init__ = object.__init__
        else:
            cls.__init__ = _make_init(cls, args)

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
