"""Immutable value records: what a frozen dataclass gives, from `__slots__`.

A record class lists its slots and sets each one in its own `__init__` with
`object.__setattr__`.  Its fields are its slots, root class first, except a
slot named `loc` (a source location, kept but not part of the value) and
slots named `_...` (memos).  From the fields the base derives:

- `==`: true between instances of the same class with equal fields; an
  operand of any other class gets `NotImplemented`;
- the hash of the tuple of fields (a class that must not be hashed sets
  `__hash__ = None`);
- the repr `Name(field=value, ...)`;
- an `AttributeError` on assigning or deleting any attribute;
- pickling through the constructor, so memos are never pickled.
"""

from operator import attrgetter

__all__ = ["Record"]


def _getter(names):
    """A function from a record to the tuple of the named attributes."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda r: (get(r),)
    return attrgetter(*names) if names else lambda r: ()


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ())]
        args = tuple(s for s in slots if not s.startswith("_"))
        cls._fields = tuple(s for s in args if s != "loc")
        cls._values = staticmethod(_getter(cls._fields))
        cls._args = staticmethod(_getter(args))

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
