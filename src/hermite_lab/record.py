"""The base of the package's records: slotted, immutable, compared by value."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Fields are the `__slots__`, which `__init__` takes in that order.

    `repr` is `Name(field=value, ...)` without the fields in `_unshown`.
    `==` holds between records of one class whose other fields, those not
    in `_uncompared`, are equal, and `hash` is the hash of their tuple.
    Assigning or deleting a field raises, so `__init__` writes each through
    its slot's `__set__` in `_setters`, one call per field in a record
    built often and `_fill` elsewhere.  Unpickling calls `__init__`, and so
    its checks, again.
    """

    __slots__ = ()
    _unshown = ()
    _uncompared = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._shown = [name for name in cls.__slots__ if name not in cls._unshown]
        compared = [name for name in cls.__slots__ if name not in cls._uncompared]
        get = attrgetter(*compared)  # a tuple for two names or more
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))

    def _fill(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
