"""Value records: the base classes of both engines' immutable value types.

A record promises what ``@dataclass`` and ``@dataclass(frozen=True)``
promise: equality of one class's instances by their field tuple, ``repr``
by field name, and, when frozen, hashing by the fields and refusal of
assignment and deletion.  It is not ``@dataclass``: importing
:mod:`dataclasses`, with the ``inspect``, ``ast`` and ``dis`` it loads, cost
each process about 8 ms of start-up (``BENCH_30``).  This module loads
nothing but :mod:`operator`, so either engine builds on it without loading
the other.
"""

from operator import attrgetter


class Record:
    """A value made of the fields that ``_fields`` names, in that order.

    Two records are equal when they are of one class with equal fields, and
    ``repr`` shows the fields by name, as ``@dataclass`` does; a record is
    unhashable.  A subclass's ``__init__`` sets the fields.  Instances keep
    their state in ``__dict__``, so copy and pickle need nothing more.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:  # Frozen names none
            # The field tuple; attrgetter of one name returns the bare value.
            get = attrgetter(*cls._fields)
            cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, in ``__init__`` through ``__dict__``.

    It is hashed by its field tuple, and assignment and deletion are refused.
    """

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
