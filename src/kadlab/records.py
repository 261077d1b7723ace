"""Records: classes whose instances are their fields.

A record class names its fields, in order, in ``__match_args__`` (so
positional ``match`` patterns bind them) and its own ``__init__`` stores
each one as an item of the instance ``__dict__``.  Other entries of
``__dict__``, such as cached properties, are no fields.  Records of the
same class are equal when their fields are; records of different classes
never are.  The repr is ``Name(field=value, ...)``.  A ``Frozen`` record
also hashes its fields and refuses assignment.
"""

from __future__ import annotations


class Record:
    """A mutable record; unhashable, as a mutable value should be."""

    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Frozen(Record):
    """An immutable record, hashed by its fields."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
