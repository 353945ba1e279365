"""The base of a4csl's immutable value classes.

A value class lists its fields in __slots__, in the order of its __init__
parameters, and sets each once in __init__ through _set; assigning or
deleting a field afterwards raises AttributeError.  Equality (only with an
instance of the very same class), hash and repr go by the fields named in
_fields: all of __slots__, unless a field is left out of them.  The classes
on hot paths write their own __eq__ and __hash__ with the same meaning (a
class that defines __eq__ must define __hash__ too).  Copies and pickles
rebuild an instance by calling its class with the values of its slots.
"""

from __future__ import annotations

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
