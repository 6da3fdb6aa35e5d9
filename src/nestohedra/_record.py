"""The base of the package's immutable value records.

A record class lists its fields as ``__slots__`` and sets them once, in
its own ``__init__``, through ``_set``.  The base gives it value equality
between instances of the same class, a hash over the field values, a
``Name(field=value, ...)`` repr, and refuses assignment and deletion
afterwards.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set the fields, in ``__slots__`` order, bypassing immutability."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
