"""Immutable records: the base of the value classes whose constructors check their fields.

A value class whose constructor checks its fields is a `Record`; one that
checks nothing is a `typing.NamedTuple` (`ClosureData`, `GonPlan`,
`TripleWitness`, `RewriteTrace` and the like). `Record` gives what a named
tuple cannot: a checked constructor (a `NamedTuple` body may define neither
`__new__` nor `__init__`), equality within one class (a named tuple equals
any tuple of equal items), and no code generated per class (a named tuple
evaluates source text for its `__new__`).

A subclass names its fields in `_fields` and holds each in a slot of its
`__slots__`. Its own `__init__` validates, then sets each field and
`_values`, the tuple of the fields, through `_setters`: the slots' own
`__set__`, in that order, since plain assignment is refused. Equality,
hashing and repr read `_values`: records of one class are equal when their
field tuples are, a record of another class never is, and hash(record) is
hash(record._values).
"""

from __future__ import annotations


class Record:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in (*cls._fields, "_values"))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its checked __init__
        return type(self), self._values
