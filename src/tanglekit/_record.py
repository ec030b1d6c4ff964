"""The one base class of the package's immutable value records."""

from operator import attrgetter


class _Record:
    """An immutable value whose fields, named in `_fields` (and in `__slots__`
    by every class but LinkDiagram), give equality within one class, hash, repr,
    pickling and copying (through __init__), as a frozen dataclass does, without
    importing `dataclasses`, which loads `inspect` (about 0.8 MB and 6 ms).
    A class with checks or defaults writes its own __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one attrgetter per class, which equality and hash close over: a C
        # call per operand, with no attribute lookup or extra frame around it
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # attrgetter of one name returns the bare value
            get = lambda self, one=get: (one(self),)  # noqa: E731

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self) -> int:
            return hash(get(self))

        cls._values = staticmethod(get)
        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))
