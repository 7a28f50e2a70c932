"""The one base of the package's immutable values."""


class _Value:
    """A value whose fields are its class's __slots__, each set once by the
    class's __init__: it refuses assignment and deletion, compares equal to
    a value of the same class with equal fields, and hashes, prints and
    pickles by its fields, as a frozen dataclass does.

    >>> class Pair(_Value):
    ...     __slots__ = ("a", "b")
    ...     def __init__(self, a, b):
    ...         self._fill(a, b)
    >>> Pair(1, "x")
    Pair(a=1, b='x')
    >>> Pair(1, "x") == Pair(1, "x") and hash(Pair(1, 2)) == hash(Pair(1, 2))
    True
    """

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Set the fields, in __slots__ order: for __init__ alone."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, since __setattr__ refuses what pickle's
        # and copy's default state-setting would do.
        return self.__class__, self._values()
