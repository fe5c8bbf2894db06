"""Plain record classes, in place of ``dataclasses``.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, about 11 ms of every CLI child's start-up on CPython 3.11;
these bases give the records the same constructor, ==, hash and repr
without it.
"""


class Record:
    """Named fields, one per annotation of the subclass, in order.

    The constructor takes them by position or keyword, all required.
    ==, hash and repr read every field but those named by the class
    keyword ``hidden``.  A Record is mutable and unhashable.
    """

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(name for name in cls._fields if name not in hidden)

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key in kwargs:
            if key not in self._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [key for key in self._fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        # past a frozen record's __setattr__
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned or deleted; it hashes
    the fields that == compares."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
