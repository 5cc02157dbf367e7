"""The frozen-record base of the package's value classes; defining one generates no code."""

from __future__ import annotations


class Record:
    """A frozen record whose fields are its class's own annotations, in order (read
    through ``cls.__annotations__``, so with or without the future import);
    a class attribute named like a field is that field's default.

    The base supplies ``__init__`` (positional or keyword arguments, then
    ``__post_init__``), equality between records of one class, ``__hash__``
    and ``__repr__`` over ``_values()``, and refuses assignment with
    AttributeError.  A hot class lists its fields in ``__slots__`` instead and
    writes an ``__init__`` that fills them through ``_setters``; where its
    equality is hot too, it also writes ``_values``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__")
        if slots:
            cls._fields = tuple(slots)
            cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)
        elif cls.__annotations__:  # a class's own annotations only, from Python 3.10 on
            cls._fields = tuple(cls.__annotations__)

    @classmethod
    def _trusted(cls, value):
        """An object holding value as its one slotted field, skipping the checks of public construction."""
        obj = object.__new__(cls)
        cls._setters[0](obj, value)
        return obj

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {args!r} and {kwargs!r}")
        given = dict(zip(names, args), **kwargs)
        for name in names:
            if name not in given and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
            object.__setattr__(self, name, given[name] if name in given else getattr(cls, name))
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalise the fields; the default does nothing."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as setattr is refused
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete the field {name!r}")

    __delattr__ = __setattr__
