"""The frozen-value base of twistkit's record types.

A subclass names its constructor's parameters, in order, in `_fields`, and
declares `__slots__`: those fields first, then any value it derives from
them.  Equality (between instances of one class only) and the repr are
those a frozen dataclass generates over `_fields`.  The hash has one rule:
it hashes the tuple of the fields, with a dict field hashed as the frozenset
of its items, where a frozen dataclass would refuse.  So equal values hash
equal.  `forests.RootedTree`, whose equality is its own, alone overrides
it, to hash its canonical key.  The base imports nothing: importing
twistkit neither loads `dataclasses` (and with it `inspect`, `ast` and
`dis`) nor runs a decorator per class.  Assignment and deletion raise
`dataclasses.FrozenInstanceError`, imported only then.

This module alone sets slots past the frozen `__setattr__`.  Each class
keeps `_setters`, the `__set__` of each of its slots in `__slots__` order (a
subclass declaring `__slots__ = ()` keeps its base's tuple).  A constructor
validates and derives into locals, then calls `_init` once with the fields
and then the derived values; `_new` makes an instance from such values
without calling `__init__`, for the package's own arithmetic on values it
built itself.
"""


class Value:
    __slots__ = ()
    _fields = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._setters += tuple(cls.__dict__[name].__set__ for name in slots)

    def _init(self, *values):
        """Set the slots, in `__slots__` order, past the frozen `__setattr__`."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    @classmethod
    def _new(cls, *values):
        """An instance with these slot values, made without `__init__`: the
        caller vouches that they are those the constructor would store."""
        self = object.__new__(cls)
        for set_slot, value in zip(cls._setters, values):
            set_slot(self, value)
        return self

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(tuple(frozenset(v.items()) if type(v) is dict else v for v in self._astuple()))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # unpickling a slotted instance would set its slots through the
        # frozen __setattr__; the constructor sets them and derives the rest
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
