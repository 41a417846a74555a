"""The frozen-value base of twistkit's record types.

A subclass names its constructor's parameters, in order, in `_fields`, and
declares `__slots__`: those fields plus any value it derives from them.
Equality (between instances of one class only), the hash and the repr are
those a frozen dataclass generates over `_fields`.  The base imports
nothing: importing twistkit neither loads `dataclasses` (and with it
`inspect`, `ast` and `dis`) nor runs a decorator per class.  Assignment and
deletion raise `dataclasses.FrozenInstanceError`, imported only then.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        """Set the fields, in order, past the frozen `__setattr__`."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

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
