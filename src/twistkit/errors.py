"""Exception types shared across the package."""


class TwistKitError(Exception):
    """Base class for every error raised by twistkit."""


class ParseError(TwistKitError):
    """Raised on malformed forest/word text; carries the offset and the
    expected tokens, sorted.  The three values are its args, so it pickles."""

    def __init__(self, message, offset, expected=()):
        self.message, self.offset, self.expected = message, offset, tuple(sorted(expected))
        super().__init__(self.message, self.offset, self.expected)

    def __str__(self):
        detail = f"{self.message} at offset {self.offset}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        return detail


class InvalidLeafIndex(TwistKitError):
    """A twist step addresses a leaf index outside the current tree."""


class CapExceeded(TwistKitError):
    """A search or build was refused at its budget: `count` of `what` (the
    first count past it, or the whole size when known up front) exceed
    `budget`, in the package's one refusal text, for example
    `groebner: 20001 S-pairs exceed the budget of 20000`.  The four values
    are its args, so it pickles."""

    def __init__(self, layer, count, what, budget):
        super().__init__(layer, count, what, budget)
        self.layer, self.count, self.what, self.budget = layer, count, what, budget

    def __str__(self):
        return f"{self.layer}: {self.count} {self.what} exceed the budget of {self.budget}"


class UnboundedRegion(TwistKitError):
    """The candidate-class polyhedron is unbounded along `ray` and no search
    box was given.  The ray, as a tuple, is its one arg, so it pickles."""

    def __init__(self, ray):
        self.ray = tuple(ray)
        super().__init__(self.ray)

    def __str__(self):
        return f"feasible region is unbounded along ray {self.ray}"


class VariableMismatch(TwistKitError):
    """Operands live in incompatible Laurent rings."""


class NonUnitImage(TwistKitError):
    """A ring homomorphism sends a group-ring generator to a non-unit."""


class UnsupportedRing(TwistKitError):
    """The requested operation needs a different coefficient ring."""


class NonGenericHom(TwistKitError):
    """A regularity homomorphism does not have the required monomial shape."""


class DimensionMismatch(TwistKitError):
    """Vector or germ dimensions do not agree."""


class InconclusiveCertificate(TwistKitError):
    """A certification run did not reach the requested verdict."""
