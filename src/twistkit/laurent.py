"""Exact multivariate Laurent polynomial arithmetic over GF(2), Z, or Q.

Group rings of free abelian groups are realized as Laurent polynomial rings:
an element is a finite sum of monomials with integer exponent vectors.  GF(2)
is the default scalar ring for pearl computations; the rationals are used for
regularity certificates.  All arithmetic is exact.

A `CoefficientRing` has the operations `add`, `mul`, `neg`, `coerce`,
`is_unit` and `inv`; an integer multiple n·a is `mul(n, a)`, and a scaling
is a multiplication by the constant monomial.  Coefficients print with
`str`, in reports and in JSON alike.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import NonUnitImage, UnsupportedRing, VariableMismatch
from .matrices import as_int

# Fractions are immutable, so every rational zero and one can be the same object
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class CoefficientRing:
    """One of the supported exact scalar rings: GF2 (default), Int, Rational."""

    _by_tag: dict[str, "CoefficientRing"] = {}

    def __init__(self, tag: str):
        if tag in CoefficientRing._by_tag:
            raise ValueError(f"duplicate ring tag {tag}")
        self.tag = tag
        self.zero, self.one = (_Q_ZERO, _Q_ONE) if tag == "Rational" else (0, 1)
        CoefficientRing._by_tag[tag] = self

    @classmethod
    def from_tag(cls, tag: str) -> "CoefficientRing":
        try:
            return cls._by_tag[tag]
        except KeyError:
            raise UnsupportedRing(f"unknown coefficient ring {tag!r}") from None

    def __repr__(self):
        return self.tag

    def __reduce__(self):
        # rings are compared by identity: a copy or an unpickled ring is the one ring
        return CoefficientRing.from_tag, (self.tag,)

    @property
    def is_field(self) -> bool:
        return self.tag in ("GF2", "Rational")

    def coerce(self, value):
        """`value` as an element of this ring; a non-integral value is not an
        element of Int or GF2 and raises `UnsupportedRing`."""
        if self.tag == "Rational":
            return Fraction(value)
        if not isinstance(value, int):
            exact = Fraction(value)
            if exact.denominator != 1:
                raise UnsupportedRing(f"{value} is not an element of {self.tag}")
            value = exact.numerator
        return value % 2 if self.tag == "GF2" else int(value)

    def parse(self, text: str):
        return self.coerce(Fraction(text))

    def add(self, a, b):
        return (a + b) % 2 if self.tag == "GF2" else a + b

    def mul(self, a, b):
        return (a * b) % 2 if self.tag == "GF2" else a * b

    def neg(self, a):
        return a if self.tag == "GF2" else -a

    def is_unit(self, a) -> bool:
        if self.tag == "GF2":
            return a == 1
        if self.tag == "Int":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise UnsupportedRing(f"{a} is not a unit in {self.tag}")
        if self.tag == "GF2":
            return 1
        if self.tag == "Int":
            return a
        return Fraction(1) / a


GF2 = CoefficientRing("GF2")
INT = CoefficientRing("Int")
RATIONAL = CoefficientRing("Rational")


def _accumulate(ring: CoefficientRing, terms: dict, items) -> dict:
    """Add the `(exponents, coefficient)` pairs of `items`, in order, into
    `terms` and return it.  This is the one summing rule of the package: a
    monomial already present gets the ring sum and is deleted if the sum is
    zero; a new monomial goes at the end, unless its coefficient is zero.  So
    a monomial that cancels and comes back goes at the end."""
    add, zero = ring.add, ring.zero
    for exps, c in items:
        old = terms.get(exps)
        if old is not None:
            c = add(old, c)
            if c == zero:
                del terms[exps]
                continue
        elif c == zero:
            continue
        terms[exps] = c
    return terms


class LaurentPoly:
    """Immutable Laurent polynomial: a map from integer exponent vectors to
    nonzero coefficients, over a fixed ordered variable tuple."""

    __slots__ = ("ring", "variables", "terms")

    def __init__(self, ring: CoefficientRing, variables, terms=None):
        variables = tuple(variables)
        items = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(as_int, exps))
            if len(exps) != len(variables):
                raise VariableMismatch(
                    f"exponent vector {exps} does not match variables {variables}"
                )
            items.append((exps, ring.coerce(coeff)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _accumulate(ring, {}, items))

    @staticmethod
    def _new(ring: CoefficientRing, variables: tuple, terms: dict) -> "LaurentPoly":
        """The polynomial with exactly these terms, made without validation.

        Only twistkit's own arithmetic calls this, on terms it built itself:
        `variables` is a tuple, every exponent vector a tuple of ints of its
        length, every coefficient a nonzero element of `ring`, and `terms` is
        not touched again by the caller.
        """
        poly = _new_object(LaurentPoly)
        _set_ring(poly, ring)
        _set_variables(poly, variables)
        _set_terms(poly, terms)
        return poly

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # unpickling a slotted instance would set its slots through __setattr__
        return LaurentPoly, (self.ring, self.variables, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, variables):
        return cls(ring, variables, {})

    @classmethod
    def constant(cls, ring, variables, value):
        variables = tuple(variables)
        return cls(ring, variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, ring, variables):
        return cls.constant(ring, variables, ring.one)

    @classmethod
    def monomial(cls, ring, variables, exps, coeff=None):
        variables = tuple(variables)
        coeff = ring.one if coeff is None else coeff
        return cls(ring, variables, {tuple(exps): coeff})

    @classmethod
    def var(cls, ring, variables, name, power=1):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls.monomial(ring, variables, exps)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_unit_monomial(self) -> bool:
        if len(self.terms) != 1:
            return False
        (coeff,) = self.terms.values()
        return self.ring.is_unit(coeff)

    def single_term(self):
        ((exps, coeff),) = self.terms.items()
        return exps, coeff

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero vector if empty)."""
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(min(e[i] for e in self.terms) for i in range(len(self.variables)))

    def _check(self, other: "LaurentPoly"):
        if self.ring is not other.ring:
            raise VariableMismatch(
                f"coefficient rings differ: {self.ring} vs {other.ring}"
            )
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variables differ: {self.variables} vs {other.variables}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = _accumulate(self.ring, dict(self.terms), other.terms.items())
        return LaurentPoly._new(self.ring, self.variables, terms)

    def __neg__(self):
        ring = self.ring
        return LaurentPoly._new(
            ring, self.variables, {e: ring.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        ring = self.ring
        products = (
            (tuple(map(add, e1, e2)), ring.mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return LaurentPoly._new(ring, self.variables, _accumulate(ring, {}, products))

    def scale(self, coeff):
        return self.times_monomial((0,) * len(self.variables), coeff)

    def times_monomial(self, exps, coeff=None):
        ring = self.ring
        exps = tuple(exps)
        c0 = ring.one if coeff is None else ring.coerce(coeff)
        return LaurentPoly(
            ring,
            self.variables,
            {
                tuple(a + b for a, b in zip(e, exps)): ring.mul(c, c0)
                for e, c in self.terms.items()
            },
        )

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_unit_monomial:
                raise UnsupportedRing("negative powers need a unit monomial")
            exps, coeff = self.single_term()
            inv = LaurentPoly.monomial(
                self.ring, self.variables, tuple(-e for e in exps), self.ring.inv(coeff)
            )
            return inv ** (-n)
        result = LaurentPoly.one(self.ring, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, name: str) -> "LaurentPoly":
        """d/d(name); needs Int or Rational coefficients."""
        if self.ring is GF2:
            raise UnsupportedRing(
                "partial derivative over GF2 is ill-defined; use log_derivative"
            )
        idx = self.variables.index(name)
        ring = self.ring
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == 0:
                continue
            new = list(exps)
            new[idx] -= 1
            terms[tuple(new)] = ring.mul(exps[idx], coeff)
        return LaurentPoly._new(ring, self.variables, terms)

    def log_derivative(self, name: str) -> "LaurentPoly":
        """x·d/dx for the named variable: each term is multiplied by its
        exponent, reduced into the coefficient ring.  Characteristic-safe."""
        idx = self.variables.index(name)
        ring = self.ring
        terms = {}
        for exps, coeff in self.terms.items():
            c = ring.mul(exps[idx], coeff)
            if c != ring.zero:
                terms[exps] = c
        return LaurentPoly._new(ring, self.variables, terms)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: dict):
        """Exact value at a point (Int/Rational); Laurent terms need nonzero
        coordinates under negative exponents."""
        if self.ring is GF2:
            raise UnsupportedRing("evaluation is supported over Int/Rational only")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = Fraction(coeff)
            for name, e in zip(self.variables, exps):
                value *= Fraction(point[name]) ** e
            total += value
        return total

    # -- comparisons / printing ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring is other.ring
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.tag, self.variables, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in descending lexicographic exponent order (stable print order)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            cstr = str(coeff)
            negative = cstr.startswith("-")
            if negative:
                cstr = cstr[1:]
            if not body:
                text = cstr
            elif cstr == "1":
                text = body
            else:
                text = f"{cstr}*{body}"
            pieces.append(("-" if negative else "+", text))
        sign, text = pieces[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self.ring}, {self.variables}, {str(self)!r})"


_new_object = object.__new__
_set_ring, _set_variables, _set_terms = (
    getattr(LaurentPoly, name).__set__ for name in LaurentPoly.__slots__
)


class RingHom:
    """A ring homomorphism determined by unit-monomial images of generators.

    Every group-ring generator must be sent to a single monomial with unit
    coefficient (so that negative exponents transport).  The hom may shrink
    the variable set; constants (zero exponent vectors) are allowed images.
    """

    def __init__(self, ring: CoefficientRing, variables, images: dict):
        self.ring = ring
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"target variables must be distinct, got {self.variables}")
        self.images: dict[str, LaurentPoly] = {}
        for name, poly in images.items():
            if not isinstance(poly, LaurentPoly):
                raise NonUnitImage(f"image of {name} must be a LaurentPoly")
            if poly.ring is not ring or poly.variables != self.variables:
                raise VariableMismatch(
                    f"image of {name} lives in the wrong target ring"
                )
            if not poly.is_unit_monomial:
                raise NonUnitImage(
                    f"image of {name} must be a single monomial with unit coefficient"
                )
            self.images[name] = poly

    @classmethod
    def from_monomials(cls, ring, variables, exponents: dict, coeffs: dict = None):
        """Build from {generator: exponent vector}; optional unit coefficients."""
        variables = tuple(variables)
        coeffs = coeffs or {}
        images = {
            name: LaurentPoly.monomial(ring, variables, exps, coeffs.get(name, ring.one))
            for name, exps in exponents.items()
        }
        return cls(ring, variables, images)

    @classmethod
    def identity(cls, ring, variables):
        variables = tuple(variables)
        return cls(
            ring,
            variables,
            {name: LaurentPoly.var(ring, variables, name) for name in variables},
        )

    @property
    def is_identity(self) -> bool:
        for name, poly in self.images.items():
            if name not in self.variables:
                return False
            exps, coeff = poly.single_term()
            want = tuple(int(v == name) for v in self.variables)
            if exps != want or coeff != self.ring.one:
                return False
        return True

    def _transport(self, source_ring: CoefficientRing, coeff):
        if source_ring is self.ring:
            return coeff
        if source_ring is INT and self.ring is RATIONAL:
            return Fraction(coeff)
        raise UnsupportedRing(
            f"cannot transport {source_ring} coefficients into {self.ring}"
        )

    def apply(self, poly: LaurentPoly) -> LaurentPoly:
        """The image of `poly`: the images of its terms, in the order the
        source terms come, summed by `_accumulate`."""
        missing = [v for v in poly.variables if v not in self.images]
        if missing:
            raise VariableMismatch(f"no image given for generators {missing}")
        ring = self.ring
        size = len(self.variables)
        one = ring.one
        # each source variable's index, the nonzero (index, exponent) pairs
        # of its image and the image's coefficient
        images = []
        for k, name in enumerate(poly.variables):
            img_exps, img_coeff = self.images[name].single_term()
            images.append((k, [(i, ie) for i, ie in enumerate(img_exps) if ie], img_coeff))
        items = []
        for exps, coeff in poly.terms.items():
            out_exps = [0] * size
            out_coeff = ring.coerce(self._transport(poly.ring, coeff))
            for k, img_exps, img_coeff in images:
                e = exps[k]
                if not e:
                    continue
                for i, ie in img_exps:
                    out_exps[i] += ie * e
                if img_coeff != one:
                    factor = img_coeff if e > 0 else ring.inv(img_coeff)
                    out_coeff = ring.mul(out_coeff, ring.coerce(factor ** abs(e)))
            items.append((tuple(out_exps), out_coeff))
        return LaurentPoly._new(ring, self.variables, _accumulate(ring, {}, items))

    def describe(self) -> str:
        parts = []
        for name in sorted(self.images):
            parts.append(f"{name} -> {self.images[name]}")
        return ", ".join(parts)

    def __repr__(self):
        return f"RingHom({self.ring}, {self.variables}, {self.describe()!r})"


# ---------------------------------------------------------------------------
# JSON helpers


def poly_to_json(poly: LaurentPoly) -> dict:
    return {
        "ring": poly.ring.tag,
        "variables": list(poly.variables),
        "terms": [[list(e), str(c)] for e, c in poly.sorted_terms()],
    }


def poly_from_json(data: dict) -> LaurentPoly:
    ring = CoefficientRing.from_tag(data["ring"])
    variables = tuple(data["variables"])
    # a repeated exponent vector sums its coefficients, and the constructor
    # drops a sum that cancels
    terms = {}
    for exps, coeff in data["terms"]:
        exps, coeff = tuple(exps), ring.parse(str(coeff))
        terms[exps] = ring.add(terms[exps], coeff) if exps in terms else coeff
    return LaurentPoly(ring, variables, terms)


def hom_to_json(hom: RingHom) -> dict:
    return {
        "ring": hom.ring.tag,
        "variables": list(hom.variables),
        "images": {
            name: [list(poly.single_term()[0]), str(poly.single_term()[1])]
            for name, poly in hom.images.items()
        },
    }


def hom_from_json(data: dict) -> RingHom:
    ring = CoefficientRing.from_tag(data["ring"])
    variables = tuple(data["variables"])
    images = {
        name: LaurentPoly.monomial(ring, variables, tuple(exps), ring.parse(str(coeff)))
        for name, (exps, coeff) in data["images"].items()
    }
    return RingHom(ring, variables, images)
