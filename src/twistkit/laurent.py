"""Exact multivariate Laurent polynomial arithmetic over the fields GF(2) and Q.

Group rings of free abelian groups are realized as Laurent polynomial rings:
an element is a finite sum of monomials with integer exponent vectors.  GF(2)
is the default scalar field for pearl computations; the rationals are used for
regularity certificates.  All arithmetic is exact.

A `CoefficientRing` has the operations `add`, `mul`, `neg`, `is_zero`,
`coerce` and `inv`; an integer multiple n·a is `mul(n, a)`, and a scaling is
a multiplication by the constant monomial.  Coefficients print with `str`, in
reports and in JSON alike.

Values meet under one compatibility rule, `_require_ring`: a polynomial or
pearl element combined with another value, or handed to an entry point for a
given ring, must carry that ring (the one object) and exactly its variable
tuple, or the call raises `VariableMismatch` naming both sides.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, and_, mul, neg, not_, pos, xor

from ._value import Value
from .errors import NonUnitImage, UnsupportedRing, VariableMismatch
from .matrices import as_int, as_names, as_rational

# Fractions are immutable, so every rational zero and one can be the same object
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class CoefficientRing:
    """One of the two coefficient fields, GF2 (the default) and Rational (Q).

    Both are made when this module is imported; constructing another raises.
    Each fixes its `add`, `mul`, `neg` and `is_zero` once, here, as C-level
    `operator` functions that agree with the field's operations on its
    elements and with an int multiple `mul(n, a)`: over Q `add`, `mul` and
    `neg`; over GF2 `xor`, `and_` (n & a is n·a mod 2 for a in {0, 1}) and
    `pos` (-a is a).  Both test zero with `not_`.
    """

    _by_tag: dict[str, "CoefficientRing"] = {}

    def __init__(self, tag: str):
        if tag not in ("GF2", "Rational") or tag in CoefficientRing._by_tag:
            raise UnsupportedRing(f"the rings are GF2 and Rational, made once each; got {tag!r}")
        self.tag = tag
        if tag == "Rational":
            self.zero, self.one = _Q_ZERO, _Q_ONE
            self.add, self.mul, self.neg = add, mul, neg
        else:
            self.zero, self.one = 0, 1
            self.add, self.mul, self.neg = xor, and_, pos
        self.is_zero = not_
        CoefficientRing._by_tag[tag] = self

    @classmethod
    def from_tag(cls, tag: str) -> "CoefficientRing":
        # a tag read from a file may be any JSON value, a list among them
        if isinstance(tag, str) and tag in cls._by_tag:
            return cls._by_tag[tag]
        raise UnsupportedRing(f"unknown coefficient ring {tag!r}; the rings are GF2 and Rational")

    def __repr__(self):
        return self.tag

    def __reduce__(self):
        # rings are compared by identity: a copy or an unpickled ring is the one ring
        return CoefficientRing.from_tag, (self.tag,)

    def coerce(self, value):
        """`value`, read by `as_rational`, as an element of this field; a
        non-integral value is not an element of GF2 and raises
        `UnsupportedRing`."""
        if self.tag == "Rational":
            return as_rational(value)
        if type(value) is not int:
            exact = as_rational(value)
            if exact.denominator != 1:
                raise UnsupportedRing(f"{exact} is not an element of {self.tag}")
            value = exact.numerator
        return value % 2

    def inv(self, a):
        if a == 0:
            raise UnsupportedRing(f"{a} is not a unit in {self.tag}")
        return 1 if self.tag == "GF2" else _Q_ONE / a


GF2 = CoefficientRing("GF2")
RATIONAL = CoefficientRing("Rational")


def _accumulate(ops, terms: dict, items) -> dict:
    """Add the `(key, value)` pairs of `items`, in order, into `terms` and
    return it, by `ops.add` and `ops.is_zero` (a `CoefficientRing`, or
    `pearl`'s operations on LaurentPoly components).  This is the one summing
    loop of the package: a key already present gets the sum and is deleted
    if the sum is zero; a new key goes at the end, unless its value is zero.
    So a key that cancels and comes back goes at the end."""
    add, is_zero = ops.add, ops.is_zero
    for key, c in items:
        old = terms.get(key)
        if old is not None:
            c = add(old, c)
            if is_zero(c):
                del terms[key]
                continue
        elif is_zero(c):
            continue
        terms[key] = c
    return terms


def _require_ring(value, ring, variables) -> None:
    """The package's one compatibility rule: `value`, a `LaurentPoly` or a
    `pearl.PearlElement`, carries `ring` (compared by identity) and exactly
    `variables`, or `VariableMismatch` names both rings and variable tuples."""
    if value.ring is not ring or value.variables != variables:
        raise VariableMismatch(
            f"{value.ring} over {value.variables} does not match {ring} over {variables}"
        )


def _variable_index(variables, name) -> int:
    """The position of `name` in `variables`, or `VariableMismatch` naming both."""
    if name not in variables:
        raise VariableMismatch(f"no variable {name!r} in {tuple(variables)}")
    return variables.index(name)


class LaurentPoly(Value):
    """Immutable Laurent polynomial: a map from integer exponent vectors to
    nonzero coefficients, over a fixed ordered variable tuple.

    Only twistkit's own arithmetic calls `LaurentPoly._new(ring, variables,
    terms)`, on terms it built itself: `variables` is a tuple, every
    exponent vector a tuple of ints of its length, every coefficient a
    nonzero element of `ring`, and `terms` is not touched again by the caller.
    Within this module `__add__`, `__neg__`, `__mul__`, `times_monomial`,
    `log_derivative` and `RingHom.apply` build their results that way.
    """

    __slots__ = _fields = ("ring", "variables", "terms")

    def __init__(self, ring: CoefficientRing, variables, terms=None):
        variables = as_names(variables)
        items = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(as_int, exps))
            if len(exps) != len(variables):
                raise VariableMismatch(
                    f"exponent vector {exps} does not match variables {variables}"
                )
            items.append((exps, ring.coerce(coeff)))
        self._init(ring, variables, _accumulate(ring, {}, items))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, variables):
        return cls(ring, variables, {})

    @classmethod
    def constant(cls, ring, variables, value):
        return cls(ring, variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, ring, variables):
        return cls.constant(ring, variables, ring.one)

    @classmethod
    def monomial(cls, ring, variables, exps, coeff=None):
        coeff = ring.one if coeff is None else coeff
        return cls(ring, variables, {tuple(exps): coeff})

    @classmethod
    def var(cls, ring, variables, name):
        exps = [0] * len(variables)
        exps[_variable_index(variables, name)] = 1
        return cls.monomial(ring, variables, exps)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_unit_monomial(self) -> bool:
        # every stored coefficient is nonzero, so a unit of a field
        return len(self.terms) == 1

    def single_term(self):
        ((exps, coeff),) = self.terms.items()
        return exps, coeff

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero vector if empty)."""
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(min(e[i] for e in self.terms) for i in range(len(self.variables)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _require_ring(other, self.ring, self.variables)
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
        _require_ring(other, self.ring, self.variables)
        ring = self.ring
        products = (
            (tuple(map(add, e1, e2)), ring.mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return LaurentPoly._new(ring, self.variables, _accumulate(ring, {}, products))

    def times_monomial(self, exps, coeff=None):
        """This polynomial times coeff·x^exps (coeff 1 if None).  A shift
        keeps distinct exponents distinct, and a nonzero coefficient of a
        field keeps every product nonzero, so nothing is summed; a zero
        coefficient gives the zero polynomial."""
        ring = self.ring
        exps = tuple(map(as_int, exps))
        if len(exps) != len(self.variables):
            raise VariableMismatch(f"shift {exps} does not match variables {self.variables}")
        c0 = ring.one if coeff is None else ring.coerce(coeff)
        terms = {tuple(map(add, e, exps)): ring.mul(c, c0) for e, c in self.terms.items()}
        return LaurentPoly._new(ring, self.variables, terms if c0 != ring.zero else {})

    def __pow__(self, n: int):
        n = as_int(n)
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

    def log_derivative(self, name: str) -> "LaurentPoly":
        """x·d/dx for the named variable: each term is multiplied by its
        exponent, reduced into the coefficient ring.  Characteristic-safe."""
        idx = _variable_index(self.variables, name)
        ring = self.ring
        terms = {}
        for exps, coeff in self.terms.items():
            c = ring.mul(exps[idx], coeff)
            if c != ring.zero:
                terms[exps] = c
        return LaurentPoly._new(ring, self.variables, terms)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: dict):
        """Exact value at a point (Rational only); Laurent terms need nonzero
        coordinates under negative exponents."""
        if self.ring is not RATIONAL:
            raise UnsupportedRing("evaluation is supported over Rational only")
        total = _Q_ZERO
        for exps, value in self.terms.items():
            for name, e in zip(self.variables, exps):
                value *= as_rational(point[name]) ** e
            total += value
        return total

    # -- comparisons / printing ---------------------------------------------

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


class RingHom(Value):
    """A ring homomorphism determined by unit-monomial images of generators.

    Every group-ring generator must be sent to a single monomial with unit
    coefficient (so that negative exponents transport).  The hom may shrink
    the variable set; constants (zero exponent vectors) are allowed images.
    Its target variables and its source names, the keys of `images`, are
    read by `as_names`.
    """

    __slots__ = _fields = ("ring", "variables", "images")

    def __init__(self, ring: CoefficientRing, variables, images: dict):
        variables = as_names(variables)
        as_names(images)  # the source names
        for name, poly in images.items():
            if not isinstance(poly, LaurentPoly):
                raise NonUnitImage(f"image of {name} must be a LaurentPoly")
            _require_ring(poly, ring, variables)
            if not poly.is_unit_monomial:
                raise NonUnitImage(
                    f"image of {name} must be a single monomial with unit coefficient"
                )
        self._init(ring, variables, dict(images))

    @classmethod
    def from_monomials(cls, ring, variables, exponents: dict):
        """Build from {generator: exponent vector}, each image with coefficient 1."""
        images = {
            name: LaurentPoly.monomial(ring, variables, exps) for name, exps in exponents.items()
        }
        return cls(ring, variables, images)

    @classmethod
    def identity(cls, ring, variables):
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

    def apply(self, poly: LaurentPoly) -> LaurentPoly:
        """The image of `poly`: the images of its terms, in the order the
        source terms come, summed by `_accumulate`."""
        missing = [v for v in poly.variables if v not in self.images]
        if missing:
            raise VariableMismatch(f"no image given for generators {missing}")
        ring = self.ring
        if poly.ring is not ring:
            raise UnsupportedRing(f"{ring} homomorphism cannot apply to a {poly.ring} polynomial")
        size = len(self.variables)
        one = ring.one
        # each source variable's index, the nonzero (index, exponent) pairs
        # of its image and the image's coefficient
        images = []
        for k, name in enumerate(poly.variables):
            img_exps, img_coeff = self.images[name].single_term()
            images.append((k, [(i, ie) for i, ie in enumerate(img_exps) if ie], img_coeff))
        items = []
        for exps, out_coeff in poly.terms.items():
            out_exps = [0] * size
            for k, img_exps, img_coeff in images:
                e = exps[k]
                if not e:
                    continue
                for i, ie in img_exps:
                    out_exps[i] += ie * e
                if img_coeff != one:
                    factor = img_coeff if e > 0 else ring.inv(img_coeff)
                    out_coeff = ring.mul(out_coeff, factor ** abs(e))
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
    variables = as_names(data["variables"])
    # a repeated exponent vector is summed by the one summing rule
    items = ((tuple(exps), ring.coerce(coeff)) for exps, coeff in data["terms"])
    return LaurentPoly(ring, variables, _accumulate(ring, {}, items))


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
    variables = as_names(data["variables"])
    images = {
        name: LaurentPoly.monomial(ring, variables, tuple(exps), ring.coerce(coeff))
        for name, (exps, coeff) in data["images"].items()
    }
    return RingHom(ring, variables, images)
