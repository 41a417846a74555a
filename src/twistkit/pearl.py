"""Potentials, toric differentials, and the quadratic pearl differential.

The potential of a torus is the signed sum of the group-ring monomials of its
Maslov-2 disc classes.  Writing the group ring as a Laurent ring with one
generator per homology basis element, the quadratic part of the pearl
differential acts on the exterior algebra over the ring by

    d2(a) = sum_k v_k . contract_k(a),      v_k = R_k dU/dR_k,

where R_k runs over the boundary-carrying generators and contract_k pairs the
k-th dual degree-one generator (dual to the boundary of R_k).

Components of an element are summed by `laurent._accumulate`, the one
summing loop of the package, with `_COMPONENTS` as its operations;
`pearl_d2_from_vs` sums the components of all n terms v_k . contract_k(a) in
one pass.  A component, a summand and each v_k must live in the element's
ring and variables, by `laurent._require_ring`, the package's one
compatibility rule; a summand must also have the element's rank.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from ._value import Value
from .discs import DiscClass, HomologyBasis, basis_from_json, basis_to_json
from .errors import VariableMismatch
from .laurent import CoefficientRing, LaurentPoly, _accumulate, _require_ring, poly_to_json
from .matrices import as_int


class Potential(Value):
    """Signed sum of disc-class monomials over a coefficient ring.

    Keeps the class/sign provenance so the same potential can be rebuilt over
    a different ring (the rational rebuild feeds regularity certificates).
    Over GF2 all signs collapse to 1.  `variables` (the basis's ring names),
    `r_names` (the names of the boundary-carrying generators, in torus-factor
    order), `poly` and the toric differentials are derived once, at
    construction.
    """

    _fields = ("ring", "basis", "provenance")
    __slots__ = _fields + ("variables", "r_names", "poly", "_toric")

    def __init__(self, ring: CoefficientRing, basis: HomologyBasis, provenance):
        provenance = tuple((cls, as_int(sign)) for cls, sign in provenance)
        for cls, sign in provenance:
            if len(cls.coefficients) != len(basis.names):
                raise VariableMismatch("disc class length does not match basis")
            if sign == 0:
                raise ValueError("disc-class multiplicities must be nonzero")
        variables = basis.ring_names
        r_names = tuple(variables[j] for j in basis.boundary_indices)
        poly = _signed_sum(ring, variables, provenance)
        toric = tuple(poly.log_derivative(name) for name in r_names)
        self._init(ring, basis, provenance, variables, r_names, poly, toric)

    def poly_over(self, ring: CoefficientRing) -> LaurentPoly:
        """The potential over `ring`."""
        return _signed_sum(ring, self.variables, self.provenance)

    def toric_differential(self) -> tuple[LaurentPoly, ...]:
        """(R_1 dU/dR_1, ..., R_n dU/dR_n), exponents reduced into the ring."""
        return self._toric

    def __repr__(self):
        return f"Potential({self.ring}, U = {self.poly})"


def _signed_sum(ring, variables, provenance) -> LaurentPoly:
    """The classes' signed monomials over `ring`, in provenance order, summed
    by `_accumulate`.  Class coefficients are int tuples of the basis length,
    so the sum needs no validation."""
    signed = ((cls.coefficients, ring.coerce(sign)) for cls, sign in provenance)
    return LaurentPoly._new(ring, variables, _accumulate(ring, {}, signed))


def toric_differential(potential: Potential) -> tuple[LaurentPoly, ...]:
    return potential.toric_differential()


# `_accumulate`'s operations on `(index tuple, LaurentPoly)` components
_COMPONENTS = SimpleNamespace(add=LaurentPoly.__add__, is_zero=LaurentPoly.is_zero.fget)


class PearlElement(Value):
    """Element of the exterior algebra over the group ring: a map from
    strictly increasing tuples of dual-generator indices to coefficients.

    Components are summed by `laurent._accumulate` with `_COMPONENTS`: the
    constructor's, `__add__`'s and `pearl_d2_from_vs`'s.  Only this
    module's own arithmetic calls `PearlElement._new`, on components it
    built from validated elements: strictly increasing index tuples below
    `n`, and nonzero LaurentPoly coefficients over `ring` and `variables`.
    `contract` and `scaled_by` need no sum: deleting k from distinct index
    tuples leaves them distinct, and a Laurent ring over a field has no zero
    divisors, so a product is zero only when the factor is.
    """

    __slots__ = _fields = ("ring", "variables", "n", "components")

    def __init__(self, ring, variables, n, components=None):
        variables = tuple(variables)
        n = as_int(n)
        pairs = []
        for subset, poly in (components or {}).items():
            subset = tuple(subset)
            if tuple(sorted(set(subset))) != subset:
                raise ValueError(f"exterior index tuple {subset} must be strictly increasing")
            if subset and (subset[0] < 0 or subset[-1] >= n):
                raise ValueError(f"exterior index out of range in {subset}")
            _require_ring(poly, ring, variables)
            pairs.append((subset, poly))
        self._init(ring, variables, n, _accumulate(_COMPONENTS, {}, pairs))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring, variables, n):
        return cls(ring, variables, n, {})

    @classmethod
    def scalar(cls, poly: LaurentPoly, n):
        return cls(poly.ring, poly.variables, n, {(): poly})

    @classmethod
    def generator(cls, ring, variables, n, k):
        """The degree-one generator dual to the boundary of the k-th
        carrying generator (0-based)."""
        return cls(ring, variables, n, {(k,): LaurentPoly.one(ring, variables)})

    @classmethod
    def wedge_of(cls, ring, variables, n, indices):
        """Wedge of dual generators in the given order, normalized to
        strictly increasing indices with the permutation sign (a repeated
        index gives zero)."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return cls.zero(ring, variables, n)
        inversions = sum(
            1
            for a in range(len(indices))
            for b in range(a + 1, len(indices))
            if indices[a] > indices[b]
        )
        coeff = ring.one if inversions % 2 == 0 else ring.neg(ring.one)
        return cls(
            ring,
            variables,
            n,
            {tuple(sorted(indices)): LaurentPoly.constant(ring, variables, coeff)},
        )

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        _require_ring(other, self.ring, self.variables)
        if other.n != self.n:
            raise VariableMismatch(f"rank {other.n} does not match rank {self.n}")
        comps = _accumulate(_COMPONENTS, dict(self.components), other.components.items())
        return PearlElement._new(self.ring, self.variables, self.n, comps)

    def scaled_by(self, poly: LaurentPoly) -> "PearlElement":
        comps = {subset: coeff * poly for subset, coeff in self.components.items()}
        return PearlElement._new(self.ring, self.variables, self.n, {} if poly.is_zero else comps)

    def contract(self, k: int) -> "PearlElement":
        """Interior product with the k-th dual generator; drops degree by one.
        The sign is (-1)^(position of k), trivial over GF2."""
        comps = {}
        for subset, poly in self.components.items():
            if k in subset:
                pos = subset.index(k)
                comps[subset[:pos] + subset[pos + 1 :]] = poly if pos % 2 == 0 else -poly
        return PearlElement._new(self.ring, self.variables, self.n, comps)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(s) for s in self.components}))

    def component(self, subset) -> LaurentPoly:
        return self.components.get(tuple(subset), LaurentPoly.zero(self.ring, self.variables))

    def __hash__(self):
        return hash(
            (self.ring.tag, self.variables, self.n, frozenset(self.components.items()))
        )

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for subset in sorted(self.components, key=lambda s: (len(s), s)):
            poly = self.components[subset]
            wedge = "^".join(f"q{k + 1}" for k in subset) or "1"
            parts.append(f"({poly}) {wedge}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PearlElement({self.ring}, {str(self)!r})"


def pearl_d2(alpha: PearlElement, potential: Potential) -> PearlElement:
    """Quadratic pearl differential: contract each dual generator and
    multiply by the matching toric differential.  Drops degree by one;
    `pearl_d2_from_vs` checks the rank and the ring."""
    return pearl_d2_from_vs(alpha, potential.toric_differential())


def pearl_d2_from_vs(alpha: PearlElement, vs) -> PearlElement:
    """The same differential with the toric differentials given explicitly
    (used to transport the computation through a ring homomorphism): the
    components of every term v_k . contract_k(alpha), summed in one pass.
    There must be one v_k per dual generator, each in alpha's ring."""
    vs = tuple(vs)
    if len(vs) != alpha.n:
        raise VariableMismatch(f"need {alpha.n} toric differentials, got {len(vs)}")
    for v in vs:
        _require_ring(v, alpha.ring, alpha.variables)
    terms = (alpha.contract(k).scaled_by(v) for k, v in enumerate(vs))
    pairs = itertools.chain.from_iterable(term.components.items() for term in terms)
    comps = _accumulate(_COMPONENTS, {}, pairs)
    return PearlElement._new(alpha.ring, alpha.variables, alpha.n, comps)


# ---------------------------------------------------------------------------
# JSON


def potential_to_json(potential: Potential) -> dict:
    return {
        "ring": potential.ring.tag,
        **basis_to_json(potential.basis),
        "classes": [
            {"coefficients": list(cls.coefficients), "sign": sign}
            for cls, sign in potential.provenance
        ],
        "poly": poly_to_json(potential.poly),
    }


def potential_from_json(data: dict) -> Potential:
    """Accepts either `classes` entries ({"coefficients": [...], "sign": n})
    or a bare `terms` list ([[exponent vector, coefficient], ...]); a class
    coefficient vector is the exponent vector of its group-ring monomial."""
    basis = basis_from_json(data)
    ring = CoefficientRing.from_tag(data.get("ring", "GF2"))
    entries = []
    if "classes" in data:
        entries = [
            (tuple(e["coefficients"]), e.get("sign", 1)) for e in data["classes"]
        ]
    elif "terms" in data:
        entries = [(tuple(exps), coeff) for exps, coeff in data["terms"]]
    else:
        raise KeyError("potential file needs a 'classes' or 'terms' entry")
    provenance = [
        (DiscClass(coeffs, basis.boundary_of(coeffs)), sign) for coeffs, sign in entries
    ]
    return Potential(ring, basis, provenance)
