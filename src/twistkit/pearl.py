"""Potentials, toric differentials, and the quadratic pearl differential.

The potential of a torus is the signed sum of the group-ring monomials of its
Maslov-2 disc classes.  Writing the group ring as a Laurent ring with one
generator per homology basis element, the quadratic part of the pearl
differential acts on the exterior algebra over the ring by

    d2(a) = sum_k v_k . contract_k(a),      v_k = R_k dU/dR_k,

where R_k runs over the boundary-carrying generators and contract_k pairs the
k-th dual degree-one generator (dual to the boundary of R_k).
"""

from __future__ import annotations

from .discs import DiscClass, HomologyBasis, basis_from_json, basis_to_json
from .errors import VariableMismatch
from .laurent import CoefficientRing, LaurentPoly, RingHom, _accumulate, poly_to_json
from .matrices import as_int


class Potential:
    """Signed sum of disc-class monomials over a coefficient ring.

    Keeps the class/sign provenance so the same potential can be rebuilt over
    a different ring (the rational rebuild feeds regularity certificates).
    Over GF2 all signs collapse to 1.
    """

    def __init__(self, ring: CoefficientRing, basis: HomologyBasis, provenance):
        self.ring = ring
        self.basis = basis
        self.provenance: tuple[tuple[DiscClass, int], ...] = tuple(
            (cls, as_int(sign)) for cls, sign in provenance
        )
        for cls, sign in self.provenance:
            if len(cls.coefficients) != len(basis.names):
                raise VariableMismatch("disc class length does not match basis")
            if sign == 0:
                raise ValueError("disc-class multiplicities must be nonzero")
        self.variables = basis.ring_names
        # names of the boundary-carrying generators, in torus-factor order
        self.r_names: tuple[str, ...] = tuple(
            self.variables[j] for j in basis.boundary_indices
        )
        self.poly = self.poly_over(ring)

    def poly_over(self, ring: CoefficientRing) -> LaurentPoly:
        """The potential over `ring`: the classes' signed monomials, in
        provenance order, summed by `_accumulate`.  Class coefficients are
        int tuples of the basis length, so the sum needs no validation."""
        signed = ((cls.coefficients, ring.coerce(sign)) for cls, sign in self.provenance)
        return LaurentPoly._new(ring, self.variables, _accumulate(ring, {}, signed))

    def toric_differential(self) -> tuple[LaurentPoly, ...]:
        """(R_1 dU/dR_1, ..., R_n dU/dR_n), exponents reduced into the ring."""
        return tuple(self.poly.log_derivative(name) for name in self.r_names)

    def __repr__(self):
        return f"Potential({self.ring}, U = {self.poly})"


def toric_differential(potential: Potential) -> tuple[LaurentPoly, ...]:
    return potential.toric_differential()


class PearlElement:
    """Element of the exterior algebra over the group ring: a map from
    strictly increasing tuples of dual-generator indices to coefficients."""

    def __init__(self, ring, variables, n, components=None):
        self.ring = ring
        self.variables = tuple(variables)
        self.n = int(n)
        comps: dict[tuple[int, ...], LaurentPoly] = {}
        for subset, poly in (components or {}).items():
            subset = tuple(subset)
            if tuple(sorted(set(subset))) != subset:
                raise ValueError(f"exterior index tuple {subset} must be strictly increasing")
            if subset and (subset[0] < 0 or subset[-1] >= self.n):
                raise ValueError(f"exterior index out of range in {subset}")
            if poly.ring is not ring or poly.variables != self.variables:
                raise VariableMismatch("component coefficients live in the wrong ring")
            if not poly.is_zero:
                comps[subset] = comps[subset] + poly if subset in comps else poly
        self.components = {k: v for k, v in comps.items() if not v.is_zero}

    @staticmethod
    def _new(ring, variables: tuple, n: int, components: dict) -> "PearlElement":
        """The element with exactly these components, made without validation.

        Only this module's own arithmetic calls this, on components it built
        from validated elements: strictly increasing index tuples below `n`,
        and LaurentPoly coefficients over `ring` and `variables`.  Zero
        coefficients are dropped here.
        """
        element = object.__new__(PearlElement)
        element.ring = ring
        element.variables = variables
        element.n = n
        element.components = {k: v for k, v in components.items() if not v.is_zero}
        return element

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

    def _check(self, other: "PearlElement"):
        if self.ring is not other.ring or self.variables != other.variables or self.n != other.n:
            raise VariableMismatch("pearl elements live in different modules")

    def __add__(self, other):
        self._check(other)
        comps = dict(self.components)
        for subset, poly in other.components.items():
            comps[subset] = comps[subset] + poly if subset in comps else poly
        return PearlElement._new(self.ring, self.variables, self.n, comps)

    def scaled_by(self, poly: LaurentPoly) -> "PearlElement":
        return PearlElement._new(
            self.ring,
            self.variables,
            self.n,
            {subset: coeff * poly for subset, coeff in self.components.items()},
        )

    def contract(self, k: int) -> "PearlElement":
        """Interior product with the k-th dual generator; drops degree by one.
        The sign is (-1)^(position of k), trivial over GF2."""
        comps = {}
        for subset, poly in self.components.items():
            if k not in subset:
                continue
            pos = subset.index(k)
            rest = subset[:pos] + subset[pos + 1 :]
            signed = poly if pos % 2 == 0 else -poly
            comps[rest] = comps[rest] + signed if rest in comps else signed
        return PearlElement._new(self.ring, self.variables, self.n, comps)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(s) for s in self.components}))

    def component(self, subset) -> LaurentPoly:
        return self.components.get(tuple(subset), LaurentPoly.zero(self.ring, self.variables))

    def map_coefficients(self, hom: RingHom) -> "PearlElement":
        return PearlElement(
            hom.ring,
            hom.variables,
            self.n,
            {subset: hom.apply(poly) for subset, poly in self.components.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, PearlElement)
            and self.ring is other.ring
            and self.variables == other.variables
            and self.n == other.n
            and self.components == other.components
        )

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
    multiply by the matching toric differential.  Drops degree by one."""
    if alpha.variables != potential.variables or alpha.ring is not potential.ring:
        raise VariableMismatch("element and potential live in different rings")
    if alpha.n != len(potential.r_names):
        raise VariableMismatch("element rank does not match the torus rank")
    return pearl_d2_from_vs(alpha, potential.toric_differential())


def pearl_d2_from_vs(alpha: PearlElement, vs) -> PearlElement:
    """The same differential with the toric differentials given explicitly
    (used to transport the computation through a ring homomorphism)."""
    vs = tuple(vs)
    if len(vs) != alpha.n:
        raise VariableMismatch(f"need {alpha.n} toric differentials, got {len(vs)}")
    result = PearlElement._new(alpha.ring, alpha.variables, alpha.n, {})
    for k, v in enumerate(vs):
        result = result + alpha.contract(k).scaled_by(v)
    return result


def disc_differential(disc: DiscClass, sign: int, basis: HomologyBasis, alpha: PearlElement) -> PearlElement:
    """Contribution of a single disc class to the differential: its monomial
    times the contraction along its boundary (in carrying-generator coordinates)."""
    ring = alpha.ring
    monomial = LaurentPoly.monomial(ring, alpha.variables, disc.coefficients, sign)
    result = PearlElement.zero(ring, alpha.variables, alpha.n)
    for k, j in enumerate(basis.boundary_indices):
        multiple = disc.coefficients[j]
        if multiple == 0:
            continue
        result = result + alpha.contract(k).scaled_by(monomial.scale(multiple))
    return result


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
