"""Ideal-membership and Koszul-regularity certificates.

Non-displaceability of a torus is certified through the quadratic pearl
differential in two steps:

  (a) degree zero survives: 1 is not in the Laurent ideal generated by the
      toric differentials (checked through a collapsing homomorphism with a
      proper image ideal, or directly);
  (b) positive degrees die: through a homomorphism sending the carrying
      generators to independent variables and the surface generators to
      nonzero constants, the critical ideal of the image potential has a
      finite-dimensional quotient in the Laurent ring, so the toric
      differentials form a regular sequence and the complex is the acyclic
      part of a Koszul complex.

Both checks produce explicit, re-checkable witnesses.
`certify_nondisplaceable` returns a `CertificateReport` that holds values:
the potential, the H0 homomorphism with its image ideal's generators, and
the regularity homomorphism with its `RegularityResult`.  `to_json_dict`
renders them as it writes; `report_text`, the one text writer, reads only
that dict.  Certifying alone computes no string.
"""

from __future__ import annotations

import collections
import itertools
import math

from ._value import Value
from .errors import (
    CapExceeded,
    InconclusiveCertificate,
    NonGenericHom,
    UnsupportedRing,
    VariableMismatch,
)
from .groebner import (
    contains_constant,
    groebner_basis,
    standard_monomials,
    univariate_extended_gcd,
)
from .laurent import RATIONAL, LaurentPoly, RingHom, _require_ring
from .matrices import as_int
from .pearl import Potential

# Most candidate homomorphisms `search_h0_hom` will try; each costs an
# ideal-membership test.
HOM_SEARCH_BUDGET = 10_000

REGULARITY_CRITERION_NOTE = (
    "isolated critical points read as: the critical ideal has a "
    "finite-dimensional quotient in the Laurent ring (after inverting all "
    "variables), and no toric derivative vanishes identically"
)


class IdealMembershipResult(Value):
    """Outcome of the `1 in (gens)` test in a Laurent ring over a field.

    `method` is "gcd" (univariate) or "groebner".  `generators` is the
    reduced description of the ideal: the gcd (univariate), or the reduced
    bases of its variable-disjoint blocks in block order, each in the ring
    of exactly the variables its generators use with the auxiliary variable
    last (see `_localized_blocks`).
    `cofactors`, when 1 is in the ideal, is the witness: sum c_i g_i = 1.
    """

    __slots__ = _fields = ("contains_one", "method", "generators", "cofactors")

    def __init__(self, contains_one, method, generators, cofactors=None):
        self._init(contains_one, method, generators, cofactors)

    def __bool__(self):
        return self.contains_one


def _strip_units(poly: LaurentPoly) -> tuple[LaurentPoly, tuple[int, ...]]:
    """Divide by the largest monomial factor x^shift, shift the componentwise
    least exponent, through `times_monomial`; returns (polynomial part, shift)."""
    shift = poly.min_exponents()
    return poly.times_monomial([-s for s in shift]), shift


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# One block of a localized ideal: generators sharing no variable with the
# other blocks' generators.  `indices` are the positions of the block's
# generators; `variables` exactly the ring variables they use, in ring order,
# the auxiliary one following in `basis`; `generators` the restricted ones,
# then the relation, in the ring of `basis`; `basis` the reduced basis, in the
# ring of `variables` plus the auxiliary one.
_Block = collections.namedtuple("_Block", ("indices", "variables", "generators", "basis"))


def _localized_blocks(polys) -> list[_Block]:
    """Reduced Groebner bases of the Laurent ideal generated by `polys`
    (nonzero, without monomial factors), one per block of generators.

    A block is the generators joined by shared variables, found in one pass
    that merges the blocks each generator's support touches; blocks come in
    the order of their first generator.  Each block is localized over
    exactly the variables its generators use: its generators are restricted
    to them, and an auxiliary variable, ordered last, enters through the
    relation aux * prod(block variables) - 1.  The auxiliary variable is "w"
    when there is one block and "w1", "w2", ... when there are several, each
    fresh against the ring's variables.  Over a field the Laurent quotient
    by the whole ideal is the tensor product of the block quotients and of
    the Laurent ring in the variables no generator uses, so 1 lies in the
    ideal iff it lies in some block, and the quotient dimension is the
    product of the block dimensions once every ring variable is in a block.
    """
    ring = polys[0].ring
    variables = polys[0].variables
    groups = []  # (generator indices, variable indices) of the blocks so far
    for i, p in enumerate(polys):
        indices, ks = [i], {k for exps in p.terms for k, e in enumerate(exps) if e}
        rest = []
        for group in groups:
            if ks.isdisjoint(group[1]):
                rest.append(group)
            else:
                indices += group[0]
                ks |= group[1]
        groups = rest + [(indices, ks)]
    groups = sorted((sorted(indices), sorted(ks)) for indices, ks in groups)
    blocks = []
    for j, (indices, ks) in enumerate(groups, start=1):
        aux = _fresh_name(f"w{j}" if len(groups) > 1 else "w", variables)
        ext_vars = tuple(variables[k] for k in ks) + (aux,)
        # the restriction to the block's variables is injective on each
        # generator's terms: its other exponents are all zero
        ext_gens = [
            LaurentPoly._new(
                ring,
                ext_vars,
                {tuple(exps[k] for k in ks) + (0,): c for exps, c in polys[i].terms.items()},
            )
            for i in indices
        ]
        relation = LaurentPoly._new(
            ring,
            ext_vars,
            {(1,) * len(ext_vars): ring.one, (0,) * len(ext_vars): ring.neg(ring.one)},
        )
        ext_gens.append(relation)
        blocks.append(_Block(tuple(indices), ext_vars[:-1], ext_gens, groebner_basis(ext_gens)))
    return blocks


def ideal_contains_one(gens) -> IdealMembershipResult:
    """Decide whether 1 lies in the Laurent ideal generated by `gens`.

    Univariate: monomial factors are stripped and an extended gcd is
    computed; both inclusions are re-checked in Laurent arithmetic: its
    cofactors, mapped back to the original generators, must combine to the
    gcd (the gcd lies in the ideal), and a gcd that is not constant must
    divide every stripped generator (the ideal lies in the gcd's); a failed
    check raises `InconclusiveCertificate`.  The ideal is the whole ring iff
    the gcd is constant.  Multivariate: the generators are split into
    blocks in disjoint variables, and each block gets a Buchberger basis
    after inverting its variables through its own auxiliary generator
    (degrevlex, auxiliary last); 1 is in the ideal iff it is in some block.
    When 1 is in the ideal that block's cofactor certificate, padded with
    zeros, is returned over the original generators and re-verified before
    reporting.
    """
    gens = list(gens)
    if not gens:
        return IdealMembershipResult(False, "gcd", ())
    ring, variables = gens[0].ring, gens[0].variables
    for g in gens:
        _require_ring(g, ring, variables)
    nonzero_indices = [i for i, g in enumerate(gens) if not g.is_zero]
    if not nonzero_indices:
        return IdealMembershipResult(False, "gcd" if len(variables) == 1 else "groebner", ())
    stripped = []
    shifts = []
    for i in nonzero_indices:
        s, shift = _strip_units(gens[i])
        stripped.append(s)
        shifts.append(shift)

    if len(variables) == 1:
        gcd, cofs = univariate_extended_gcd(stripped, ring, variables)
        # the gcd must be the combination its cofactors claim, proper or not,
        # so it lies in the ideal; a proper one must also divide every generator
        cofactors = _assemble_cofactors(gens, zip(nonzero_indices, shifts, cofs), gcd)
        unit = contains_constant([gcd])
        if not unit and (gcd.is_zero or not all(_divides(gcd, s) for s in stripped)):
            raise InconclusiveCertificate(f"the gcd {gcd} does not divide every generator")
        return IdealMembershipResult(unit, "gcd", (gcd,), cofactors if unit else None)

    blocks = _localized_blocks(stripped)
    basis = tuple(g for block in blocks for g in block.basis)
    for block in blocks:
        if contains_constant(block.basis):
            # only this block's certificate is needed: its basis again, with
            # cofactors, is [1] with the cofactors of 1
            _, (block_cofactors,) = groebner_basis(block.generators, with_cofactors=True)
            # drop_aux keeps the block's variables and sends its auxiliary
            # one to their product's inverse, and so the relation to zero
            aux = block.basis[0].variables[-1]
            exponents = {v: tuple(int(u == v) for u in variables) for v in block.variables}
            exponents[aux] = tuple(-1 if u in block.variables else 0 for u in variables)
            drop_aux = RingHom.from_monomials(ring, variables, exponents)
            # zip drops the relation's cofactor, which comes last
            mapped = [
                (nonzero_indices[i], shifts[i], drop_aux.apply(c))
                for i, c in zip(block.indices, block_cofactors)
            ]
            cofactors = _assemble_cofactors(gens, mapped, LaurentPoly.one(ring, variables))
            return IdealMembershipResult(True, "groebner", basis, cofactors)
    return IdealMembershipResult(False, "groebner", basis)


def _divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    """Whether the nonzero one-variable polynomial `d` divides `p`, by long
    division in Laurent arithmetic: a leading term is the one of largest exponent."""
    top, lc = max(d.terms.items())
    while not p.is_zero and max(p.terms) >= top:
        exps, c = max(p.terms.items())
        p = p - d.times_monomial((exps[0] - top[0],), p.ring.mul(c, p.ring.inv(lc)))
    return p.is_zero


def _assemble_cofactors(gens, cofs, target):
    """Re-express cofactors of the unit-stripped generators over the original
    generators, and verify once, in LaurentPoly arithmetic, that they combine
    to `target`; a failed identity raises `InconclusiveCertificate`.  `cofs`
    holds (generator index, stripped shift, cofactor) triples; a generator
    with none gets the cofactor 0."""
    ring = gens[0].ring
    variables = gens[0].variables
    out = [LaurentPoly.zero(ring, variables)] * len(gens)
    for idx, shift, c in cofs:
        out[idx] = c.times_monomial(tuple(-s for s in shift))
    total = LaurentPoly.zero(ring, variables)
    for c, g in zip(out, gens):
        total = total + c * g
    if total != target:
        raise InconclusiveCertificate(
            f"cofactor certificate failed: sum c_i g_i = {total} disagrees with {target}"
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# regularity


class RegularityResult(Value):
    """Outcome of the Koszul regularity certificate for a Laurent potential."""

    __slots__ = _fields = ("regular", "quotient_dimension", "zero_directions")

    def __init__(self, regular, quotient_dimension, zero_directions):
        self._init(regular, quotient_dimension, zero_directions)

    def __bool__(self):
        return self.regular


def regular_sequence_check(u_img: LaurentPoly) -> RegularityResult:
    """Certify that the toric derivatives of `u_img` form a regular sequence.

    Criterion: no derivative vanishes identically, and the ideal they
    generate has a finite-dimensional quotient in the Laurent ring (computed
    by a Groebner basis per variable-disjoint block after inverting the
    block's variables; the dimension is the product over the blocks).
    Rational coefficients and at least one variable only.
    """
    if u_img.ring is not RATIONAL:
        raise UnsupportedRing("regularity certificates require Rational coefficients")
    variables = u_img.variables
    if not variables:
        raise VariableMismatch("regularity certificates need at least one variable")
    vs = [u_img.log_derivative(v) for v in variables]
    zero_dirs = tuple(v for v, p in zip(variables, vs) if p.is_zero)
    if zero_dirs:
        return RegularityResult(False, None, zero_dirs)
    blocks = _localized_blocks([_strip_units(v)[0] for v in vs])
    monomials = [standard_monomials(block.basis) for block in blocks]
    if [] in monomials:  # some block contains 1
        return RegularityResult(True, 0, ())
    # infinite if a block is, or if some variable is in no block: each block
    # holds exactly its generators' variables, so one no generator uses
    # stays free
    if None in monomials or sum(len(b.variables) for b in blocks) < len(variables):
        return RegularityResult(False, None, ())
    return RegularityResult(True, math.prod(map(len, monomials)), ())


def validate_regularity_hom(potential: Potential, hom: RingHom):
    """The homomorphism must send carrying generators bijectively onto the
    target variables (plain variables, coefficient 1) and surface generators
    to nonzero constants; Rational target."""
    if hom.ring is not RATIONAL:
        raise NonGenericHom("regularity homomorphisms must target Rational coefficients")
    seen_vars = {}
    r_names = set(potential.r_names)
    for name in potential.variables:
        if name not in hom.images:
            raise NonGenericHom(f"no image for generator {name}")
        exps, coeff = hom.images[name].single_term()
        if name in r_names:
            nonzero = [i for i, e in enumerate(exps) if e != 0]
            if len(nonzero) != 1 or exps[nonzero[0]] != 1 or coeff != 1:
                raise NonGenericHom(
                    f"carrying generator {name} must map to a plain target variable"
                )
            var = hom.variables[nonzero[0]]
            if var in seen_vars:
                raise NonGenericHom(
                    f"generators {seen_vars[var]} and {name} map to the same variable {var}"
                )
            seen_vars[var] = name
        else:
            if any(exps):
                raise NonGenericHom(
                    f"surface generator {name} must map to a nonzero constant"
                )
    if len(seen_vars) != len(hom.variables):
        unused = [v for v in hom.variables if v not in seen_vars]
        raise NonGenericHom(f"target variables {unused} receive no carrying generator")


def regularity_via_hom(potential: Potential, hom: RingHom) -> RegularityResult:
    """Rational regularity certificate for a potential through a generic
    monomial homomorphism (rebuilds the potential over Q from provenance)."""
    validate_regularity_hom(potential, hom)
    u_rational = potential.poly_over(RATIONAL)
    return regular_sequence_check(hom.apply(u_rational))


# ---------------------------------------------------------------------------
# certification pipeline


class H0Evidence(Value):
    """The degree-zero half: the homomorphism `hom` applied to the toric
    differentials, and what `ideal_contains_one` found for their images
    (`generators` are its `IdealMembershipResult.generators`)."""

    __slots__ = _fields = ("hom", "hom_is_identity", "contains_one", "generators", "method")

    def __init__(self, hom, hom_is_identity, contains_one, generators, method):
        self._init(hom, hom_is_identity, contains_one, generators, method)

    @property
    def passed(self) -> bool:
        return not self.contains_one


class CertificateReport(Value):
    """`token` is one of certified, partial, inconclusive and not-certified;
    `regularity` is the `RegularityResult` through `regularity_hom`, both
    None when no regularity homomorphism was supplied."""

    __slots__ = _fields = ("verdict", "token", "potential", "h0", "regularity_hom", "regularity")

    def __init__(self, verdict, token, potential, h0, regularity_hom, regularity):
        self._init(verdict, token, potential, h0, regularity_hom, regularity)

    def to_json_dict(self) -> dict:
        h0, regularity, p = self.h0, self.regularity, self.potential
        return {
            "verdict": self.verdict,
            "token": self.token,
            "potential": str(p.poly),
            "toric_differential": dict(zip(p.r_names, map(str, p.toric_differential()))),
            "h0": {
                "hom": h0.hom.describe(),
                "identity_hom": h0.hom_is_identity,
                "contains_one": h0.contains_one,
                "ideal_generators": [str(g) for g in h0.generators],
                "method": h0.method,
                "passed": h0.passed,
            },
            "regularity": None
            if regularity is None
            else {
                "hom": self.regularity_hom.describe(),
                "regular": regularity.regular,
                "quotient_dimension": regularity.quotient_dimension,
                "zero_directions": list(regularity.zero_directions),
                "note": REGULARITY_CRITERION_NOTE,
                "passed": regularity.regular,
            },
        }

    def to_text(self) -> list[str]:
        return report_text(self.to_json_dict())


def report_text(d: dict) -> list[str]:
    """The text lines of a report, written from its `to_json_dict()` alone."""
    h0, regularity = d["h0"], d["regularity"]
    lines = [f"potential U = {d['potential']}"]
    lines.extend(f"v[{name}] = {v}" for name, v in d["toric_differential"].items())
    status = "PASSED" if h0["passed"] else "FAILED"
    gens = ", ".join(h0["ideal_generators"]) or "0"
    lines.append(f"H0 check ({h0['method']}, hom: {h0['hom']}): {status}; image ideal ({gens})")
    if regularity is None:
        lines.append("regularity check: not run (no homomorphism supplied)")
    else:
        status = "PASSED" if regularity["passed"] else "FAILED"
        dim = regularity["quotient_dimension"]
        detail = f"critical quotient dimension {dim}" if dim is not None else (
            "vanishing toric derivative in " + ", ".join(regularity["zero_directions"])
            if regularity["zero_directions"]
            else "infinite-dimensional critical quotient"
        )
        lines.append(f"regularity check (hom: {regularity['hom']}): {status}; {detail}")
    lines.append(f"verdict: {d['verdict']}")
    return lines


def certify_nondisplaceable(
    potential: Potential,
    h0_hom: RingHom | None = None,
    regularity_hom: RingHom | None = None,
) -> CertificateReport:
    """Run both certificate halves and assemble the verdict.

    Without an explicit `h0_hom` the identity homomorphism is used, which
    decides degree-zero survival exactly; a user-supplied homomorphism is
    honored as the evidence route, so its failure is inconclusive rather
    than a disproof.  The report holds values; nothing is rendered here.
    """
    hom = h0_hom or RingHom.identity(potential.ring, potential.variables)
    membership = ideal_contains_one([hom.apply(v) for v in potential.toric_differential()])
    h0 = H0Evidence(hom, hom.is_identity, membership.contains_one, membership.generators,
                    membership.method)
    regularity = None if regularity_hom is None else regularity_via_hom(potential, regularity_hom)

    if h0.passed and regularity is not None and regularity.regular:
        verdict, token = "non-displaceability certified", "certified"
    elif h0.passed:
        detail = (
            "positive-degree vanishing not established"
            if regularity is None
            else "regularity certificate failed"
        )
        verdict, token = f"partially certified: degree zero survives; {detail}", "partial"
    elif h0.hom_is_identity:
        verdict, token = (
            "not certified: the toric differentials generate the unit ideal, "
            "degree zero dies",
            "not-certified",
        )
    else:
        verdict, token = (
            "inconclusive: the chosen homomorphism does not witness a proper "
            "ideal (not a disproof)",
            "inconclusive",
        )

    return CertificateReport(verdict, token, potential, h0, regularity_hom, regularity)


def search_h0_hom(potential: Potential, exponent_bound: int = 2):
    """Brute-force search for a univariate collapse witnessing a proper
    ideal: every generator is sent to a power of one variable t with exponent
    in [-bound, bound].  Returns the first homomorphism found, or None.
    Raises `ValueError` for a negative bound and `CapExceeded`, before
    trying any, when the (2 bound + 1)^n candidates number more than
    `HOM_SEARCH_BUDGET`; a bound that is not an integer (`as_int`) raises
    `ValueError` too."""
    exponent_bound = as_int(exponent_bound)
    if exponent_bound < 0:
        raise ValueError(f"exponent bound must be >= 0, got {exponent_bound}")
    ring = potential.ring
    names = potential.variables
    candidates = (2 * exponent_bound + 1) ** len(names)
    if candidates > HOM_SEARCH_BUDGET:
        raise CapExceeded("certificates", candidates, "candidate homomorphisms", HOM_SEARCH_BUDGET)
    vs = potential.toric_differential()
    span = range(-exponent_bound, exponent_bound + 1)
    for exponents in itertools.product(span, repeat=len(names)):
        hom = RingHom.from_monomials(
            ring, ("t",), {name: (e,) for name, e in zip(names, exponents)}
        )
        membership = ideal_contains_one([hom.apply(v) for v in vs])
        if not membership.contains_one:
            return hom
    return None
