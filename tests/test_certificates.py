import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from twistkit import certificates
from twistkit.certificates import (
    IdealMembershipResult,
    RegularityResult,
    certify_nondisplaceable,
    ideal_contains_one,
    regular_sequence_check,
    regularity_via_hom,
    search_h0_hom,
    validate_regularity_hom,
)
from twistkit.discs import DiscClass, HomologyBasis
from twistkit.errors import (
    CapExceeded,
    InconclusiveCertificate,
    NonGenericHom,
    UnsupportedRing,
    VariableMismatch,
)
from twistkit.groebner import contains_constant, groebner_basis, standard_monomials
from twistkit.laurent import GF2, INT, RATIONAL, LaurentPoly, RingHom
from twistkit.pearl import Potential
from twistkit.presets import (
    circle_constraint_table,
    product_bundle,
    theta_bundle,
    theta_h0_hom,
    theta_maslov_collapse_hom,
    theta_potential,
    theta_regularity_hom,
)

DATA = Path(__file__).parent / "data"


def univ(ring, terms, var="R"):
    return LaurentPoly(ring, (var,), {(e,): c for e, c in terms.items()})


# ---------------------------------------------------------------------------
# ideal membership


def test_twist_torus_image_ideal_is_proper():
    # R^-2*(1+R+R^2) and R^-2*(R+1)*(R^2+R+1) generate (R^2+R+1)
    g1 = univ(GF2, {-2: 1, -1: 1, 0: 1})
    g2 = univ(GF2, {-2: 1, 1: 1})
    result = ideal_contains_one([g1, g2])
    assert not result.contains_one
    assert result.method == "gcd"
    assert result.generators == (univ(GF2, {0: 1, 1: 1, 2: 1}),)


def test_unit_monomial_generates_everything():
    t = univ(GF2, {1: 1}, var="t")
    result = ideal_contains_one([t])
    assert result.contains_one
    (cofactor,) = result.cofactors
    assert cofactor * t == LaurentPoly.one(GF2, ("t",))


def test_wrong_gcd_cofactors_raise_inconclusive(monkeypatch):
    # the certificate is re-checked by code that python -O keeps
    real = certificates.univariate_extended_gcd

    def doubled_cofactors(polys, ring, variables):
        gcd, cofactors = real(polys, ring, variables)
        return gcd, [c.scale(Fraction(2)) for c in cofactors]

    monkeypatch.setattr(certificates, "univariate_extended_gcd", doubled_cofactors)
    gens = [univ(RATIONAL, {0: 1, 1: 1}), univ(RATIONAL, {0: -1, 1: 1})]
    with pytest.raises(InconclusiveCertificate, match="cofactor certificate failed"):
        ideal_contains_one(gens)


def test_extended_gcd_disagreeing_with_gcd_raises_inconclusive(monkeypatch):
    def wrong_gcd(polys, ring, variables):
        zero = LaurentPoly.zero(ring, variables)
        return univ(ring, {0: 1, 1: 1}), [zero] * len(polys)

    monkeypatch.setattr(certificates, "univariate_extended_gcd", wrong_gcd)
    gens = [univ(RATIONAL, {0: 1, 1: 1}), univ(RATIONAL, {0: -1, 1: 1})]
    with pytest.raises(InconclusiveCertificate, match="disagrees"):
        ideal_contains_one(gens)


def test_tampered_cofactor_of_a_proper_one_variable_ideal_raises_inconclusive(monkeypatch):
    # the gcd route re-checks sum c_i g_i == gcd for proper ideals as well
    gens = [univ(RATIONAL, {0: 2, 1: 3, 2: 1}), univ(RATIONAL, {0: -3, 1: -2, 2: 1})]
    result = ideal_contains_one(gens)  # (R + 1)(R + 2) and (R + 1)(R - 3)
    assert not result.contains_one
    assert result.generators == (univ(RATIONAL, {0: 1, 1: 1}),)
    real = certificates.univariate_extended_gcd

    def tampered(polys, ring, variables):
        gcd, cofactors = real(polys, ring, variables)
        return gcd, [cofactors[0] + LaurentPoly.one(ring, variables), *cofactors[1:]]

    monkeypatch.setattr(certificates, "univariate_extended_gcd", tampered)
    with pytest.raises(InconclusiveCertificate, match="cofactor certificate failed"):
        ideal_contains_one(gens)


def test_one_generates_everything():
    one = LaurentPoly.one(RATIONAL, ("x", "y"))
    result = ideal_contains_one([one])
    assert result.contains_one
    total = sum(
        (c * g for c, g in zip(result.cofactors, [one])),
        LaurentPoly.zero(RATIONAL, ("x", "y")),
    )
    assert total == one


def test_zero_and_empty_ideals_are_proper():
    z = LaurentPoly.zero(GF2, ("t",))
    assert not ideal_contains_one([z]).contains_one
    assert not ideal_contains_one([]).contains_one


def test_integer_coefficients_are_rejected():
    with pytest.raises(UnsupportedRing):
        ideal_contains_one([univ(INT, {0: 1, 1: 1})])


def test_generators_in_different_rings_are_rejected():
    variables = ("x", "y")
    gf2 = LaurentPoly(GF2, variables, {(1, 0): 1, (0, 1): 1})  # a proper ideal
    for other in (LaurentPoly(RATIONAL, variables, {(1, 0): 3, (0, 1): 3}),
                  LaurentPoly(GF2, ("x", "z"), {(1, 0): 1, (0, 1): 1})):
        with pytest.raises(VariableMismatch):
            ideal_contains_one([gf2, other])


def test_multivariate_membership_direct_on_the_twist_torus():
    # the full group-ring check agrees with the collapsed univariate witness
    vs = theta_potential().toric_differential()
    result = ideal_contains_one(list(vs))
    assert result.method == "groebner"
    assert not result.contains_one


def test_multivariate_unit_ideal_with_certificate():
    v = ("x", "y")
    gens = [
        LaurentPoly(GF2, v, {(1, 0): 1, (0, 0): 1}),  # x + 1
        LaurentPoly(GF2, v, {(1, 0): 1}),  # x
    ]
    result = ideal_contains_one(gens)
    assert result.contains_one
    total = LaurentPoly.zero(GF2, v)
    for c, g in zip(result.cofactors, gens):
        total = total + c * g
    assert total == LaurentPoly.one(GF2, v)


def test_gcd_and_groebner_agree_on_univariate_inputs():
    rng = random.Random(2025)

    def random_univ(ring):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            c = 1 if ring is GF2 else Fraction(rng.randint(-3, 3))
            terms[rng.randint(-3, 3)] = c
        return univ(ring, terms, var="t")

    checked = 0
    for _ in range(100):
        ring = GF2 if rng.random() < 0.5 else RATIONAL
        gens = [random_univ(ring) for _ in range(rng.randint(1, 3))]
        direct = ideal_contains_one(gens)
        # same ideal inside a two-variable ring (extra unused variable)
        wide_vars = ("t", "u")
        widened = [
            LaurentPoly(ring, wide_vars, {(e[0], 0): c for e, c in g.terms.items()})
            for g in gens
        ]
        via_gb = ideal_contains_one(widened)
        assert via_gb.method == "groebner"
        assert direct.contains_one == via_gb.contains_one
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# regularity


def load_critical_fixture():
    with open(DATA / "theta_critical_points.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_twist_torus_regularity_certificate():
    result = regularity_via_hom(theta_potential(), theta_regularity_hom())
    assert result.regular
    fixture = load_critical_fixture()
    assert result.quotient_dimension == sum(fixture["multiplicities"])


def test_fixture_points_satisfy_the_critical_system_exactly():
    fixture = load_critical_fixture()
    pot = theta_potential()
    u_img = theta_regularity_hom().apply(pot.poly_over(RATIONAL))
    for raw in fixture["points"]:
        point = {"z1": Fraction(raw[0]), "z2": Fraction(raw[1])}
        assert all(Fraction(x) != 0 for x in point.values())
        for name in u_img.variables:
            assert u_img.log_derivative(name).evaluate(point) == 0


def test_regular_when_no_torus_critical_points():
    u = LaurentPoly(RATIONAL, ("z1", "z2"), {(1, 0): 1, (0, 1): 1})
    result = regular_sequence_check(u)
    assert result.regular
    assert result.quotient_dimension == 0


def test_not_regular_when_a_derivative_vanishes():
    u = LaurentPoly(RATIONAL, ("z1", "z2"), {(1, 0): 1})
    result = regular_sequence_check(u)
    assert not result.regular
    assert result.zero_directions == ("z2",)


def test_not_regular_when_critical_locus_is_positive_dimensional():
    # f = z1*z2 + (z1*z2)^-1: both toric derivatives equal z1*z2 - (z1*z2)^-1,
    # so the critical locus is the pair of curves z1*z2 = +-1
    u = LaurentPoly(RATIONAL, ("z1", "z2"), {(1, 1): 1, (-1, -1): 1})
    result = regular_sequence_check(u)
    assert not result.regular
    assert result.quotient_dimension is None
    assert result.zero_directions == ()


def test_regularity_requires_rationals():
    with pytest.raises(UnsupportedRing):
        regular_sequence_check(LaurentPoly(GF2, ("z",), {(1,): 1}))


def test_regularity_hom_validation():
    pot = theta_potential()
    bad_target = RingHom.from_monomials(
        GF2, ("z1", "z2"), {"R": (1, 0), "T": (0, 1), "S1": (0, 0), "S2": (0, 0)}
    )
    with pytest.raises(NonGenericHom):
        validate_regularity_hom(pot, bad_target)
    collide = RingHom.from_monomials(
        RATIONAL, ("z1",), {"R": (1,), "T": (1,), "S1": (0,), "S2": (0,)}
    )
    with pytest.raises(NonGenericHom):
        validate_regularity_hom(pot, collide)
    squared = RingHom.from_monomials(
        RATIONAL, ("z1", "z2"), {"R": (2, 0), "T": (0, 1), "S1": (0, 0), "S2": (0, 0)}
    )
    with pytest.raises(NonGenericHom):
        validate_regularity_hom(pot, squared)
    surface_to_var = RingHom.from_monomials(
        RATIONAL, ("z1", "z2"), {"R": (1, 0), "T": (0, 1), "S1": (1, 0), "S2": (0, 0)}
    )
    with pytest.raises(NonGenericHom):
        validate_regularity_hom(pot, surface_to_var)
    no_image = RingHom.from_monomials(
        RATIONAL, ("z1", "z2"), {"R": (1, 0), "T": (0, 1), "S1": (0, 0)}
    )
    with pytest.raises(NonGenericHom, match="no image for generator S2"):
        validate_regularity_hom(pot, no_image)
    unused = RingHom.from_monomials(
        RATIONAL,
        ("z1", "z2", "z3"),
        {"R": (1, 0, 0), "T": (0, 1, 0), "S1": (0, 0, 0), "S2": (0, 0, 0)},
    )
    with pytest.raises(NonGenericHom, match=r"target variables \['z3'\] receive no carrying"):
        validate_regularity_hom(pot, unused)


def test_standard_monomials_of_the_critical_ideal():
    # localized critical ideal of the collapsed potential: quotient basis {1, z1}
    vars3 = ("z1", "z2", "w")
    gens = [
        LaurentPoly(RATIONAL, vars3, {(2, 1, 0): 1, (0, 2, 0): -1, (0, 1, 0): -2, (0, 0, 0): -1}),
        LaurentPoly(RATIONAL, vars3, {(0, 2, 0): 1, (0, 0, 0): -1}),
        LaurentPoly(RATIONAL, vars3, {(1, 1, 1): 1, (0, 0, 0): -1}),
    ]
    basis = groebner_basis(gens)
    monos = standard_monomials(basis)
    assert len(monos) == 2
    assert (0, 0, 0) in monos


# ---------------------------------------------------------------------------
# certification pipeline


def test_twist_torus_is_certified():
    report = theta_bundle().certify()
    assert report.token == "certified"
    assert report.verdict == "non-displaceability certified"
    assert report.h0.passed and not report.h0.contains_one
    assert report.h0.ideal_generators == ("R^2 + R + 1",)
    assert report.regularity.passed
    assert report.regularity.quotient_dimension == 2


def test_maslov_collapse_fails_the_h0_check():
    report = certify_nondisplaceable(
        theta_potential(),
        h0_hom=theta_maslov_collapse_hom(),
        regularity_hom=theta_regularity_hom(),
    )
    assert report.h0.contains_one  # 1 lands in the image ideal
    assert report.token == "inconclusive"
    bundle = product_bundle(2, 0)  # the same collapse on each factor
    report = certify_nondisplaceable(bundle.potential, h0_hom=bundle.collapse_hom)
    assert report.h0.contains_one and report.token == "inconclusive"
    with pytest.raises(InconclusiveCertificate):
        certify_nondisplaceable(
            theta_potential(), h0_hom=theta_maslov_collapse_hom(), strict=True
        )


def test_unit_potential_is_definitively_not_certified():
    basis = HomologyBasis(names=("A",), boundary_matrix=((1,),), n_torus_rank=1)
    pot = Potential(GF2, basis, [(DiscClass((1,), (1,)), 1)])
    report = certify_nondisplaceable(pot)
    assert report.token == "not-certified"
    assert report.h0.hom_is_identity
    assert report.h0.contains_one


def test_h0_alone_gives_a_partial_verdict():
    report = certify_nondisplaceable(theta_potential(), h0_hom=theta_h0_hom())
    assert report.token == "partial"
    assert report.h0.passed
    assert report.regularity is None


def test_product_torus_in_three_spheres_is_certified():
    # the 3-torus of equators in a triple product of spheres: each factor
    # contributes two discs (the two hemisphere classes R_k and S_k R_k^-1),
    # so U = sum_k R_k + S_k R_k^-1 and v_k = R_k + S_k R_k^-1 over GF2.
    # The identity-hom membership test and the rational regularity
    # certificate (critical points z_k = +-1, eight in all) both pass.
    names = ("D1", "D2", "D3", "S1", "S2", "S3")
    boundary = (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
    )
    basis = HomologyBasis(
        names=names,
        boundary_matrix=boundary,
        n_torus_rank=3,
        ring_names=("R1", "R2", "R3", "S1", "S2", "S3"),
    )

    def cls(coeffs):
        return DiscClass(coeffs, basis.boundary_of(coeffs))

    provenance = []
    for k in range(3):
        straight = [0] * 6
        straight[k] = 1
        opposite = [0] * 6
        opposite[k] = -1
        opposite[3 + k] = 1
        provenance.append((cls(tuple(straight)), 1))
        provenance.append((cls(tuple(opposite)), 1))
    pot = Potential(GF2, basis, provenance)

    hom = RingHom.from_monomials(
        RATIONAL,
        ("z1", "z2", "z3"),
        {
            "R1": (1, 0, 0),
            "R2": (0, 1, 0),
            "R3": (0, 0, 1),
            "S1": (0, 0, 0),
            "S2": (0, 0, 0),
            "S3": (0, 0, 0),
        },
    )
    report = certify_nondisplaceable(pot, regularity_hom=hom)
    assert report.token == "certified"
    assert report.h0.hom_is_identity
    assert report.regularity.quotient_dimension == 8  # z_k = +-1


def test_theta_squared_times_circle_is_certified_by_the_identity_hom():
    # theta^2 x C in (S2 x S2)^2 x S2: seven generators, ten disc classes;
    # the identity-hom membership test splits into one block per factor
    dims = []
    for a, b in ((1, 0), (0, 1), (2, 1)):
        report = product_bundle(a, b).certify()
        assert report.token == "certified"
        assert report.h0.hom_is_identity
        dims.append(report.regularity.quotient_dimension)
    theta_dim, circle_dim, product_dim = dims
    assert product_dim == theta_dim**2 * circle_dim


@pytest.mark.parametrize("k", range(1, 7))
def test_theta_powers_certify_with_quotient_dimension_two_to_the_k(k):
    # one block of four variables per factor; localizing theta^4 as one
    # ideal took 107 s, with 252 elements in its reduced basis
    start = time.perf_counter()
    report = product_bundle(k, 0).certify()
    elapsed = time.perf_counter() - start
    assert report.token == "certified"
    assert report.regularity.quotient_dimension == 2**k
    assert len(report.h0.ideal_generators) == 6 * k
    assert elapsed < 1.0


def test_hom_search_finds_a_proper_collapse():
    pot = theta_potential()
    hom = search_h0_hom(pot)
    assert hom is not None
    images = [hom.apply(v) for v in pot.toric_differential()]
    assert not ideal_contains_one(images).contains_one


def test_hom_search_needs_a_field_and_may_find_nothing():
    theta = theta_potential()
    with pytest.raises(UnsupportedRing, match="needs field coefficients"):
        search_h0_hom(Potential(INT, theta.basis, theta.provenance))
    # U = R: every collapse sends v[R] = R to a unit monomial, so every image
    # ideal is the whole ring
    circle = circle_constraint_table().basis
    lone = Potential(GF2, circle, [(DiscClass((1, 0), (1,)), 1)])
    assert search_h0_hom(lone) is None


def test_hom_search_over_budget_raises_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(certificates, "ideal_contains_one", no_search)
    with pytest.raises(CapExceeded, match="budget of 10000"):
        search_h0_hom(theta_potential(), exponent_bound=12)  # 25^4 candidates


def test_report_serialization_is_self_consistent():
    report = theta_bundle().certify()
    data = report.to_json_dict()
    assert data["token"] == "certified"
    assert data["h0"]["passed"] is True
    assert data["regularity"]["quotient_dimension"] == 2
    text = report.to_text()
    assert text[-1] == "verdict: non-displaceability certified"


# ---------------------------------------------------------------------------
# block-split localization against the unsplit reference


def localize_whole(polys):
    """The stripped generators lifted next to the auxiliary variable w, with
    the relation w * prod(all variables) - 1; returns the lifted generators
    and the name of w."""
    ring, variables = polys[0].ring, polys[0].variables
    aux = certificates._fresh_name("w", variables)
    ext = variables + (aux,)
    lift = RingHom(ring, ext, {v: LaurentPoly.var(ring, ext, v) for v in variables})
    relation = LaurentPoly(
        ring, ext, {(1,) * len(ext): ring.one, (0,) * len(ext): ring.neg(ring.one)}
    )
    return [lift.apply(p) for p in polys] + [relation], aux


def unsplit_contains_one(gens):
    """Reference for multivariate `ideal_contains_one`: the whole ideal is
    localized through one auxiliary variable."""
    ring, variables = gens[0].ring, gens[0].variables
    nonzero = [i for i, g in enumerate(gens) if not g.is_zero]
    stripped, shifts = zip(*(certificates._strip_units(gens[i]) for i in nonzero))
    lifted, aux = localize_whole(stripped)
    basis, cofs = groebner_basis(lifted, with_cofactors=True)
    if not contains_constant(basis):
        return IdealMembershipResult(False, "groebner", tuple(basis))
    drop_aux = RingHom(
        ring,
        variables,
        {
            **{v: LaurentPoly.var(ring, variables, v) for v in variables},
            aux: LaurentPoly.monomial(ring, variables, (-1,) * len(variables)),
        },
    )
    back = [drop_aux.apply(c) for c in cofs[0][:-1]]
    one = LaurentPoly.one(ring, variables)
    cofactors = certificates._assemble_cofactors(gens, nonzero, shifts, back, one)
    return IdealMembershipResult(True, "groebner", tuple(basis), cofactors)


def unsplit_regularity(u_img):
    """Reference for `regular_sequence_check`: one localization of the whole
    critical ideal."""
    vs = [u_img.log_derivative(v) for v in u_img.variables]
    zero_dirs = tuple(v for v, p in zip(u_img.variables, vs) if p.is_zero)
    if zero_dirs:
        return RegularityResult(False, None, zero_dirs)
    lifted, _ = localize_whole([certificates._strip_units(p)[0] for p in vs])
    monomials = standard_monomials(groebner_basis(lifted))
    if monomials is None:
        return RegularityResult(False, None, ())
    return RegularityResult(True, len(monomials), ())


def block_count(gens):
    """Components of the variable-sharing graph of the stripped nonzero
    generators, counted without `_localized_blocks`."""
    blocks = []  # variable sets; a constant generator is a block of its own
    for g in gens:
        if g.is_zero:
            continue
        support = certificates._strip_units(g)[0].terms
        used = {k for exps in support for k, e in enumerate(exps) if e}
        touching = [b for b in blocks if b & used]
        blocks = [b for b in blocks if not b & used] + [used.union(*touching)]
    return len(blocks)


def assert_cofactors_combine_to_one(result, gens):
    ring, variables = gens[0].ring, gens[0].variables
    total = LaurentPoly.zero(ring, variables)
    for c, g in zip(result.cofactors, gens):
        total = total + c * g
    assert total == LaurentPoly.one(ring, variables)


def test_products_match_the_unsplit_localization(monkeypatch):
    for a in range(4):
        for b in range(4 - a):
            if a + b == 0:
                continue
            bundle = product_bundle(a, b)
            split = bundle.certify()
            with monkeypatch.context() as m:
                m.setattr(certificates, "ideal_contains_one", unsplit_contains_one)
                m.setattr(certificates, "regular_sequence_check", unsplit_regularity)
                whole = bundle.certify()
            assert split.verdict == whole.verdict == "non-displaceability certified"
            assert split.h0.contains_one is whole.h0.contains_one is False
            assert split.regularity == whole.regularity
            assert split.regularity.quotient_dimension == 2 ** (a + b)
            if a + b == 1:
                assert split == whole  # one block: every byte, generators included
            else:  # the blocks' bases, with auxiliary variables w1, w2, ...
                assert split.h0.ideal_generators != whole.h0.ideal_generators


def random_block_poly(rng, ring, nvars, used, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-2, 2) if k in used else 0 for k in range(nvars))
        terms[exps] = 1 if ring is GF2 else Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return terms


def random_split(rng, nvars):
    """Disjoint variable blocks covering all but at most one variable."""
    order = list(range(nvars))
    rng.shuffle(order)
    if rng.random() < 0.2:
        order.pop()  # a variable no generator uses
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, min(2, len(order) - 1))))
    return [set(order[i:j]) for i, j in zip([0] + cuts, cuts + [len(order)])]


def test_disjoint_sums_of_random_ideals_match_the_unsplit_localization():
    rng = random.Random(7007)
    variables = ("x", "y", "z", "u")
    seen = {"split": 0, "single": 0, "unit": 0, "proper": 0}
    for _ in range(120):
        ring = GF2 if rng.random() < 0.5 else RATIONAL
        gens = [
            LaurentPoly(ring, variables, random_block_poly(rng, ring, 4, block))
            for block in random_split(rng, 4)
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(gens)
        split = ideal_contains_one(gens)
        whole = unsplit_contains_one(gens)
        assert split.contains_one == whole.contains_one
        if split.contains_one:
            assert_cofactors_combine_to_one(split, gens)
        if block_count(gens) == 1:
            assert split == whole
            seen["single"] += 1
        else:
            seen["split"] += 1
        seen["unit" if split.contains_one else "proper"] += 1
    assert min(seen.values()) > 15, seen


def test_trusted_block_generators_and_stripped_polys_revalidate(monkeypatch):
    """`_strip_units` and `_localized_blocks` build their polynomials
    without validation; each must equal, term order and coefficient types
    included, what the validating constructor makes of the same terms."""
    inputs = []

    def recording(polys, **kwargs):
        inputs.extend(polys)
        return groebner_basis(polys, **kwargs)

    def items(p):
        return [(exps, c, type(c)) for exps, c in p.terms.items()]

    monkeypatch.setattr(certificates, "groebner_basis", recording)
    rng = random.Random(7009)
    variables = ("x", "y", "z", "u")
    for _ in range(60):
        ring = GF2 if rng.random() < 0.5 else RATIONAL
        gens = [
            LaurentPoly(ring, variables, random_block_poly(rng, ring, 4, block))
            for block in random_split(rng, 4)
            for _ in range(rng.randint(1, 2))
        ]
        for g in gens:
            stripped, shift = certificates._strip_units(g)
            assert items(stripped) == items(g.times_monomial(tuple(-s for s in shift)))
        ideal_contains_one(gens)
    assert len(inputs) > 200
    for p in inputs:
        assert items(p) == items(LaurentPoly(p.ring, p.variables, p.terms))


def test_disjoint_sums_of_random_potentials_match_the_unsplit_regularity():
    rng = random.Random(7008)
    variables = ("x", "y", "z")
    seen = {"split": 0, "finite": 0, "infinite": 0}
    for _ in range(100):
        terms = {}
        for block in random_split(rng, 3):
            part = random_block_poly(rng, RATIONAL, 3, block, max_terms=4)
            if rng.random() < 0.5:
                # f(m) for a monomial m: the block's critical locus is a
                # union of level sets of m, positive-dimensional when the
                # block has two variables
                m = [rng.choice((-1, 1)) if k in block else 0 for k in range(3)]
                part = {tuple(e * mk for mk in m): Fraction(rng.choice((-2, -1, 1, 2)))
                        for e in rng.sample(range(-2, 3), 3)}
            terms.update(part)
        u = LaurentPoly(RATIONAL, variables, terms)
        result = regular_sequence_check(u)
        assert result == unsplit_regularity(u)
        vs = [u.log_derivative(v) for v in variables]
        if not result.zero_directions and block_count(vs) > 1:
            seen["split"] += 1
            seen["finite" if result.regular else "infinite"] += 1
    assert min(seen.values()) > 5, seen


def test_monomial_generator_is_a_constant_block():
    v = ("x", "y", "z")
    gens = [
        LaurentPoly(GF2, v, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1}),  # x + y + 1
        LaurentPoly(GF2, v, {(0, 0, 2): 1}),  # z^2, a unit
    ]
    result = ideal_contains_one(gens)
    assert result.contains_one and unsplit_contains_one(gens).contains_one
    assert result.generators[-1] == LaurentPoly.one(GF2, ("w2",))
    assert {g.variables for g in result.generators} == {("x", "y", "w1"), ("w2",)}
    assert result.cofactors == (
        LaurentPoly.zero(GF2, v),
        LaurentPoly(GF2, v, {(0, 0, -2): 1}),
    )


def test_auxiliary_names_are_fresh_per_block():
    v = ("w1", "x")
    gens = [
        LaurentPoly(GF2, v, {(2, 0): 1, (1, 0): 1, (0, 0): 1}),  # w1^2 + w1 + 1
        LaurentPoly(GF2, v, {(0, 2): 1, (0, 1): 1, (0, 0): 1}),  # x^2 + x + 1
    ]
    result = ideal_contains_one(gens)
    assert not result.contains_one
    assert {g.variables for g in result.generators} == {("w1", "w10"), ("x", "w2")}


def test_unused_variable_leaves_the_quotient_infinite():
    # u = z (x + x^-1 + 2) + y + y^-1: the blocks {x} and {y} are finite
    # (x = -1, y = +-1), but z is in no stripped derivative and stays free
    u = LaurentPoly(
        RATIONAL,
        ("x", "y", "z"),
        {(1, 0, 1): 1, (-1, 0, 1): 1, (0, 0, 1): 2, (0, 1, 0): 1, (0, -1, 0): 1},
    )
    assert block_count([u.log_derivative(v) for v in u.variables]) == 2
    assert regular_sequence_check(u) == unsplit_regularity(u) == RegularityResult(False, None, ())


def test_unit_block_beside_an_infinite_block_gives_dimension_zero():
    # x*y + (x*y)^-1 has a curve of critical points, and v_z = z is a unit
    u = LaurentPoly(RATIONAL, ("x", "y", "z"), {(1, 1, 0): 1, (-1, -1, 0): 1, (0, 0, 1): 1})
    assert block_count([u.log_derivative(v) for v in u.variables]) == 2
    assert regular_sequence_check(u) == unsplit_regularity(u) == RegularityResult(True, 0, ())


def test_theta_cube_runs_the_core_once_per_distinct_block(monkeypatch, core_runs):
    # the three theta factors give the same block up to variable names, in
    # the H0 check (over GF2) and in the regularity check (over Q)
    calls = []

    def counting(polys, **kwargs):
        calls.append(polys)
        return groebner_basis(polys, **kwargs)

    monkeypatch.setattr(certificates, "groebner_basis", counting)
    report = product_bundle(3, 0).certify()
    assert report.token == "certified"
    assert len(calls) == 6
    assert len(core_runs) == 2
    product_bundle(3, 0).certify()
    assert len(calls) == 12 and len(core_runs) == 2


def test_h0_blocks_track_cofactors_only_for_the_unit_block(monkeypatch):
    flags = []

    def recording(polys, with_cofactors=False):
        flags.append((len(polys), with_cofactors))
        return groebner_basis(polys, with_cofactors=with_cofactors)

    monkeypatch.setattr(certificates, "groebner_basis", recording)
    v = ("x", "y", "z", "u")
    proper = [
        LaurentPoly(GF2, v, {(2, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 0, 0, 0): 1}),
        LaurentPoly(GF2, v, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): 1}),
    ]
    assert not ideal_contains_one(proper).contains_one
    assert flags == [(2, False), (2, False)]
    flags.clear()
    # blocks {x, y}, proper, and {z, u}, where z + 1 and z + u + 1 force the
    # unit u to vanish
    unit = [
        LaurentPoly(GF2, v, {(1, 1, 0, 0): 1, (0, 0, 0, 0): 1}),
        LaurentPoly(GF2, v, {(0, 0, 1, 0): 1, (0, 0, 0, 0): 1}),
        LaurentPoly(GF2, v, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): 1}),
    ]
    result = ideal_contains_one(unit)
    assert result.contains_one
    assert flags == [(2, False), (3, False), (3, True)]
    assert_cofactors_combine_to_one(result, unit)
    assert result.cofactors[0].is_zero
