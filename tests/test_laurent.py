import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistkit.errors import NonUnitImage, UnsupportedRing, VariableMismatch
from twistkit.laurent import (
    GF2,
    INT,
    RATIONAL,
    CoefficientRing,
    LaurentPoly,
    RingHom,
    hom_from_json,
    hom_to_json,
    poly_from_json,
    poly_to_json,
)

VARS = ("R", "T", "S1", "S2")


def gf2(terms):
    return LaurentPoly(GF2, VARS, terms)


def rational(variables, terms):
    return LaurentPoly(RATIONAL, variables, terms)


# independent reference multiplication: expand to a term list, then collect
def mul_reference(a, b):
    pairs = []
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            pairs.append((tuple(x + y for x, y in zip(e1, e2)), a.ring.mul(c1, c2)))
    collected = {}
    for exps, coeff in pairs:
        collected[exps] = a.ring.add(collected.get(exps, a.ring.zero), coeff)
    return LaurentPoly(a.ring, a.variables, collected)


@st.composite
def gf2_polys(draw, variables=VARS, max_terms=5, span=3):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=-span, max_value=span)) for _ in variables
        )
        terms[exps] = 1
    return LaurentPoly(GF2, variables, terms)


def test_difference_of_squares_over_rationals():
    v = ("R",)
    a = rational(v, {(1,): 1, (-1,): 1})
    b = rational(v, {(1,): 1, (-1,): -1})
    assert a * b == rational(v, {(2,): 1, (-2,): -1})


def test_zero_coefficients_are_dropped():
    p = gf2({(1, 0, 0, 0): 2, (0, 0, 0, 0): 1})
    assert p.terms == {(0, 0, 0, 0): 1}
    # 2 is zero only once coerced into GF2; the terms around it keep their order
    p = gf2({(0, 0, 0, 1): 1, (1, 0, 0, 0): 2, (0, 0, 1, 0): 3})
    assert list(p.terms.items()) == [((0, 0, 0, 1), 1), ((0, 0, 1, 0), 1)]
    q = rational(("x",), {(3,): Fraction(0)})
    assert q.is_zero


def test_addition_cancels_over_gf2():
    p = gf2({(1, 0, 0, 0): 1})
    assert (p + p).is_zero


@given(gf2_polys(), gf2_polys(), gf2_polys())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gf2_polys(), gf2_polys())
def test_multiplication_matches_reference(a, b):
    assert a * b == mul_reference(a, b)


@given(gf2_polys(), gf2_polys())
def test_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


@given(gf2_polys(max_terms=3), gf2_polys(max_terms=3), gf2_polys(max_terms=3))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)


def test_pow_and_negative_pow():
    v = ("x",)
    x = LaurentPoly.var(RATIONAL, v, "x")
    p = x + LaurentPoly.one(RATIONAL, v)
    assert p**3 == p * p * p
    assert p**0 == LaurentPoly.one(RATIONAL, v)
    m = LaurentPoly.monomial(RATIONAL, v, (2,), Fraction(3))
    assert m**-1 == LaurentPoly.monomial(RATIONAL, v, (-2,), Fraction(1, 3))
    with pytest.raises(UnsupportedRing):
        p**-1
    for ring, non_unit in ((INT, 2), (GF2, 0), (RATIONAL, Fraction(0))):
        with pytest.raises(UnsupportedRing, match="is not a unit"):
            ring.inv(non_unit)


def test_variable_mismatch():
    a = rational(("x",), {(1,): 1})
    b = rational(("y",), {(1,): 1})
    with pytest.raises(VariableMismatch):
        a + b
    with pytest.raises(VariableMismatch):
        a * LaurentPoly(GF2, ("x",), {(1,): 1})


def test_partial_derivative():
    v = ("x", "y")
    p = rational(v, {(3, 1): 2, (0, 2): 1, (-1, 0): 1})
    assert p.partial_derivative("x") == rational(v, {(2, 1): 6, (-2, 0): -1})
    assert p.partial_derivative("y") == rational(v, {(3, 0): 2, (0, 1): 2})
    with pytest.raises(UnsupportedRing):
        LaurentPoly(GF2, v, {(1, 0): 1}).partial_derivative("x")


def test_log_derivative_is_characteristic_safe():
    v = ("x",)
    p = LaurentPoly(GF2, v, {(2,): 1, (3,): 1})
    assert p.log_derivative("x") == LaurentPoly(GF2, v, {(3,): 1})
    q = rational(v, {(2,): 1, (-3,): 1})
    assert q.log_derivative("x") == rational(v, {(2,): 2, (-3,): -3})


@given(gf2_polys(variables=("x", "y")))
def test_log_derivative_depends_on_exponent_parity_over_gf2(p):
    d = p.log_derivative("x")
    expected = LaurentPoly(
        GF2, p.variables, {e: c for e, c in p.terms.items() if e[0] % 2 == 1}
    )
    assert d == expected


def test_hom_application_from_the_collapse():
    # R, T, S2 -> R and S1 -> 1 sends R^-1 T^-1 S1 to R^-2
    phi = RingHom.from_monomials(GF2, ("R",), {"R": (1,), "T": (1,), "S1": (0,), "S2": (1,)})
    m = gf2({(-1, -1, 1, 0): 1})
    assert phi.apply(m) == LaurentPoly(GF2, ("R",), {(-2,): 1})


def test_hom_rejects_non_unit_images():
    v = ("t",)
    with pytest.raises(NonUnitImage):
        RingHom(GF2, v, {"R": LaurentPoly(GF2, v, {(1,): 1, (0,): 1})})
    with pytest.raises(NonUnitImage):
        RingHom(INT, v, {"R": LaurentPoly(INT, v, {(1,): 2})})
    with pytest.raises(NonUnitImage, match="must be a LaurentPoly"):
        RingHom(GF2, v, {"R": 1})
    for image in (LaurentPoly(RATIONAL, v, {(1,): 1}), LaurentPoly(GF2, ("s",), {(1,): 1})):
        with pytest.raises(VariableMismatch, match="wrong target ring"):
            RingHom(GF2, v, {"R": image})


def test_hom_rejects_duplicate_target_variables():
    # ("t", "t") would map R + T to t + t
    with pytest.raises(ValueError, match="target variables must be distinct"):
        RingHom.from_monomials(GF2, ("t", "t"), {"R": (1, 0), "T": (0, 1)})
    data = {"ring": "GF2", "variables": ["t", "t"],
            "images": {"R": [[1, 0], "1"], "T": [[0, 1], "1"]}}
    with pytest.raises(ValueError, match="target variables must be distinct"):
        hom_from_json(data)


def test_hom_needs_every_generator():
    phi = RingHom.from_monomials(GF2, ("t",), {"R": (1,)})
    with pytest.raises(VariableMismatch):
        phi.apply(gf2({(1, 0, 0, 0): 1}))


def test_hom_is_multiplicative_and_additive():
    rng = random.Random(13)
    phi = RingHom.from_monomials(
        GF2, ("t",), {"R": (1,), "T": (-1,), "S1": (2,), "S2": (0,)}
    )
    for _ in range(50):
        a = gf2(
            {
                tuple(rng.randint(-2, 2) for _ in VARS): 1
                for _ in range(rng.randint(0, 4))
            }
        )
        b = gf2(
            {
                tuple(rng.randint(-2, 2) for _ in VARS): 1
                for _ in range(rng.randint(0, 4))
            }
        )
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
        assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)


def test_rational_hom_with_constants():
    phi = RingHom.from_monomials(
        RATIONAL,
        ("z1", "z2"),
        {"R": (1, 0), "T": (0, 1), "S1": (0, 0), "S2": (0, 0)},
        coeffs={"S1": Fraction(1), "S2": Fraction(1)},
    )
    p = LaurentPoly(RATIONAL, VARS, {(-1, 0, 1, 0): 1, (-1, 0, 0, 1): 1})
    assert phi.apply(p) == LaurentPoly(RATIONAL, ("z1", "z2"), {(-1, 0): 2})


def test_evaluation():
    v = ("x", "y")
    p = rational(v, {(2, -1): Fraction(3), (0, 0): Fraction(1, 2)})
    value = p.evaluate({"x": Fraction(2), "y": Fraction(1, 3)})
    assert value == Fraction(3) * 4 * 3 + Fraction(1, 2)
    with pytest.raises(UnsupportedRing, match="Int/Rational only"):
        LaurentPoly(GF2, v, {(1, 0): 1}).evaluate({"x": 1, "y": 1})


def test_equal_polynomials_hash_equal():
    """The hash is recomputed on each call from the ring, the variables and
    the terms, so equal values built in different ways hash alike."""
    v = ("x", "y")
    for ring, c in ((GF2, 1), (INT, -3), (RATIONAL, Fraction(3, 2))):
        x, y = (LaurentPoly.var(ring, v, name) for name in v)
        built = LaurentPoly(ring, v, {(1, 0): c, (0, 1): 1})
        same = [
            LaurentPoly(ring, v, {(0, 1): 1, (1, 0): c}),  # other term order
            x.scale(c) + y,  # through the arithmetic's unvalidated build
            y + x * LaurentPoly.constant(ring, v, c),
        ]
        for other in same:
            assert other == built and hash(other) == hash(built)
        assert len({built, *same}) == 1
        assert hash(built) == hash((ring.tag, v, frozenset(built.terms.items())))
        assert len({built, built + LaurentPoly.one(ring, v)}) == 2
    assert LaurentPoly.__slots__ == ("ring", "variables", "terms")


def test_string_rendering():
    p = rational(("R",), {(2,): 1, (0,): -1, (-1,): Fraction(3, 2)})
    assert str(p) == "R^2 - 1 + 3/2*R^-1"
    assert str(LaurentPoly.zero(GF2, ("R",))) == "0"


def test_json_roundtrip():
    p = rational(("x", "y"), {(2, -1): Fraction(3, 7), (0, 0): -2})
    assert poly_from_json(poly_to_json(p)) == p
    phi = RingHom.from_monomials(
        RATIONAL, ("z",), {"x": (2,), "y": (0,)}, coeffs={"y": Fraction(5)}
    )
    back = hom_from_json(hom_to_json(phi))
    assert back.images == phi.images
    assert back.variables == phi.variables


def test_poly_from_json_sums_repeated_exponents():
    data = {"ring": "Rational", "variables": ["x"], "terms": [[[1], "1"], [[1], "1"]]}
    assert poly_from_json(data) == rational(("x",), {(1,): 2})
    # a sum that cancels leaves no term
    data["terms"] = [[[1], "1"], [[0], "3"], [[1], "-1"]]
    assert poly_from_json(data).terms == {(0,): 3}
    data = {"ring": "GF2", "variables": ["x"], "terms": [[[1], "1"], [[1], "1"]]}
    assert poly_from_json(data).is_zero


def test_ring_registry():
    assert CoefficientRing.from_tag("GF2") is GF2
    assert CoefficientRing.from_tag("Rational") is RATIONAL
    with pytest.raises(UnsupportedRing):
        CoefficientRing.from_tag("Z7")


# ---------------------------------------------------------------------------
# the public constructor validates


def test_non_integral_exponents_are_rejected():
    for exps in ((1.5,), (Fraction(3, 2),), ("1",)):
        with pytest.raises(ValueError):
            LaurentPoly(GF2, ("x",), {exps: 1})
    p = LaurentPoly(INT, ("x", "y"), {(2.0, Fraction(-1)): 3})
    assert p.terms == {(2, -1): 3}
    assert all(type(e) is int for e in next(iter(p.terms)))
    # a term is checked exponent first, then coefficient, one term at a time
    with pytest.raises(ValueError):
        LaurentPoly(INT, ("x",), {(1.5,): 0.5})
    with pytest.raises(VariableMismatch):
        LaurentPoly(INT, ("x",), {(1, 2): 0.5})
    with pytest.raises(UnsupportedRing):
        LaurentPoly(INT, ("x",), {(1,): 0.5, (1.5,): 1})


def test_non_integral_coefficients_are_rejected_over_int_and_gf2():
    for ring in (INT, GF2):
        for coeff in (1.5, 0.5, Fraction(3, 2)):
            with pytest.raises(UnsupportedRing):
                LaurentPoly(ring, ("x",), {(1,): coeff})
    assert LaurentPoly(INT, ("x",), {(1,): 4.0}).terms == {(1,): 4}
    assert LaurentPoly(GF2, ("x",), {(1,): Fraction(3)}).terms == {(1,): 1}
    assert LaurentPoly(RATIONAL, ("x",), {(1,): 0.5}).terms == {(1,): Fraction(1, 2)}


def test_ring_constants_are_shared():
    assert RATIONAL.zero is RATIONAL.zero and RATIONAL.one is RATIONAL.one
    assert (RATIONAL.zero, RATIONAL.one) == (Fraction(0), Fraction(1))
    assert type(RATIONAL.one) is Fraction
    assert (GF2.zero, GF2.one, INT.zero, INT.one) == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# polynomials the layer builds for itself (LaurentPoly._new)

COEFF_TYPE = {"GF2": int, "Int": int, "Rational": Fraction}


def assert_revalidates(p):
    """A trusted result is exactly what the public constructor makes of it:
    int exponent tuples of the right length, nonzero coefficients of the
    ring's type, and the same terms in the same order."""
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int for e in exps)
        assert type(coeff) is COEFF_TYPE[p.ring.tag] and coeff != 0
    again = LaurentPoly(p.ring, p.variables, p.terms)
    assert again.terms == p.terms and list(again.terms) == list(p.terms)


def term_by_term_apply(hom, poly):
    """`RingHom.apply` as it was: one image monomial per source term, added
    to the running result through the public `+`."""
    missing = [v for v in poly.variables if v not in hom.images]
    if missing:
        raise VariableMismatch(f"no image given for generators {missing}")
    ring = hom.ring
    result = LaurentPoly.zero(ring, hom.variables)
    for exps, coeff in poly.terms.items():
        out_exps = [0] * len(hom.variables)
        out_coeff = ring.coerce(hom._transport(poly.ring, coeff))
        for name, e in zip(poly.variables, exps):
            img_exps, img_coeff = hom.images[name].single_term()
            for i, ie in enumerate(img_exps):
                out_exps[i] += ie * e
            factor = img_coeff if e >= 0 else ring.inv(img_coeff)
            out_coeff = ring.mul(out_coeff, ring.coerce(factor ** abs(e)))
        result = result + LaurentPoly.monomial(ring, hom.variables, out_exps, out_coeff)
    return result


SOURCE = ("x", "y", "z")
TARGET = ("s", "t")
UNITS = {"GF2": (1,), "Int": (1, -1), "Rational": (1, -1, 2, Fraction(-1, 3))}
COEFFS = {"GF2": (1,), "Int": (1, -1, 2, -3), "Rational": (1, -1, Fraction(1, 2), 3)}
# (source ring, target ring): Int polynomials transport into Rational homs
RING_PAIRS = ((GF2, GF2), (INT, INT), (RATIONAL, RATIONAL), (INT, RATIONAL))


@st.composite
def hom_cases(draw):
    """A monomial hom from 3 generators to 2 and a source polynomial; small
    exponents make image monomials collide, cancel and come back."""
    source_ring, ring = draw(st.sampled_from(RING_PAIRS))
    small = st.integers(min_value=-2, max_value=2)
    exponents = {name: (draw(small), draw(small)) for name in SOURCE}
    coeffs = {name: draw(st.sampled_from(UNITS[ring.tag])) for name in SOURCE}
    hom = RingHom.from_monomials(ring, TARGET, exponents, coeffs)
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        exps = tuple(draw(small) for _ in SOURCE)
        terms[exps] = draw(st.sampled_from(COEFFS[source_ring.tag]))
    return hom, LaurentPoly(source_ring, SOURCE, terms)


def assert_same_as_term_by_term(hom, poly):
    got, want = hom.apply(poly), term_by_term_apply(hom, poly)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())
    assert_revalidates(got)


@given(hom_cases())
def test_hom_apply_matches_the_term_by_term_sum(case):
    assert_same_as_term_by_term(*case)


def test_hom_apply_matches_the_term_by_term_sum_seeded():
    rng = random.Random(909)
    collisions = 0
    for _ in range(400):
        source_ring, ring = rng.choice(RING_PAIRS)
        hom = RingHom.from_monomials(
            ring,
            TARGET,
            {name: (rng.randint(-1, 1), rng.randint(-1, 1)) for name in SOURCE},
            {name: rng.choice(UNITS[ring.tag]) for name in SOURCE},
        )
        poly = LaurentPoly(source_ring, SOURCE, {
            tuple(rng.randint(-2, 2) for _ in SOURCE): rng.choice(COEFFS[source_ring.tag])
            for _ in range(rng.randint(0, 10))
        })
        assert_same_as_term_by_term(hom, poly)
        collisions += len(hom.apply(poly).terms) < len(poly.terms)
    assert collisions >= 100


def test_hom_apply_keeps_the_order_of_a_cancelled_and_returning_term():
    # x and y both go to t and cancel, z goes to s, w brings t back last
    hom = RingHom.from_monomials(
        RATIONAL, TARGET, {"x": (0, 1), "y": (0, 1), "z": (1, 0), "w": (0, 1)},
        {"y": -1},
    )
    poly = LaurentPoly(RATIONAL, ("x", "y", "z", "w"), {
        (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 5,
    })
    got = hom.apply(poly)
    assert list(got.terms.items()) == [((1, 0), 1), ((0, 1), 5)]
    assert list(got.terms.items()) == list(term_by_term_apply(hom, poly).terms.items())
    # negative exponents invert the image coefficient: (2s)^-2 = s^-2 / 4
    doubling = RingHom.from_monomials(RATIONAL, ("s",), {"x": (1,)}, {"x": 2})
    inverse_square = LaurentPoly(RATIONAL, ("x",), {(-2,): 3})
    assert doubling.apply(inverse_square).terms == {(-2,): Fraction(3, 4)}
    assert_same_as_term_by_term(doubling, inverse_square)


def test_hom_apply_transports_only_int_into_rational():
    hom = RingHom.identity(RATIONAL, ("x",))
    image = hom.apply(LaurentPoly(INT, ("x",), {(1,): 3}))
    assert image.terms == {(1,): Fraction(3)} and type(image.terms[(1,)]) is Fraction
    with pytest.raises(UnsupportedRing):
        hom.apply(LaurentPoly(GF2, ("x",), {(1,): 1}))
    # with no terms there is nothing to transport
    assert hom.apply(LaurentPoly.zero(GF2, ("x",))).is_zero


def add_by_loop(a, b):
    """The terms of a + b from an independent copy of the summing rule: each
    of b's terms is added to a's, a sum that cancels is popped, and a new or
    returning monomial is set at the end."""
    ring, terms = a.ring, dict(a.terms)
    for exps, coeff in b.terms.items():
        c = ring.add(terms.get(exps, ring.zero), coeff)
        if c == ring.zero:
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return terms


def mul_by_loop(a, b):
    """The terms of a * b by the same rule, the products in row order."""
    ring, terms = a.ring, {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            c = ring.add(terms.get(exps, ring.zero), ring.mul(c1, c2))
            if c == ring.zero:
                terms.pop(exps, None)
            else:
                terms[exps] = c
    return terms


def ring_polys(ring, variables=("x", "y")):
    small = st.integers(min_value=-2, max_value=2)
    keys = st.tuples(*[small for _ in variables])
    return st.dictionaries(keys, st.sampled_from(COEFFS[ring.tag]), max_size=5).map(
        lambda terms: LaurentPoly(ring, variables, terms)
    )


@given(st.sampled_from((GF2, INT, RATIONAL)).flatmap(
    lambda ring: st.tuples(ring_polys(ring), ring_polys(ring))))
def test_arithmetic_results_revalidate(pair):
    a, b = pair
    results = [a + b, a - b, -a, a * b, a.log_derivative("x"), b.log_derivative("y")]
    if a.ring is not GF2:
        results += [a.partial_derivative("x"), b.partial_derivative("y")]
    for p in results:
        assert_revalidates(p)
    assert (a - a).is_zero and (a + b) - b == a
    assert a * b == mul_reference(a, b)
    assert list((a + b).terms.items()) == list(add_by_loop(a, b).items())
    assert list((a * b).terms.items()) == list(mul_by_loop(a, b).items())
