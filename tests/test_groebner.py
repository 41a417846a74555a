import heapq
import random
from fractions import Fraction
from operator import sub

import pytest

from twistkit.errors import CapExceeded, VariableMismatch
from twistkit.groebner import (
    contains_constant,
    grevlex_key,
    groebner_basis,
    leading_term,
    normal_form,
    standard_monomials,
    univariate_extended_gcd,
    univariate_gcd,
)
from twistkit.laurent import GF2, RATIONAL, LaurentPoly, RingHom


def poly(ring, variables, terms):
    return LaurentPoly(ring, variables, terms)


def random_poly(rng, ring, variables, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = 1 if ring is GF2 else Fraction(rng.randint(-4, 4))
    return LaurentPoly(ring, variables, terms)


# ---------------------------------------------------------------------------
# reference: a plain Buchberger loop with the same pair order, divisor
# choice and autoreduction as `groebner_basis`, but a min scan over the
# pending pairs, the coprime and chain criteria tested when a pair is taken,
# and LaurentPoly arithmetic at every step; the dict-term core must
# reproduce its bases byte for byte, and its cofactors wherever it reduces
# the same pairs


def _ref_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _ref_lead(p):
    exps = max(p.terms, key=_ref_key)
    return exps, p.terms[exps]


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ref_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _scale(p, c):
    return p.times_monomial((0,) * len(p.variables), c)


def _ref_monic(p, cof=None):
    inv = p.ring.inv(_ref_lead(p)[1])
    return _scale(p, inv), None if cof is None else [_scale(c, inv) for c in cof]


def _ref_normal_form(p, basis, cof=None, basis_cofs=None):
    ring = p.ring
    work, remainder = p, LaurentPoly.zero(ring, p.variables)
    while not work.is_zero:
        exps, coeff = _ref_lead(work)
        for j, g in enumerate(basis):
            g_exps, g_coeff = _ref_lead(g)
            if _ref_divides(g_exps, exps):
                q_exps = _ref_sub(exps, g_exps)
                q_coeff = ring.mul(coeff, ring.inv(g_coeff))
                work = work - g.times_monomial(q_exps, q_coeff)
                if cof is not None:
                    for i in range(len(cof)):
                        cof[i] = cof[i] - basis_cofs[j][i].times_monomial(q_exps, q_coeff)
                break
        else:
            term = LaurentPoly.monomial(ring, p.variables, exps, coeff)
            remainder, work = remainder + term, work - term
    return remainder, cof


def reference_groebner_basis(gens, with_cofactors=False):
    ring, variables = gens[0].ring, gens[0].variables
    basis, cofs = [], []
    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        unit = [LaurentPoly.constant(ring, variables, ring.one if j == i else ring.zero)
                for j in range(len(gens))]
        p, c = _ref_monic(g, unit if with_cofactors else None)
        basis.append(p)
        cofs.append(c)
    lms = [_ref_lead(g)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        i, j = min(pairs, key=lambda ij: (_ref_key(_ref_lcm(lms[ij[0]], lms[ij[1]])), ij))
        pairs.discard((i, j))
        lcm = _ref_lcm(lms[i], lms[j])
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if any(
            k not in (i, j)
            and _ref_divides(lms[k], lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        one = ring.one
        uf, ug = _ref_sub(lcm, lms[i]), _ref_sub(lcm, lms[j])
        s = basis[i].times_monomial(uf, one) - basis[j].times_monomial(ug, one)
        cof = None
        if with_cofactors:
            cof = [a.times_monomial(uf, one) - b.times_monomial(ug, one)
                   for a, b in zip(cofs[i], cofs[j])]
        if s.is_zero:
            continue
        r, cof = _ref_normal_form(s, basis, cof, cofs if with_cofactors else None)
        if r.is_zero:
            continue
        r, cof = _ref_monic(r, cof)
        basis.append(r)
        cofs.append(cof)
        lms.append(_ref_lead(r)[0])
        pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    # autoreduce: minimal basis by ascending leading monomial, then reduce each
    # element by the others, then sort by descending leading monomial
    keep = []
    for i in sorted(range(len(basis)), key=lambda i: _ref_key(lms[i])):
        if not any(_ref_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    out = []
    for i in keep:
        others = [k for k in keep if k != i]
        cof = list(cofs[i]) if with_cofactors else None
        r, cof = _ref_normal_form(
            basis[i], [basis[k] for k in others], cof,
            [cofs[k] for k in others] if with_cofactors else None,
        )
        out.append(_ref_monic(r, cof))
    out.sort(key=lambda rc: _ref_key(_ref_lead(rc[0])[0]), reverse=True)
    if not with_cofactors:
        return [r for r, _ in out]
    return [r for r, _ in out], [c for _, c in out]


# ---------------------------------------------------------------------------
# reference: the dense Euclid gcd that the one-variable Groebner basis
# replaced; the monic gcd of a nonzero one-variable ideal is its reduced basis


def _ref_dense_trim(p, zero):
    while p and p[-1] == zero:
        p.pop()
    return p


def _ref_to_dense(p):
    if p.is_zero:
        return []
    dense = [p.ring.zero] * (max(e for (e,) in p.terms) + 1)
    for (e,), c in p.terms.items():
        dense[e] = c
    return dense


def _ref_dense_remainder(a, b, ring):
    a = _ref_dense_trim(list(a), ring.zero)
    inv = ring.inv(b[-1])
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = ring.mul(a[-1], inv)
        for i, c in enumerate(b):
            a[shift + i] = ring.add(a[shift + i], ring.neg(ring.mul(factor, c)))
        _ref_dense_trim(a, ring.zero)
    return a


def reference_univariate_gcd(polys, ring, variables):
    dense_list = [d for d in (_ref_to_dense(p) for p in polys) if d]
    if not dense_list:
        return LaurentPoly.zero(ring, variables)
    g = dense_list[0]
    for nxt in dense_list[1:]:
        a, b = g, nxt
        while b:
            a, b = b, _ref_dense_remainder(a, b, ring)
        g = a
    inv = ring.inv(g[-1])
    return LaurentPoly(ring, variables, {(i,): ring.mul(c, inv) for i, c in enumerate(g)})


def univariate_inputs():
    """400 seeded lists of one to four one-variable polynomials of degree at
    most 10, half over GF2 and half over Q; zero polynomials occur, and about
    half the lists share a random factor of degree at most 3."""
    rng = random.Random(1993)
    v = ("t",)
    out = []
    for trial in range(400):
        ring = GF2 if trial % 2 else RATIONAL
        common = random_poly(rng, ring, v, max_terms=3, max_deg=3)
        if trial % 4 < 2 or common.is_zero:
            common = LaurentPoly.one(ring, v)
        polys = [
            common * random_poly(rng, ring, v, max_terms=4, max_deg=7)
            for _ in range(rng.randint(1, 4))
        ]
        out.append((ring, v, polys))
    return out


def random_ideals():
    """240 seeded ideals, half over GF2 and half over Q, in two or three
    variables, with two or three generators (some of them zero)."""
    rng = random.Random(2718)
    out = []
    for trial in range(240):
        ring = GF2 if trial % 2 else RATIONAL
        variables = ("x", "y") if trial % 3 else ("x", "y", "z")
        max_deg = 3 if len(variables) == 2 else 2
        gens = [
            random_poly(rng, ring, variables, max_terms=4, max_deg=max_deg)
            for _ in range(rng.randint(2, 3))
        ]
        if any(not g.is_zero for g in gens):
            out.append(gens)
    return out


def rational_ideals():
    """300 seeded ideals over Q in one to three variables, with two or three
    generators: coefficients of either sign with denominators up to 6, so
    leading coefficients are often negative or non-integral; some ideals
    have a zero generator, and some a generator that is a rational multiple
    of another."""
    rng = random.Random(1968)
    out = []
    while len(out) < 300:
        variables = ("x", "y", "z")[: rng.randint(1, 3)]
        max_deg = (5, 3, 2)[len(variables) - 1]
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, max_deg) for _ in variables)
                terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            gens.append(LaurentPoly(RATIONAL, variables, terms))
        roll = rng.random()
        if roll < 0.3:
            multiple = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
            gens.insert(rng.randint(0, len(gens)), _scale(gens[0], multiple))
        elif roll < 0.45:
            gens.insert(rng.randint(0, len(gens)), LaurentPoly.zero(RATIONAL, variables))
        elif len(gens) < 3:
            gens.append(random_poly(rng, RATIONAL, variables, max_terms=3, max_deg=max_deg))
        out.append(gens)
    return out


def _combination(vector, gens):
    """sum_j vector_j * gens_j, in LaurentPoly arithmetic."""
    total = LaurentPoly.zero(gens[0].ring, gens[0].variables)
    for c, g in zip(vector, gens, strict=True):
        total = total + c * g
    return total


def _items(p):
    """A polynomial's terms in dict order, every coefficient a Fraction."""
    assert all(type(c) is Fraction for c in p.terms.values())
    return list(p.terms.items())


def test_grevlex_order_basics():
    # degree first, then smaller exponent on the last differing variable wins
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))


def test_leading_term():
    p = poly(RATIONAL, ("x", "y"), {(1, 0): 2, (0, 1): 3, (0, 0): 1})
    assert leading_term(p) == ((1, 0), Fraction(2))


def test_normal_form_reduces_every_term():
    v = ("x", "y")
    g = poly(RATIONAL, v, {(1, 0): 1, (0, 0): -1})  # x - 1
    p = poly(RATIONAL, v, {(2, 1): 1, (1, 0): 1})  # x^2 y + x
    r, _ = normal_form(p, [g])
    assert r == poly(RATIONAL, v, {(0, 1): 1, (0, 0): 1})  # y + 1


def test_groebner_of_a_classic_pair():
    v = ("x", "y")
    g1 = poly(RATIONAL, v, {(2, 0): 1, (0, 1): -1})  # x^2 - y
    g2 = poly(RATIONAL, v, {(3, 0): 1, (0, 0): -1})  # x^3 - 1
    basis = groebner_basis([g1, g2])
    # x^3 - 1 = x*(x^2 - y) + (xy - 1): the reduced basis is triangular
    for b in basis:
        r, _ = normal_form(b, [g for g in basis if g is not b])
        assert r == b  # fully reduced
    # both generators reduce to zero against the basis
    for g in (g1, g2):
        r, _ = normal_form(g, basis)
        assert r.is_zero
    assert standard_monomials(basis) is not None
    assert len(standard_monomials(basis)) == 3


def test_groebner_result_is_independent_of_generator_order():
    rng = random.Random(42)
    v = ("x", "y", "z")
    for _ in range(20):
        gens = [random_poly(rng, GF2, v) for _ in range(3)]
        if all(g.is_zero for g in gens):
            continue
        nonzero = [g for g in gens if not g.is_zero]
        a = groebner_basis(nonzero)
        shuffled = nonzero[:]
        rng.shuffle(shuffled)
        b = groebner_basis(shuffled)
        assert a == b


def test_groebner_ideal_membership_is_stable():
    # every input generator reduces to zero modulo the basis
    rng = random.Random(7)
    v = ("x", "y")
    for _ in range(20):
        gens = [random_poly(rng, RATIONAL, v) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        basis = groebner_basis(gens)
        for g in gens:
            r, _ = normal_form(g, basis)
            assert r.is_zero


def test_cofactors_track_representations():
    rng = random.Random(11)
    v = ("x", "y")
    for _ in range(15):
        gens = [random_poly(rng, GF2, v) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        basis, cofs = groebner_basis(gens, with_cofactors=True)
        for element, cof in zip(basis, cofs):
            total = LaurentPoly.zero(GF2, v)
            for c, g in zip(cof, gens):
                total = total + c * g
            assert total == element


def test_every_s_polynomial_reduces_to_zero():
    # the defining property of a Groebner basis, checked exhaustively on the
    # result (independent of the pair-pruning criteria used while building it)
    from twistkit.groebner import _exps_lcm

    def s_poly(f, g):
        ring = f.ring
        (fe, fc), (ge, gc) = leading_term(f), leading_term(g)
        l = _exps_lcm(fe, ge)
        return f.times_monomial(tuple(map(sub, l, fe)), ring.inv(fc)) - g.times_monomial(
            tuple(map(sub, l, ge)), ring.inv(gc)
        )

    for gens in random_ideals():
        basis = groebner_basis(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                r, _ = normal_form(s_poly(basis[i], basis[j]), basis)
                assert r.is_zero


def test_basis_and_cofactors_match_the_reference_loop():
    ideals = random_ideals()
    assert len(ideals) >= 200
    assert {gens[0].ring for gens in ideals} == {GF2, RATIONAL}
    for gens in ideals:
        basis, cofs = groebner_basis(gens, with_cofactors=True)
        ref_basis, _ = reference_groebner_basis(gens, with_cofactors=True)
        assert [str(b) for b in basis] == [str(b) for b in ref_basis]
        # cofactors are not unique: each vector must satisfy its identity
        assert [_combination(vec, gens) for vec in cofs] == basis
        assert [str(b) for b in groebner_basis(gens)] == [str(b) for b in ref_basis]


def test_integer_core_matches_the_rational_reference():
    """Over Q the core reduces integer multiples of the reference loop's
    rational polynomials; bases and normal forms must be the same Fractions
    in the same term order, and basis cofactors, which are not unique,
    Fractions that satisfy their identities exactly."""
    ideals = rational_ideals()
    leads = [_ref_lead(g)[1] for gens in ideals for g in gens if not g.is_zero]
    assert sum(c < 0 for c in leads) > 100 and sum(c.denominator > 1 for c in leads) > 100
    assert sum(any(g.is_zero for g in gens) for gens in ideals) > 20
    rng = random.Random(1993)
    for gens in ideals:
        v = gens[0].variables
        ref_basis = reference_groebner_basis(gens)
        basis, cofs = groebner_basis(gens, with_cofactors=True)
        assert [_items(b) for b in basis] == [_items(b) for b in ref_basis]
        for b, vec in zip(basis, cofs):
            for c in vec:
                _items(c)  # every coefficient a Fraction
            assert _combination(vec, gens) == b
        assert [_items(b) for b in groebner_basis(gens)] == [_items(b) for b in ref_basis]
        # normal forms modulo the basis, and modulo the generators
        # themselves, whose leading coefficients are not 1
        extra = LaurentPoly(RATIONAL, v, {
            tuple(rng.randint(0, 4) for _ in v): Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            for _ in range(4)
        })
        r, none = normal_form(extra, basis)
        ref_r, _ = _ref_normal_form(extra, ref_basis)
        assert _items(r) == _items(ref_r) and none is None
        r, _ = normal_form(extra, gens)
        ref_r, _ = _ref_normal_form(extra, [g for g in gens if not g.is_zero])
        assert _items(r) == _items(ref_r)


def test_bases_cofactors_and_remainders_revalidate():
    """Results are built without the public constructor's validation; each
    must be what that constructor makes of it, term order included."""
    rng = random.Random(404)

    def check(p):
        want = Fraction if p.ring is RATIONAL else int
        for exps, coeff in p.terms.items():
            assert len(exps) == len(p.variables) and all(type(e) is int for e in exps)
            assert type(coeff) is want and coeff != 0
        again = LaurentPoly(p.ring, p.variables, p.terms)
        assert list(again.terms.items()) == list(p.terms.items())

    for gens in random_ideals()[:80]:
        basis, cofs = groebner_basis(gens, with_cofactors=True)
        extra = random_poly(rng, gens[0].ring, gens[0].variables)
        remainder, _ = normal_form(extra, basis)
        for p in [*basis, *(c for v in cofs for c in v), remainder]:
            check(p)


def test_zero_dimension_tests_take_each_leading_monomial_once(monkeypatch):
    from twistkit import groebner

    v = ("x", "y")
    basis = groebner_basis([poly(RATIONAL, v, {(2, 0): 1, (0, 1): -1}),
                            poly(RATIONAL, v, {(3, 0): 1, (0, 0): -1})])
    calls = []
    lead = groebner.leading_term
    monkeypatch.setattr(groebner, "leading_term", lambda p: calls.append(p) or lead(p))
    assert len(standard_monomials(basis)) == 3
    assert len(calls) == len(basis)


def test_unit_ideal_detection():
    v = ("x",)
    basis = groebner_basis([poly(GF2, v, {(0,): 1, (1,): 1}), poly(GF2, v, {(1,): 1})])
    assert contains_constant(basis)
    assert standard_monomials(basis) == []


def test_positive_dimensional_ideal_has_no_standard_basis():
    v = ("x", "y")
    basis = groebner_basis([poly(RATIONAL, v, {(1, 1): 1})])  # (xy)
    assert standard_monomials(basis) is None


def test_zero_ideal_has_an_infinite_quotient():
    v = ("x", "y")
    basis = groebner_basis([LaurentPoly.zero(GF2, v), LaurentPoly.zero(GF2, v)])
    assert basis == []
    assert not contains_constant(basis)
    assert standard_monomials(basis) is None


def test_zero_polynomial_has_no_leading_term():
    with pytest.raises(ValueError, match="zero polynomial"):
        leading_term(LaurentPoly.zero(RATIONAL, ("x",)))


def test_normal_form_skips_zero_divisors():
    v = ("x", "y")
    g = poly(RATIONAL, v, {(1, 0): 2, (0, 0): -2})  # 2x - 2
    p = poly(RATIONAL, v, {(2, 1): 1, (1, 0): 1})  # x^2 y + x
    zero = LaurentPoly.zero(RATIONAL, v)
    r, _ = normal_form(p, [zero, g])
    assert r == normal_form(p, [g])[0] == poly(RATIONAL, v, {(0, 1): 1, (0, 0): 1})
    assert normal_form(p, [zero])[0] == p


def test_normal_form_does_not_depend_on_the_scale_of_its_divisors():
    """Over Q a divisor enters the reduction divided by its content, which
    changes no rational value: divisors scaled by random nonzero rationals
    (a basis, and generators whose leading coefficients are not 1) give the
    reference remainder, the same Fractions in the same term order."""
    rng = random.Random(3709)
    for gens in rational_ideals()[:150]:
        v = gens[0].variables
        extra = LaurentPoly(RATIONAL, v, {
            tuple(rng.randint(0, 4) for _ in v): Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            for _ in range(4)
        })
        for divisors in (groebner_basis(gens), gens):
            want, _ = _ref_normal_form(extra, [g for g in divisors if not g.is_zero])
            scaled = [
                _scale(g, Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40)))
                for g in divisors
            ]
            r, _ = normal_form(extra, scaled)
            assert _items(r) == _items(want)


def test_groebner_rejects_laurent_inputs():
    with pytest.raises(ValueError):
        groebner_basis([poly(GF2, ("x",), {(-1,): 1})])
    with pytest.raises(ValueError, match="at least one generator"):
        groebner_basis([])
    x = poly(RATIONAL, ("x",), {(1,): 1})
    for other in (poly(GF2, ("x",), {(1,): 1}), poly(RATIONAL, ("y",), {(1,): 1})):
        with pytest.raises(VariableMismatch, match=r"does not match Rational over \('x',\)"):
            normal_form(x, [other])


def test_normal_form_rejects_laurent_inputs():
    """One check guards both entry points: a negative exponent in the
    dividend or in a divisor is refused, as in a generator, and so is a
    generator of another variable tuple."""
    for ring in (GF2, RATIONAL):
        v = ("x", "y")
        x, one = LaurentPoly.var(ring, v, "x"), LaurentPoly.one(ring, v)
        x_inv = LaurentPoly.monomial(ring, v, (-1, 0))
        with pytest.raises(ValueError, match="nonnegative exponents"):
            normal_form(x, [x_inv - one])
        with pytest.raises(ValueError, match="nonnegative exponents"):
            normal_form(x_inv + one, [x - one])
        with pytest.raises(ValueError, match="nonnegative exponents"):
            normal_form(x, [x - one, LaurentPoly.zero(ring, v), x * x_inv * x_inv])
        other = LaurentPoly.var(ring, ("x", "z"), "x")
        with pytest.raises(VariableMismatch, match=r"over \('x', 'z'\) does not match"):
            groebner_basis([x, other])


def test_univariate_gcd_examples():
    v = ("R",)
    # (R+1)(R^2+R+1) = R^3+1 over GF2; gcd with R^2+R+1
    a = poly(GF2, v, {(3,): 1, (0,): 1})
    b = poly(GF2, v, {(2,): 1, (1,): 1, (0,): 1})
    assert univariate_gcd([a, b], GF2, v) == univariate_gcd([a, b], GF2, list(v)) == b
    # rational: gcd is monic
    c = poly(RATIONAL, v, {(2,): 2, (0,): -2})  # 2(R^2 - 1)
    d = poly(RATIONAL, v, {(1,): 3, (0,): 3})  # 3(R + 1)
    assert univariate_gcd([c, d], RATIONAL, v) == poly(RATIONAL, v, {(1,): 1, (0,): 1})
    # no inputs, or only zero ones: the zero ideal
    zero = LaurentPoly.zero(GF2, v)
    assert univariate_gcd([], GF2, v) == zero
    assert univariate_extended_gcd([zero, zero], GF2, v) == (zero, [zero, zero])
    with pytest.raises(VariableMismatch, match="multivariate"):
        univariate_gcd([poly(GF2, ("x", "y"), {(1, 0): 1})], GF2, ("x", "y"))


def test_univariate_gcd_refuses_another_ring_or_variable():
    """The gcd's `ring` and `variables` are checked against every polynomial,
    and `variables` must be one variable even when no polynomial is given."""
    x2_plus_1 = poly(GF2, ("x",), {(2,): 1, (0,): 1})
    for gcd in (univariate_gcd, univariate_extended_gcd):
        with pytest.raises(VariableMismatch, match=r"GF2 over \('x',\) does not match Rational"):
            gcd([x2_plus_1], RATIONAL, ("t",))
        with pytest.raises(VariableMismatch, match=r"\('x',\) does not match GF2 over \('t',\)"):
            gcd([x2_plus_1], GF2, ("t",))
        with pytest.raises(VariableMismatch, match="multivariate"):
            gcd([], RATIONAL, ("x", "y"))


def test_univariate_gcd_matches_the_euclid_reference():
    """Both gcds equal the reference, and `univariate_gcd` is the extended
    gcd's first element term for term; no input and zero inputs alone give 0."""
    inputs = univariate_inputs()
    assert any(p.is_zero for _, _, polys in inputs for p in polys)
    for ring in (GF2, RATIONAL):
        zero = LaurentPoly.zero(ring, ("t",))
        inputs += [(ring, ("t",), []), (ring, ("t",), [zero]), (ring, ("t",), [zero] * 3)]
    nontrivial = 0
    for ring, v, polys in inputs:
        want = str(reference_univariate_gcd(polys, ring, v))
        g = univariate_gcd(polys, ring, v)
        g_ext, cofs = univariate_extended_gcd(polys, ring, v)
        assert str(g) == str(g_ext) == want
        assert (g.ring, g.variables) == (ring, v)
        assert list(g.terms.items()) == list(g_ext.terms.items())
        assert len(cofs) == len(polys)
        total = LaurentPoly.zero(ring, v)
        for c, p in zip(cofs, polys):
            total = total + c * p
        assert total == g
        nontrivial += want not in ("0", "1")
    assert nontrivial >= 100


def test_extended_gcd_identity():
    rng = random.Random(3)
    v = ("t",)
    for _ in range(60):
        ring = GF2 if rng.random() < 0.5 else RATIONAL
        polys = [random_poly(rng, ring, v, max_terms=3, max_deg=4) for _ in range(3)]
        g, cofs = univariate_extended_gcd(polys, ring, v)
        total = LaurentPoly.zero(ring, v)
        for c, p in zip(cofs, polys):
            total = total + c * p
        assert total == g
        if not g.is_zero:
            for p in polys:
                if p.is_zero:
                    continue
                r, _ = normal_form(p, [g])
                assert r.is_zero


# ---------------------------------------------------------------------------
# the positional memo


def memo_ideals():
    """120 seeded ideals over GF2 and Q in one to three variables, with two
    or three generators, at least one of them nonzero."""
    rng = random.Random(4242)
    out = []
    while len(out) < 120:
        ring = GF2 if len(out) % 2 else RATIONAL
        variables = ("x", "y", "z")[: rng.randint(1, 3)]
        max_deg = (5, 3, 2)[len(variables) - 1]
        gens = [
            random_poly(rng, ring, variables, max_terms=4, max_deg=max_deg)
            for _ in range(rng.randint(2, 3))
        ]
        if any(not g.is_zero for g in gens):
            out.append(gens)
    return out


def _flat(result, with_cofactors):
    """Variables and terms, in order, of a basis and its cofactors."""
    basis, cofs = result if with_cofactors else (result, [])
    return (
        [(p.variables, list(p.terms.items())) for p in basis],
        [[(c.variables, list(c.terms.items())) for c in vec] for vec in cofs],
    )


def test_memo_hits_equal_fresh_computations_under_renamed_variables():
    from twistkit import groebner

    memo = groebner._reduced_basis
    ideals = memo_ideals()
    assert {len(gens[0].variables) for gens in ideals} == {1, 2, 3}
    for gens in ideals:
        names = ("a", "b", "c")[: len(gens[0].variables)]
        renamed = [LaurentPoly(g.ring, names, g.terms) for g in gens]
        assert [list(r.terms.items()) for r in renamed] == [list(g.terms.items()) for g in gens]
        for with_cofactors in (False, True):
            memo.cache_clear()
            fresh = groebner_basis(renamed, with_cofactors=with_cofactors)
            memo.cache_clear()
            groebner_basis(gens, with_cofactors=with_cofactors)
            hits = memo.cache_info().hits
            hit = groebner_basis(renamed, with_cofactors=with_cofactors)
            assert memo.cache_info().hits == hits + 1
            assert _flat(hit, with_cofactors) == _flat(fresh, with_cofactors)
            flat_basis, flat_cofs = _flat(hit, with_cofactors)
            assert {vs for vs, _ in flat_basis + [c for vec in flat_cofs for c in vec]} <= {names}


def test_mutating_a_returned_basis_does_not_poison_the_memo():
    v = ("x", "y")
    gens = [poly(RATIONAL, v, {(2, 0): 1, (0, 1): -1}), poly(RATIONAL, v, {(1, 1): 3, (0, 0): 1})]
    basis, cofs = groebner_basis(gens, with_cofactors=True)
    want = _flat((basis, cofs), True)
    basis[0].terms[(9, 9)] = Fraction(5)
    basis[-1].terms.clear()
    for c in cofs[0]:
        c.terms.clear()
    assert _flat(groebner_basis(gens, with_cofactors=True), True) == want
    assert _flat(groebner_basis(gens), False)[0] == want[0]


def test_invalid_inputs_raise_on_every_call_with_a_memoized_key():
    v, w = ("x", "y"), ("a", "b")
    p = poly(GF2, v, {(1, 0): 1, (0, 1): 1})
    q = poly(GF2, v, {(2, 0): 1, (0, 0): 1})
    groebner_basis([p, q])  # the key of each bad call below is this one's
    for _ in range(2):
        with pytest.raises(VariableMismatch):
            groebner_basis([p, poly(GF2, w, q.terms)])
        with pytest.raises(VariableMismatch):
            groebner_basis([p, poly(RATIONAL, v, q.terms)])
        with pytest.raises(ValueError, match="nonnegative"):
            groebner_basis([poly(GF2, ("x",), {(-1,): 1})])


def test_core_stops_at_the_first_constant(monkeypatch):
    """Once 1 is in the basis no pair is reduced: a constant generator skips
    the pair loop, and the autoreduction alone calls `reduce`.  Bases stay
    the reference loop's, which reduces every pair; cofactors, which are not
    unique, must satisfy their identities exactly."""
    from twistkit import groebner

    reductions = []
    reduce = groebner._Working.reduce
    monkeypatch.setattr(groebner._Working, "reduce",
                        lambda self, *args: reductions.append(1) or reduce(self, *args))
    rng = random.Random(31)
    v = ("x", "y")
    units = 0  # ideals that reach 1 inside the loop
    for trial in range(80):
        ring = GF2 if trial % 2 else RATIONAL
        gens = [random_poly(rng, ring, v, max_terms=3, max_deg=2) for _ in range(3)]
        if trial % 4 < 2:
            gens.insert(rng.randint(0, 3), LaurentPoly.constant(ring, v, ring.one))
        groebner._reduced_basis.cache_clear()
        reductions.clear()
        basis, cofs = groebner_basis(gens, with_cofactors=True)
        if trial % 4 < 2:
            assert len(reductions) == 1
        ref_basis, _ = reference_groebner_basis(gens, with_cofactors=True)
        assert [str(b) for b in basis] == [str(b) for b in ref_basis]
        assert [_combination(vec, gens) for vec in cofs] == basis
        units += trial % 4 >= 2 and contains_constant(basis)
    assert units > 5


# Gebauer and Moeller's criteria, and the pair budget

# the unimodular matrix (seeded, 16 random row additions) that mixes the
# coordinates of theta^2: ring variable i goes to the monomial with exponent
# row MIXED[i], an automorphism of the Laurent ring, so the H0 ideal stays
# proper; its variable-sharing split sees one block of 8 variables
MIXED = (
    (1, 0, 1, -1, 1, 0, -1, 1),
    (0, 1, 1, 0, 1, 0, 0, 0),
    (0, 0, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, -1, -2, -1, 0),
    (-1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 1, 0, 1, 1, 0, 0),
    (-2, 0, 2, -1, 4, 2, 1, 1),
    (-1, 0, 2, -1, 3, 0, 0, 1),
)


def test_mixed_theta_square_ideal_queues_few_pairs(monkeypatch):
    """The H0 ideal of theta^2 in mixed coordinates is proper.  Its one
    Buchberger run queued 2,165 pairs with the criteria applied when an
    element enters the basis; testing the chain criterion only when a pair
    was taken queued 78,210."""
    from twistkit import groebner
    from twistkit.certificates import ideal_contains_one
    from twistkit.presets import product_bundle

    pushes = []
    heappush = heapq.heappush
    monkeypatch.setattr(groebner.heapq, "heappush",
                        lambda queue, item: pushes.append(1) or heappush(queue, item))
    potential = product_bundle(2, 0).potential
    names = potential.variables
    mix = RingHom.from_monomials(GF2, names, dict(zip(names, MIXED)))
    groebner._reduced_basis.cache_clear()
    result = ideal_contains_one([mix.apply(v) for v in potential.toric_differential()])
    assert not result.contains_one
    assert len(result.generators) == 211  # the reduced basis, which is unique
    assert 0 < len(pushes) <= 3000


# for (k, seed), the unimodular matrix M (seeded, 4k random row additions, as
# perfbench's `_unimodular(random.Random(seed), 2k, 4k)` makes it) that mixes
# the coordinates of the regularity image of theta^k: ring variable i goes to
# the monomial with exponent row M[i]
MIXED_REGULARITY = {
    (2, 1): ((2, 0, -1, 0), (-1, 1, 1, 0), (-1, -1, 0, 1), (0, -1, -1, 1)),
    (2, 2): ((0, 0, 1, 1), (0, 1, 0, 0), (-2, -1, 3, 0), (1, 0, -1, 1)),
    (2, 3): ((1, 0, 1, -1), (0, 1, 1, 0), (0, 0, 1, -1), (0, 2, 2, 1)),
    (2, 4): ((1, 0, 1, 0), (0, 1, 0, 1), (2, 1, 3, 1), (0, 1, -1, 2)),
    (2, 5): ((1, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, -1), (2, 4, 1, 2)),
    (2, 6): ((2, -4, 1, 1), (0, 1, 0, 0), (-1, 1, 1, -1), (-1, 1, -1, 0)),
    (2, 7): ((0, 0, 1, 2), (-1, 1, 1, 1), (-1, 0, 1, 1), (1, 1, 0, 2)),
    (2, 8): ((1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 0), (-1, 0, 0, 0)),
    (2, 9): ((1, 0, 0, 0), (2, 1, 1, 0), (1, 0, 1, 0), (0, 0, -1, 1)),
    (2, 10): ((1, -1, -1, -1), (0, 1, -1, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
    (3, 1): ((0, 0, 0, 0, 1, 0), (-1, 1, 0, 0, 1, 0), (-1, 1, 1, -1, 1, 1),
             (1, -1, 0, 1, 0, 0), (-1, 0, 0, 1, 1, -1), (0, 0, 0, 0, 1, 1)),
    (3, 2): ((1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 1, 0),
             (1, 1, -1, 0, 0, 1), (1, 1, 0, -1, 1, 2), (0, 0, 0, 0, 0, 1)),
    (3, 3): ((1, 0, 0, 0, 0, 0), (-1, 1, 0, -1, 2, 0), (-2, 0, 1, 0, 0, 0),
             (1, 1, 0, 0, 0, 0), (-1, 0, 0, 0, 1, 0), (1, -1, 0, 1, 0, 1)),
    (3, 4): ((0, -1, -1, -1, 0, 0), (3, 3, 4, 1, 0, -1), (0, 0, 0, -1, 0, 1),
             (0, 0, 0, 1, 0, 0), (3, 3, 4, 2, 1, -2), (-2, -2, -3, -1, 0, 1)),
    (3, 5): ((3, -1, -1, 0, 1, 1), (1, 0, -1, 0, 1, 1), (1, -1, 1, 0, 0, 0),
             (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, -1), (0, 0, -1, 0, 1, 1)),
}


@pytest.mark.parametrize("k, seed", list(MIXED_REGULARITY), ids=lambda v: str(v))
def test_mixed_regularity_images_certify_under_sugar(k, seed):
    """A monomial change of coordinates is a ring automorphism, so the mixed
    regularity image of theta^k stays regular with quotient dimension 2^k.
    Over Q the Buchberger loop takes the pair of least sugar first; taking
    the least lcm, (2, 1), (2, 2), (2, 4) and (3, 3) ran past 20 s and (3, 2)
    passed the reduction budget, as coefficients swelled."""
    from twistkit.certificates import RegularityResult, regular_sequence_check
    from twistkit.presets import product_bundle

    bundle = product_bundle(k, 0)
    image = bundle.regularity_hom.apply(bundle.potential.poly_over(RATIONAL))
    names = image.variables
    mix = RingHom.from_monomials(RATIONAL, names, dict(zip(names, MIXED_REGULARITY[k, seed])))
    assert regular_sequence_check(mix.apply(image)) == RegularityResult(True, 2**k, ())


def test_pair_budget_is_exact_and_a_raise_is_not_memoized(monkeypatch):
    """x^2 - y and x^3 - 1 take three pairs from the queue: a budget of three
    lets the loop finish, and a budget of two raises at the third pair.  A
    raise leaves nothing in the memo, so it repeats, and a larger budget
    then computes the basis."""
    from twistkit import groebner

    v = ("x", "y")
    gens = [poly(RATIONAL, v, {(2, 0): 1, (0, 1): -1}), poly(RATIONAL, v, {(3, 0): 1, (0, 0): -1})]
    groebner._reduced_basis.cache_clear()
    want = groebner_basis(gens, with_cofactors=True)
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 3)
    groebner._reduced_basis.cache_clear()
    assert groebner_basis(gens, with_cofactors=True) == want
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 2)
    groebner._reduced_basis.cache_clear()
    for _ in range(2):
        with pytest.raises(
            CapExceeded, match="^groebner: 3 S-pairs exceed the budget of 2$"
        ):
            groebner_basis(gens, with_cofactors=True)
        assert groebner._reduced_basis.cache_info().currsize == 0
    monkeypatch.setattr(groebner, "PAIR_BUDGET", 3)
    assert groebner_basis(gens, with_cofactors=True) == want
    assert groebner._reduced_basis.cache_info().currsize == 1


def test_reduction_budget_is_exact_and_a_raise_is_not_memoized(monkeypatch):
    """The reductions of x^2 - y and x^3 - 1, autoreduction included, scan
    and subtract 19 terms and test 17 divisors: a budget of 36 lets the
    basis finish, and one of 35 raises.  A raise leaves nothing in the memo,
    so it repeats.  One `normal_form` call counts on its own: x^5 + 3 takes
    15 terms and 10 divisor tests (1, 1, 2, then all 3 for y and for 3)."""
    from twistkit import groebner

    v = ("x", "y")
    gens = [poly(RATIONAL, v, {(2, 0): 1, (0, 1): -1}), poly(RATIONAL, v, {(3, 0): 1, (0, 0): -1})]
    groebner._reduced_basis.cache_clear()
    want = groebner_basis(gens, with_cofactors=True)
    monkeypatch.setattr(groebner, "REDUCTION_BUDGET", 36)
    groebner._reduced_basis.cache_clear()
    assert groebner_basis(gens, with_cofactors=True) == want
    monkeypatch.setattr(groebner, "REDUCTION_BUDGET", 35)
    groebner._reduced_basis.cache_clear()
    for _ in range(2):
        with pytest.raises(CapExceeded, match=(
            "^groebner: 36 reduced terms and divisor tests exceed the budget of 35$"
        )):
            groebner_basis(gens, with_cofactors=True)
        assert groebner._reduced_basis.cache_info().currsize == 0

    basis = want[0]
    p = poly(RATIONAL, v, {(5, 0): 1, (0, 0): 3})
    monkeypatch.setattr(groebner, "REDUCTION_BUDGET", 25)
    assert normal_form(p, basis) == (poly(RATIONAL, v, {(0, 1): 1, (0, 0): 3}), None)
    monkeypatch.setattr(groebner, "REDUCTION_BUDGET", 24)
    with pytest.raises(
        CapExceeded, match="^groebner: 25 reduced terms and divisor tests exceed the budget of 24$"
    ):
        normal_form(p, basis)
