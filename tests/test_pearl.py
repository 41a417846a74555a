import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistkit.discs import DiscClass, HomologyBasis
from twistkit.errors import VariableMismatch
from twistkit.laurent import GF2, RATIONAL, LaurentPoly, RingHom
from twistkit.pearl import (
    PearlElement,
    Potential,
    pearl_d2,
    pearl_d2_from_vs,
    potential_from_json,
    potential_to_json,
    toric_differential,
)
from twistkit.presets import THETA_RING_NAMES, theta_basis, theta_potential

V = THETA_RING_NAMES


def gf2(terms):
    return LaurentPoly(GF2, V, terms)


D2_GAMMA = gf2(
    {(1, 0, 0, 0): 1, (-1, -1, 1, 0): 1, (-1, 0, 1, 0): 1, (-1, 0, 0, 1): 1, (-1, 1, 0, 1): 1}
)
D2_TAU = gf2({(-1, -1, 1, 0): 1, (-1, 1, 0, 1): 1})


def plain_basis(n):
    return HomologyBasis(
        names=tuple(f"G{i}" for i in range(n)),
        boundary_matrix=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        n_torus_rank=n,
    )


def random_potential(rng, ring=GF2, n=2, extra=1, max_terms=6):
    basis = plain_basis(n + extra)
    classes = []
    for _ in range(rng.randint(1, max_terms)):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(n + extra))
        sign = 1 if ring is GF2 else rng.choice([1, -1])
        classes.append((DiscClass(coeffs, basis.boundary_of(coeffs)), sign))
    return Potential(ring, basis, classes)


def random_element(rng, potential, max_components=3):
    n = len(potential.r_names)
    comps = {}
    for _ in range(rng.randint(1, max_components)):
        size = rng.randint(0, n)
        subset = tuple(sorted(rng.sample(range(n), size)))
        coeffs = {
            tuple(rng.randint(-2, 2) for _ in potential.variables): 1
            for _ in range(rng.randint(1, 3))
        }
        poly = LaurentPoly(potential.ring, potential.variables, coeffs)
        comps[subset] = comps.get(subset, LaurentPoly.zero(potential.ring, potential.variables)) + poly
    return PearlElement(potential.ring, potential.variables, n, comps)


# ---------------------------------------------------------------------------
# toric differential


def test_toric_differential_of_the_twist_torus():
    vs = theta_potential().toric_differential()
    assert vs[0] == D2_GAMMA
    assert vs[1] == D2_TAU


def test_toric_differential_kills_even_exponents_over_gf2():
    basis = HomologyBasis(
        names=("A", "B"),
        boundary_matrix=((1, 0), (0, 1)),
        n_torus_rank=2,
        ring_names=("R", "T"),
    )
    cls = DiscClass((2, 1), (2, 1))
    pot = Potential(GF2, basis, [(cls, 1)])
    assert repr(pot) == "Potential(GF2, U = R^2*T)"
    v_r, v_t = pot.toric_differential()
    assert v_r.is_zero
    assert v_t == LaurentPoly(GF2, ("R", "T"), {(2, 1): 1})


def test_toric_differential_is_additive():
    rng = random.Random(5)
    basis = plain_basis(3)
    for _ in range(30):
        p1 = random_potential(rng, ring=RATIONAL, n=3, extra=0)
        p2 = random_potential(rng, ring=RATIONAL, n=3, extra=0)
        merged = Potential(RATIONAL, basis, list(p1.provenance) + list(p2.provenance))
        for a, b, c in zip(
            merged.toric_differential(), p1.toric_differential(), p2.toric_differential()
        ):
            assert a == b + c


def test_toric_differentials_are_derived_once_per_potential(monkeypatch):
    rng = random.Random(8)
    for ring in (GF2, RATIONAL):
        pot = random_potential(rng, ring=ring, n=3, extra=1)
        vs = pot.toric_differential()
        assert vs == tuple(pot.poly.log_derivative(name) for name in pot.r_names)
        assert pot.toric_differential() is vs and toric_differential(pot) is vs
        alphas = [random_element(rng, pot, 3) for _ in range(5)]
        want = [pearl_d2_from_vs(alpha, vs) for alpha in alphas]
        calls = []
        monkeypatch.setattr(LaurentPoly, "log_derivative",
                            lambda *args: calls.append(args) or None)
        assert [pearl_d2(alpha, pot) for alpha in alphas] == want
        assert calls == []
        monkeypatch.undo()


def test_toric_differential_leibniz_on_monomial_factors():
    # v_k(U*M) = v_k(U)*M + U*v_k(M) for a monomial M, over the rationals
    rng = random.Random(8)
    for _ in range(30):
        pot = random_potential(rng, ring=RATIONAL, n=2, extra=1)
        u = pot.poly
        exps = tuple(rng.randint(-2, 2) for _ in pot.variables)
        m = LaurentPoly.monomial(RATIONAL, pot.variables, exps, Fraction(rng.randint(1, 3)))
        for name in pot.r_names:
            left = (u * m).log_derivative(name)
            right = u.log_derivative(name) * m + u * m.log_derivative(name)
            assert left == right


def test_toric_differential_gf2_parity():
    rng = random.Random(21)
    for _ in range(30):
        pot = random_potential(rng, ring=GF2, n=2, extra=1)
        for name, v in zip(pot.r_names, pot.toric_differential()):
            idx = pot.variables.index(name)
            expected = LaurentPoly(
                GF2,
                pot.variables,
                {e: c for e, c in pot.poly.terms.items() if e[idx] % 2 == 1},
            )
            assert v == expected


# ---------------------------------------------------------------------------
# the quadratic pearl differential


def test_d2_of_degree_one_duals_matches_printed_values():
    pot = theta_potential()
    gamma_star = PearlElement.generator(GF2, V, 2, 0)
    tau_star = PearlElement.generator(GF2, V, 2, 1)
    assert pearl_d2(gamma_star, pot) == PearlElement.scalar(D2_GAMMA, 2)
    assert pearl_d2(tau_star, pot) == PearlElement.scalar(D2_TAU, 2)


def test_d2_vanishes_on_degree_zero():
    pot = theta_potential()
    rng = random.Random(4)
    for _ in range(20):
        lam = LaurentPoly(
            GF2, V, {tuple(rng.randint(-2, 2) for _ in V): 1 for _ in range(3)}
        )
        assert pearl_d2(PearlElement.scalar(lam, 2), pot).is_zero


def test_d2_squared_vanishes_on_the_top_wedge():
    pot = theta_potential()
    wedge = PearlElement.wedge_of(GF2, V, 2, (0, 1))
    once = pearl_d2(wedge, pot)
    assert once.degrees() == (1,)
    assert pearl_d2(once, pot).is_zero


def test_d2_drops_degree_by_exactly_one():
    rng = random.Random(17)
    for _ in range(30):
        pot = random_potential(rng, n=3, extra=0)
        alpha = random_element(rng, pot)
        image = pearl_d2(alpha, pot)
        degrees = set(image.degrees())
        expected = {d - 1 for d in alpha.degrees() if d >= 1}
        assert degrees.issubset(expected)


def test_d2_squared_is_zero_randomized_gf2():
    rng = random.Random(100)
    for _ in range(100):
        pot = random_potential(rng, ring=GF2, n=rng.randint(1, 3), extra=rng.randint(0, 1))
        alpha = random_element(rng, pot)
        assert pearl_d2(pearl_d2(alpha, pot), pot).is_zero


def test_d2_squared_is_zero_randomized_rational():
    # the signed contraction also squares to zero
    rng = random.Random(101)
    for _ in range(60):
        pot = random_potential(rng, ring=RATIONAL, n=rng.randint(2, 3), extra=0)
        alpha = random_element(rng, pot)
        assert pearl_d2(pearl_d2(alpha, pot), pot).is_zero


def test_arithmetic_results_revalidate():
    """Sums, scalings, contractions and d2 build their results without the
    public constructor's checks; each must be what that constructor makes of
    its components, in the same order, with cancelled components dropped."""
    rng = random.Random(102)
    for ring in (GF2, RATIONAL):
        for _ in range(30):
            pot = random_potential(rng, ring=ring, n=rng.randint(1, 3), extra=rng.randint(0, 1))
            alpha, beta = random_element(rng, pot), random_element(rng, pot)
            minus_one = LaurentPoly.constant(ring, pot.variables, -1)
            results = [
                alpha + beta,
                alpha + alpha.scaled_by(minus_one),  # zero over both rings
                alpha.scaled_by(pot.toric_differential()[0]),
                alpha.contract(0),
                pearl_d2(alpha, pot),
            ]
            assert results[1].is_zero
            for result in results:
                again = PearlElement(result.ring, result.variables, result.n, result.components)
                assert list(again.components.items()) == list(result.components.items())
                assert (again.ring, again.variables, again.n) == (
                    result.ring, result.variables, result.n
                )
                assert type(result.variables) is tuple and type(result.n) is int


def disc_differential(disc, sign, basis, alpha):
    """One disc class's contribution to the differential, the reference that
    `pearl_d2` is checked against: its monomial times the contraction along
    its boundary, in carrying-generator coordinates."""
    ring, variables = alpha.ring, alpha.variables
    monomial = LaurentPoly.monomial(ring, variables, disc.coefficients, sign)
    result = PearlElement.zero(ring, variables, alpha.n)
    for k, j in enumerate(basis.boundary_indices):
        multiple = disc.coefficients[j]
        if multiple:
            scaled = monomial.times_monomial((0,) * len(variables), multiple)
            result = result + alpha.contract(k).scaled_by(scaled)
    return result


def test_d2_agrees_with_per_disc_contributions():
    # summing the one-disc operators (monomial times boundary contraction)
    # over the provenance rebuilds the differential
    rng = random.Random(55)
    for _ in range(40):
        pot = random_potential(rng, ring=GF2, n=2, extra=1)
        alpha = random_element(rng, pot)
        total = PearlElement.zero(pot.ring, pot.variables, len(pot.r_names))
        for cls, sign in pot.provenance:
            total = total + disc_differential(cls, sign, pot.basis, alpha)
        assert total == pearl_d2(alpha, pot)


def test_per_disc_operators_on_the_preset():
    # each disc class acts by its monomial times contraction along its
    # boundary: check all five operators on both degree-one duals
    pot = theta_potential()
    gamma_star = PearlElement.generator(GF2, V, 2, 0)
    tau_star = PearlElement.generator(GF2, V, 2, 1)
    by_coeffs = {cls.coefficients: (cls, sign) for cls, sign in pot.provenance}

    def act(coeffs, alpha):
        one_class = Potential(GF2, pot.basis, [by_coeffs[coeffs]])
        return pearl_d2(alpha, one_class).component(())

    # boundary Gamma: contributes its monomial against Gamma* only
    assert act((1, 0, 0, 0), gamma_star) == gf2({(1, 0, 0, 0): 1})
    assert act((1, 0, 0, 0), tau_star).is_zero
    # boundary -Gamma - tau: hits both duals
    assert act((-1, -1, 1, 0), gamma_star) == gf2({(-1, -1, 1, 0): 1})
    assert act((-1, -1, 1, 0), tau_star) == gf2({(-1, -1, 1, 0): 1})
    # boundary -Gamma: Gamma* only
    assert act((-1, 0, 1, 0), tau_star).is_zero
    assert act((-1, 0, 0, 1), gamma_star) == gf2({(-1, 0, 0, 1): 1})
    # boundary -Gamma + tau: both again
    assert act((-1, 1, 0, 1), tau_star) == gf2({(-1, 1, 0, 1): 1})


def test_collapsed_differential_hits_one():
    # after collapsing by half the Maslov index the image of d2 contains 1,
    # with explicit preimage t^-1 times the first dual generator
    from twistkit.presets import theta_maslov_collapse_hom

    pot = theta_potential()
    collapse = theta_maslov_collapse_hom()
    vs_img = [collapse.apply(v) for v in pot.toric_differential()]
    t_vars = collapse.variables
    preimage = PearlElement(
        GF2, t_vars, 2, {(0,): LaurentPoly.monomial(GF2, t_vars, (-1,))}
    )
    image = pearl_d2_from_vs(preimage, vs_img)
    assert image == PearlElement.scalar(LaurentPoly.one(GF2, t_vars), 2)


def test_naturality_under_ring_homomorphisms():
    # phi(d2(alpha)) computed in the target ring from the transported toric
    # differentials equals the image of d2(alpha)
    pot = theta_potential()
    phi = RingHom.from_monomials(
        GF2, ("t",), {"R": (1,), "T": (-1,), "S1": (2,), "S2": (0,)}
    )
    rng = random.Random(77)
    vs_img = [phi.apply(v) for v in pot.toric_differential()]

    def image(element):
        images = {subset: phi.apply(p) for subset, p in element.components.items()}
        return PearlElement(phi.ring, phi.variables, element.n, images)

    for _ in range(30):
        alpha = random_element(rng, pot)
        left = image(pearl_d2(alpha, pot))
        right = pearl_d2_from_vs(image(alpha), vs_img)
        assert left == right


def test_d2_requires_matching_rings():
    pot = theta_potential()
    alpha = PearlElement.generator(RATIONAL, V, 2, 0)
    with pytest.raises(VariableMismatch):
        pearl_d2(alpha, pot)
    with pytest.raises(VariableMismatch, match="need 3 toric differentials, got 2"):
        pearl_d2(PearlElement.generator(GF2, V, 3, 0), pot)
    with pytest.raises(VariableMismatch, match="need 2 toric differentials, got 1"):
        pearl_d2_from_vs(PearlElement.generator(GF2, V, 2, 0), pot.toric_differential()[:1])


def test_d2_from_vs_refuses_another_ring_when_every_term_is_zero():
    """Each toric differential is checked against the element, also when no
    contraction is nonzero and so no product would check it."""
    q = LaurentPoly.var(RATIONAL, ("t",), "t")
    for alpha in (PearlElement.zero(GF2, V, 2), PearlElement.scalar(LaurentPoly.one(GF2, V), 2)):
        with pytest.raises(VariableMismatch, match=r"Rational over \('t',\) does not match GF2"):
            pearl_d2_from_vs(alpha, [q, q])


def test_element_validation():
    one = LaurentPoly.one(GF2, V)
    with pytest.raises(ValueError, match="must be strictly increasing"):
        PearlElement(GF2, V, 2, {(1, 0): one})
    with pytest.raises(ValueError, match="must be strictly increasing"):
        PearlElement(GF2, V, 2, {(1, 1): one})
    with pytest.raises(ValueError, match="out of range"):
        PearlElement(GF2, V, 2, {(0, 2): one})
    with pytest.raises(ValueError, match="out of range"):
        PearlElement(GF2, V, 2, {(-1,): one})
    with pytest.raises(VariableMismatch, match="Rational over .* does not match GF2 over"):
        PearlElement(GF2, V, 2, {(0,): LaurentPoly.one(RATIONAL, V)})
    for n in (2.7, True):
        with pytest.raises(ValueError, match="is not an integer"):
            PearlElement(GF2, V, n)
    assert type(PearlElement(GF2, V, 2.0).n) is int
    with pytest.raises(VariableMismatch, match="rank 3 does not match rank 2"):
        PearlElement.generator(GF2, V, 2, 0) + PearlElement.generator(GF2, V, 3, 0)


def test_element_str_repr_and_hash():
    v = ("x", "y")
    x, y = (LaurentPoly.var(RATIONAL, v, name) for name in v)
    one = LaurentPoly.one(RATIONAL, v)
    element = PearlElement(RATIONAL, v, 2, {(0, 1): x * x, (0,): x + y, (): one})
    # components by degree, then by index tuple; q1 is the first dual generator
    assert str(element) == "(1) 1 + (x + y) q1 + (x^2) q1^q2"
    assert repr(element) == "PearlElement(Rational, '(1) 1 + (x + y) q1 + (x^2) q1^q2')"
    zero = PearlElement(GF2, V, 2, {})
    assert (str(zero), repr(zero)) == ("0", "PearlElement(GF2, '0')")
    same = PearlElement(RATIONAL, v, 2, {(): one, (0,): y + x, (0, 1): x * x})
    assert same == element and hash(same) == hash(element)
    assert hash(element) == hash(
        ("Rational", v, 2, frozenset({(): one, (0,): x + y, (0, 1): x * x}.items()))
    )
    assert len({element, same, zero, PearlElement.generator(GF2, V, 2, 0)}) == 3


def test_wedge_normalization_signs():
    x = ("x",)
    one = LaurentPoly.one(RATIONAL, x)
    straight = PearlElement.wedge_of(RATIONAL, x, 3, (0, 1))
    swapped = PearlElement.wedge_of(RATIONAL, x, 3, (1, 0))
    assert straight.component((0, 1)) == one
    assert swapped.component((0, 1)) == -one
    assert PearlElement.wedge_of(RATIONAL, x, 3, (1, 1)).is_zero
    # over GF2 the sign collapses
    assert PearlElement.wedge_of(GF2, x, 3, (1, 0)) == PearlElement.wedge_of(GF2, x, 3, (0, 1))


def test_contraction_signs_alternate_over_rationals():
    element = PearlElement.wedge_of(RATIONAL, ("x",), 3, (0, 1, 2))
    c0 = element.contract(0)
    c1 = element.contract(1)
    one = LaurentPoly.one(RATIONAL, ("x",))
    assert c0.component((1, 2)) == one
    assert c1.component((0, 2)) == -one
    # contract twice: antisymmetry
    assert c0.contract(1).component((2,)) == -c1.contract(0).component((2,))


# ---------------------------------------------------------------------------
# potential plumbing


def test_potential_rebuild_over_the_rationals_keeps_multiplicities():
    pot = theta_potential()
    u_q = pot.poly_over(RATIONAL)
    assert u_q.terms[(1, 0, 0, 0)] == 1
    assert len(u_q.terms) == 5
    basis = theta_basis()
    cls = DiscClass((1, 0, 0, 0), (1, 0))
    doubled = Potential(GF2, basis, [(cls, 1), (cls, 1)])
    assert doubled.poly.is_zero  # cancels mod 2
    assert doubled.poly_over(RATIONAL).terms[(1, 0, 0, 0)] == 2  # but not over Q


def test_potential_validation():
    basis = theta_basis()
    with pytest.raises(ValueError):
        Potential(GF2, basis, [(DiscClass((1, 0, 0, 0), (1, 0)), 0)])
    with pytest.raises(VariableMismatch):
        Potential(GF2, basis, [(DiscClass((1, 0), (1, 0)), 1)])


def test_potential_json_roundtrip():
    pot = theta_potential()
    back = potential_from_json(potential_to_json(pot))
    assert back.poly == pot.poly
    assert back.provenance == pot.provenance
    assert back.basis == pot.basis


def test_potential_json_accepts_bare_term_lists():
    data = potential_to_json(theta_potential())
    data["terms"] = [[list(cls["coefficients"]), cls["sign"]] for cls in data.pop("classes")]
    back = potential_from_json(data)
    assert back.poly == theta_potential().poly
    with pytest.raises(KeyError):
        del data["terms"]
        potential_from_json(data)


def test_module_level_toric_differential_helper():
    pot = theta_potential()
    assert toric_differential(pot) == pot.toric_differential()


def class_by_class_poly(potential, ring):
    """`Potential.poly_over` as it was: one monomial per class, added to the
    running total through the public `+`."""
    total = LaurentPoly.zero(ring, potential.variables)
    for cls, sign in potential.provenance:
        total = total + LaurentPoly.monomial(ring, potential.variables, cls.coefficients, sign)
    return total


def assert_poly_over_matches(potential):
    for ring in (GF2, RATIONAL):
        got, want = potential.poly_over(ring), class_by_class_poly(potential, ring)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        for exps, coeff in got.terms.items():
            assert all(type(e) is int for e in exps) and coeff != 0
            assert type(coeff) is (Fraction if ring is RATIONAL else int)
        again = LaurentPoly(ring, got.variables, got.terms)
        assert list(again.terms.items()) == list(got.terms.items())


@given(st.lists(st.tuples(st.sampled_from(((1, 0, 0), (0, 1, -1), (-1, 0, 2), (1, 1, 1))),
                          st.sampled_from((1, -1, 2, -3))), min_size=0, max_size=8))
def test_poly_over_matches_the_class_by_class_sum(pairs):
    basis = plain_basis(3)
    provenance = [(DiscClass(c, basis.boundary_of(c)), sign) for c, sign in pairs]
    assert_poly_over_matches(Potential(GF2, basis, provenance))


def test_poly_over_matches_the_class_by_class_sum_seeded():
    rng = random.Random(5150)
    for _ in range(200):
        basis = plain_basis(3)
        provenance = []
        for _ in range(rng.randint(1, 10)):
            coeffs = tuple(rng.randint(-1, 1) for _ in range(3))
            provenance.append((DiscClass(coeffs, basis.boundary_of(coeffs)),
                               rng.choice((1, -1, 2, -2, 3))))
        assert_poly_over_matches(Potential(GF2, basis, provenance))
    assert_poly_over_matches(theta_potential())


def test_poly_over_puts_a_cancelled_and_returning_class_last():
    basis = plain_basis(2)
    a, b = DiscClass((1, 0), (1, 0)), DiscClass((0, 1), (0, 1))
    pot = Potential(RATIONAL, basis, [(a, 1), (b, 2), (a, -1), (a, 3)])
    assert list(pot.poly.terms.items()) == [((0, 1), 2), ((1, 0), 3)]
    assert list(pot.poly_over(GF2).terms.items()) == [((1, 0), 1)]  # b's 2 is 0 mod 2
    assert_poly_over_matches(pot)
    # a cancels and comes back last, while b's second class sums in place
    c = DiscClass((1, 1), (1, 1))
    pot = Potential(RATIONAL, basis, [(a, 1), (b, 1), (c, 1), (a, -1), (b, 2), (a, 5)])
    assert list(pot.poly.terms.items()) == [((0, 1), 3), ((1, 1), 1), ((1, 0), 5)]
    assert list(pot.poly_over(GF2).terms.items()) == [((0, 1), 1), ((1, 1), 1), ((1, 0), 1)]
    assert_poly_over_matches(pot)


# ---------------------------------------------------------------------------
# one summing rule, against the summing loops it replaced


def _ref_sum(a, b):
    """The old `__add__` on component dicts: b's components added into a
    copy of a's, then the zero sums dropped."""
    comps = dict(a)
    for subset, poly in b.items():
        comps[subset] = comps[subset] + poly if subset in comps else poly
    return {k: v for k, v in comps.items() if not v.is_zero}


def _ref_contract(alpha, k):
    """The old `contract`, which summed the contracted components as if two
    of them could meet."""
    comps = {}
    for subset, poly in alpha.components.items():
        if k in subset:
            pos = subset.index(k)
            rest = subset[:pos] + subset[pos + 1 :]
            signed = poly if pos % 2 == 0 else -poly
            comps[rest] = comps[rest] + signed if rest in comps else signed
    return {k: v for k, v in comps.items() if not v.is_zero}


def _ref_d2_from_vs(alpha, vs):
    """The old differential: k successive sums of v_k . contract_k(alpha).
    Returns the components and the number of components that cancelled at
    one step and came back at a later one."""
    comps, gone, returned = {}, set(), 0
    for k, v in enumerate(vs):
        scaled = {s: c * v for s, c in _ref_contract(alpha, k).items() if not (c * v).is_zero}
        total = _ref_sum(comps, scaled)
        returned += len(gone & set(total))
        gone = (gone | set(comps)) - set(total)
        comps = total
    return comps, returned


def test_d2_from_vs_matches_the_old_step_by_step_sum():
    """Coefficients drawn from three small polynomials and their negatives,
    on many pairs of indices, so that components cancel, over GF2 and over Q,
    and some come back at a later k; the one-pass sum must give the same
    components in the same order, and so must contract and `+`."""
    rng = random.Random(3707)
    variables = ("x", "y")
    for ring in (GF2, RATIONAL):
        pool = [LaurentPoly(ring, variables, terms)
                for terms in ({(0, 0): 1}, {(1, 0): 1}, {(1, 0): 1, (0, 1): 1})]
        returned = 0
        for trial in range(200):
            n = rng.randint(2, 5)
            comps = {}
            for _ in range(3 * n):
                subset = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
                comps[subset] = rng.choice(pool[:2]).times_monomial((0, 0), rng.choice((1, -1)))
            alpha = PearlElement(ring, variables, n, comps)
            vs = [rng.choice(pool[: 2 + trial % 2]).times_monomial((0, 0), rng.choice((1, -1, 0)))
                  for _ in range(n)]
            want, back = _ref_d2_from_vs(alpha, vs)
            returned += back
            got = pearl_d2_from_vs(alpha, vs)
            assert list(got.components.items()) == list(want.items())
            for k in range(n):
                assert list(alpha.contract(k).components.items()) == list(
                    _ref_contract(alpha, k).items()
                )
            for beta in (alpha.scaled_by(-pool[0]), got):
                want = _ref_sum(alpha.components, beta.components)
                assert list((alpha + beta).components.items()) == list(want.items())
        assert returned >= 5, (ring, returned)


def test_constructor_sums_repeated_index_tuples_by_the_one_rule():
    """Two keys that name one index tuple are summed; a component that
    cancels is dropped, and one that comes back after cancelling goes last."""
    x = ("x",)
    one = LaurentPoly.one(RATIONAL, x)
    comps = {(0,): one, range(0, 1): -one, (1,): one, (2,): one.times_monomial((1,)),
             range(2, 3): one}
    element = PearlElement(RATIONAL, x, 3, comps)
    assert list(element.components.items()) == [
        ((1,), one), ((2,), one + one.times_monomial((1,)))
    ]
    element = PearlElement(RATIONAL, x, 3, {(0,): one, range(0, 1): -one, (1,): one,
                                            frozenset({0}): one})
    assert list(element.components) == [(1,), (0,)]


def test_scaling_by_zero_is_zero_and_still_checks_the_ring():
    x = ("x",)
    alpha = PearlElement.generator(GF2, x, 2, 0) + PearlElement.generator(GF2, x, 2, 1)
    assert alpha.scaled_by(LaurentPoly.zero(GF2, x)).is_zero
    assert alpha.scaled_by(LaurentPoly.constant(GF2, x, 2)).is_zero  # 2 is 0 in GF2
    with pytest.raises(VariableMismatch):
        alpha.scaled_by(LaurentPoly.zero(GF2, ("y",)))


def _old_summed(pairs):
    """The pearl summing loop that `laurent._accumulate` replaced, kept as a
    reference: a component already present gets the sum and is deleted if
    the sum is zero; a new one goes at the end, unless it is zero."""
    comps = {}
    for subset, poly in pairs:
        if subset in comps:
            poly = comps[subset] + poly
        if poly.is_zero:
            comps.pop(subset, None)
        else:
            comps[subset] = poly
    return comps


class _SameTuple:
    """A dict key of its own that reads as `subset`, so that one components
    dict can name an index tuple many times, in the order of a sequence."""

    def __init__(self, subset):
        self.subset = subset

    def __iter__(self):
        return iter(self.subset)


def _cancels(pairs):
    """How many times a component of the in-order sum cancels, and how many
    times one that cancelled comes back."""
    comps, gone, cancelled, back = {}, set(), 0, 0
    for subset, poly in pairs:
        if subset in comps:
            total = comps.pop(subset) + poly
            if total.is_zero:
                cancelled += 1
                gone.add(subset)
            else:
                comps[subset] = total
        elif not poly.is_zero:
            back += subset in gone
            gone.discard(subset)
            comps[subset] = poly
    return cancelled, back


def test_pearl_sums_match_the_old_summing_loop():
    """The constructor, `+` and `pearl_d2_from_vs` give the components of the
    old `_summed`, in the same order, on random sequences over GF2 and Q
    drawn from few index tuples and few coefficients, so that components
    cancel and (in the constructor and the differential) come back."""
    rng = random.Random(3901)
    variables = ("x", "y")
    for ring in (GF2, RATIONAL):
        base = [LaurentPoly(ring, variables, terms)
                for terms in ({(0, 0): 1}, {(1, 0): 1}, {(1, 0): 1, (0, -1): 1})]
        pool = base + [-p for p in base] + [LaurentPoly.zero(ring, variables)]
        units = (base[0], -base[0])
        seen = {"constructor": [0, 0], "+": [0, 0], "d2": [0, 0]}
        for _ in range(300):
            n = rng.randint(1, 4)
            subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
            seq = [(rng.choice(subsets[:3]), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
            alpha = PearlElement(ring, variables, n, {_SameTuple(s): p for s, p in seq})
            assert list(alpha.components.items()) == list(_old_summed(seq).items())

            beta = PearlElement(ring, variables, n, dict(seq[::2]))
            beta += alpha.scaled_by(rng.choice(units))
            plus = [*alpha.components.items(), *beta.components.items()]
            assert list((alpha + beta).components.items()) == list(_old_summed(plus).items())

            # every index tuple with a unit coefficient, so that each one is
            # reached from several k
            gamma = PearlElement(ring, variables, n, {s: rng.choice(units) for s in subsets})
            vs = [rng.choice(units + (base[1],)) for _ in range(n)]
            sums = [("constructor", seq), ("+", plus)]
            for element in (alpha, gamma):
                pairs = [item for k, v in enumerate(vs)
                         for item in element.contract(k).scaled_by(v).components.items()]
                got = pearl_d2_from_vs(element, vs)
                assert list(got.components.items()) == list(_old_summed(pairs).items())
                sums.append(("d2", pairs))
            for name, pairs in sums:
                seen[name] = [a + b for a, b in zip(seen[name], _cancels(pairs))]
        # each side of `+` holds a component once, so in `+` none comes back
        assert min(*seen["constructor"], *seen["d2"], seen["+"][0]) >= 5, (ring, seen)
