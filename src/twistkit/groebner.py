"""Buchberger Groebner bases over GF(2) and Q, with cofactor tracking.

Operates on LaurentPoly values whose exponents are all nonnegative (ordinary
polynomials).  The monomial order is degree-reverse-lexicographic on the
polynomial's variable tuple, so callers control the order by variable
placement (the localization variable goes last).  The reduced basis returned
is the canonical one for that order.

One Buchberger loop builds the basis.  Buchberger's criteria are applied
when an element h enters the basis, generators included, by Gebauer and
Moeller's update (J. Symbolic Computation 6, 1988; Becker and Weispfenning,
Groebner Bases, 1993, section 5.5), so most pairs never reach the queue:
  - the new pairs (k, h) are grouped by their lcm; a group goes if another
    group's lcm strictly divides its lcm (criterion M), or if some pair in
    it has coprime leading monomials (criterion F); otherwise the group
    keeps one pair, the one with the least k;
  - a queued pair (i, j) goes if lm(h) divides lcm(i, j) and both lcm(i, h)
    and lcm(j, h) differ from it (criterion B);
  - an element whose leading monomial lm(h) divides takes no new pairs, but
    stays in the basis for reduction and keeps its queued pairs.
The pairs left wait in a heap keyed by the grevlex key of their lcm, with
ties broken by the pair's indices, beside a dict of the live ones; a heap
entry that criterion B dropped is skipped when it comes up.  The loop
reduces at most `PAIR_BUDGET` pairs and raises `CapExceeded` at the next.
An S-polynomial is reduced by the first basis element, in basis order,
whose leading monomial divides its leading term.  The loop ends at the
first constant element, and never starts when a generator is constant:
every later S-polynomial would reduce to zero.  The reduced basis is unique,
so the criteria decide only how fast it is found; the cofactors, which are
not unique, depend on which pairs are reduced.

Inside the loop every coefficient is an int, over both rings.  Over Q a
generator enters with its denominators cleared and its content removed, and
each working polynomial is a nonzero integer multiple of the rational one it
stands for, so reduction is fraction-free, as in Bareiss's elimination: a
step is `work <- a*work - b*x^u*divisor`, with `a = |lc|/g`, `b = +-coeff/g`
and g the gcd of the divisor's leading coefficient lc and the coefficient
being cancelled, and it scales the remainder accumulated so far by a too.
Cofactor vectors are int vectors over a positive int `den`, with
`den*poly == sum_j cofs_j*H_j`, where H_j is generator j with its
denominators cleared; two vectors combine over the lcm of their dens.  Each
new basis element is divided by its content, with a positive leading
coefficient.  Over GF(2) every coefficient is 1 and nothing is scaled.
`Fraction` appears twice: denominators are cleared on the way in, and on the
way out the autoreduced basis is made monic with one `Fraction(c, lc)` per
coefficient and cofactors become `Fraction(v*D_j, den*lc)`, with D_j the
denominator cleared from generator j.  Every integer polynomial is a scalar
multiple of the one a loop in rationals would hold, so the two cancel the
same terms in the same order: bases and cofactors are the same rational
values, in the same term order.

Polynomials and cofactor vectors are plain `{exponents: int}` dicts reduced
in place, each basis element's leading monomial is kept, and the grevlex key
of each exponent tuple is computed once per call; the results become
LaurentPoly values only at the end, through the trusted `LaurentPoly._new`:
every dict is built here from validated inputs, with int exponent tuples and
nonzero coefficients of the ring.  `normal_form` is the same reduction
behind a LaurentPoly interface: it clears the denominators of its inputs and
divides its results by the scale the reduction accumulated.

`groebner_basis` memoizes by position.  The loop and grevlex read exponent
tuples and coefficients, never a variable's name, so the same terms in other
variables (a second theta factor, say) give the same basis and cofactors,
term for term.  After the ring, variable and exponent checks, which run on
every call, the key is the ring, the number of variables, the cofactor flag
and each generator's `terms.items()` in order (the output's term order
follows the input's).  The memo, an `lru_cache` of `BASIS_MEMO_SIZE`
entries, stores item tuples; each call builds fresh LaurentPoly values in
its own variables from them, so a caller that mutates one cannot change a
later hit.

In one variable the reduced basis of a nonzero ideal is its monic gcd
(Becker and Weispfenning, Groebner Bases, 1993), so `univariate_gcd` and
`univariate_extended_gcd` are this same loop, the latter with cofactors.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, neg, sub

from .errors import CapExceeded, UnsupportedRing, VariableMismatch
from .laurent import GF2, LaurentPoly


def grevlex_key(exps):
    return (sum(exps), tuple(map(neg, reversed(exps))))


def leading_term(poly: LaurentPoly):
    if poly.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    exps = max(poly.terms, key=grevlex_key)
    return exps, poly.terms[exps]


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _exps_sub(a, b):
    return tuple(map(sub, a, b))


def _exps_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])


def _require_polynomial(poly: LaurentPoly):
    for exps in poly.terms:
        if any(e < 0 for e in exps):
            raise ValueError("groebner machinery needs nonnegative exponents")


class _Keys(dict):
    """grevlex keys of exponent tuples, each computed on first lookup."""

    def __missing__(self, exps):
        key = self[exps] = grevlex_key(exps)
        return key


class _Working:
    """Integer dict-term arithmetic for one computation over GF2 or Q.

    A polynomial is a `{exps: coeff}` dict of nonzero ints.  An element is a
    tuple `(lm, lc, poly, cofs, den)`: leading monomial, leading coefficient,
    polynomial, cofactor vector (a list of dicts, or None) and the positive
    int the cofactors are over.  Over GF2, lc and den are 1.
    """

    def __init__(self, ring):
        self.gf2 = ring is GF2
        self.keys = _Keys()

    def lead(self, poly):
        return max(poly, key=self.keys.__getitem__)

    def clear(self, terms):
        """(d, d * terms) for the least d > 0 that makes every coefficient an int."""
        if self.gf2:
            return 1, dict(terms)
        d = lcm(*[c.denominator for c in terms.values()])
        return d, {e: c.numerator * (d // c.denominator) for e, c in terms.items()}

    def clear_vector(self, vector, scale):
        """(ints, den): int dicts and a den > 0 with ints / den == scale * vector."""
        if self.gf2:
            return [dict(v.terms) for v in vector], 1
        den = lcm(*[c.denominator for v in vector for c in v.terms.values()])
        ints = [
            {e: c.numerator * scale * (den // c.denominator) for e, c in v.terms.items()}
            for v in vector
        ]
        return ints, den

    def rational(self, poly, div, mul=1):
        """The ring's coefficients of mul * poly / div (div and mul are 1 over GF2)."""
        if self.gf2:
            return poly
        return {e: Fraction(c * mul, div) for e, c in poly.items()}

    def sub_shifted(self, dst, src, shift, q):
        """dst -= q * x^shift * src, in place."""
        if self.gf2:  # every nonzero coefficient, q included, is 1
            for e in src:
                m = tuple(map(add, e, shift))
                if m in dst:
                    del dst[m]
                else:
                    dst[m] = 1
            return
        for e, c in src.items():
            m = tuple(map(add, e, shift))
            v = dst.get(m)
            if v is None:
                dst[m] = -(c * q)
            else:
                v -= c * q
                if v:
                    dst[m] = v
                else:
                    del dst[m]

    def combination(self, a, p, up, b, q, uq):
        """a * x^up * p - b * x^uq * q, as a new dict."""
        out = {tuple(map(add, e, up)): c * a for e, c in p.items()}
        self.sub_shifted(out, q, uq, b)
        return out

    def element(self, poly, cofs, den):
        """The element of `poly` (consumed) with cofactors `cofs` over `den`.
        Over Q the polynomial is divided by its content, signed so that its
        leading coefficient is positive, and the cofactors and den by what
        they have in common."""
        lm = self.lead(poly)
        if self.gf2:
            return lm, 1, poly, cofs, den
        content = gcd(*poly.values())
        if poly[lm] < 0:
            content = -content
        if content != 1:
            for e in poly:
                poly[e] //= content
        if cofs is not None:
            if content < 0:
                for c in cofs:
                    for e in c:
                        c[e] = -c[e]
            den *= abs(content)
            g = gcd(den, *[v for c in cofs for v in c.values()])
            if g != 1:
                den //= g
                for c in cofs:
                    for e in c:
                        c[e] //= g
        return lm, poly[lm], poly, cofs, den

    def reduce(self, work, divisors, cofs, den):
        """Full remainder of `work` modulo the elements `divisors`, reducing
        each leading term by the first divisor whose leading monomial
        divides it.  `work` is consumed; its cofactor vector `cofs` over
        `den` takes the same steps.  Returns (remainder, den, scale): the
        remainder is `scale` times the remainder in rationals, and the
        cofactors over the returned den are scaled alike."""
        lead, sub_shifted = self.lead, self.sub_shifted
        remainder = {}
        scale = 1
        while work:
            exps = lead(work)
            coeff = work[exps]
            for lm, lc, poly, dcofs, dden in divisors:
                if all(map(le, lm, exps)):
                    shift = tuple(map(sub, exps, lm))
                    a = 1
                    if lc != 1:  # never over GF2
                        g = gcd(coeff, lc)
                        a, coeff = lc // g, coeff // g
                        if a < 0:
                            a, coeff = -a, -coeff
                        if a != 1:
                            scale *= a
                            for part in (work, remainder):
                                for e in part:
                                    part[e] *= a
                    sub_shifted(work, poly, shift, coeff)
                    if cofs is not None:
                        common = den if den == dden else lcm(den, dden)
                        a *= common // den
                        den = common
                        for c, dc in zip(cofs, dcofs):
                            if a != 1:
                                for e in c:
                                    c[e] *= a
                            sub_shifted(c, dc, shift, coeff * (common // dden))
                    break
            else:
                remainder[exps] = work.pop(exps)
        return remainder, den, scale


def normal_form(poly: LaurentPoly, basis, cof=None, basis_cofs=None):
    """Full remainder of `poly` modulo `basis`; optionally tracks cofactors.

    If cofactors are tracked, the invariant `tracked_total = sum(cof_i * gen_i)`
    is preserved, where the generators are those the basis cofactors refer to.
    Zero elements of `basis` divide nothing and are skipped.
    """
    ring, variables = poly.ring, poly.variables
    if not ring.is_field:
        raise UnsupportedRing("normal forms need a field (GF2 or Rational)")
    w = _Working(ring)
    divisors = []
    for j, g in enumerate(basis):
        if g.ring is not ring or g.variables != variables:
            raise VariableMismatch("normal_form: basis element lives in another ring")
        if g.is_zero:
            continue
        d, terms = w.clear(g.terms)
        lm = w.lead(terms)
        dcofs, dden = (None, 1) if cof is None else w.clear_vector(basis_cofs[j], d)
        divisors.append((lm, terms[lm], terms, dcofs, dden))
    d, work = w.clear(poly.terms)
    work_cofs, den = (None, 1) if cof is None else w.clear_vector(cof, d)
    remainder, den, scale = w.reduce(work, divisors, work_cofs, den)
    if cof is not None:
        cof[:] = [LaurentPoly._new(ring, variables, w.rational(c, den * d * scale))
                  for c in work_cofs]
    return LaurentPoly._new(ring, variables, w.rational(remainder, d * scale)), cof


def groebner_basis(gens, with_cofactors=False):
    """Canonical reduced Groebner basis of the ideal generated by `gens`.

    Returns the basis, or (basis, cofactors) when tracking: cofactors[i] is a
    vector over the original gens with basis[i] == sum_j cofactors[i][j]*gens[j].
    """
    gens = [g for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    variables = gens[0].variables
    if not ring.is_field:
        raise UnsupportedRing("groebner bases need a field (GF2 or Rational)")
    for g in gens:
        if g.ring is not ring or g.variables != variables:
            raise VariableMismatch("generators live in different rings")
        _require_polynomial(g)

    basis, cofactors = _reduced_basis(
        ring, len(variables), with_cofactors, tuple(tuple(g.terms.items()) for g in gens)
    )

    def poly(items):
        return LaurentPoly._new(ring, variables, dict(items))

    out = [poly(b) for b in basis]
    if not with_cofactors:
        return out
    return out, [[poly(c) for c in vector] for vector in cofactors]


# The memo holds whole bases and cofactor vectors, so it is bounded for long
# sessions (`search_h0_hom` alone may try thousands of ideals); a pass of the
# dense random benchmark makes about 70 distinct calls, well under the bound.
BASIS_MEMO_SIZE = 256

# Most S-pairs one run of the Buchberger loop reduces; the next one raises
# `CapExceeded`.  A pair a criterion drops is not reduced and does not count.
# The largest runs measured reduce 1,266 pairs (the test suite), 55 (the
# benchmark's job lists), 12 (the presets), and 5,055 and 17,228 for the
# theta^2 H0 ideal in coordinates mixed by random unimodular matrices
# (seeds 3 and 4: about 8 s and 5 minutes on a 2-vCPU machine, Python 3.11).
PAIR_BUDGET = 20_000


@functools.lru_cache(maxsize=BASIS_MEMO_SIZE)
def _reduced_basis(ring, nvars, with_cofactors, gens):
    """The Buchberger loop on generators given as `(exponents, coefficient)`
    item tuples in `nvars` variables.  Returns (basis, cofactors) as nested
    tuples of such items, cofactors None unless tracked."""
    w = _Working(ring)
    keys = w.keys
    one = (0,) * nvars
    cleared = []  # D_j: gens[j] times D_j has int coefficients
    basis = []
    for i, g in enumerate(gens):
        d, poly = w.clear(dict(g))
        cleared.append(d)
        if not poly:
            continue
        cofs = None
        if with_cofactors:
            cofs = [{one: 1} if j == i else {} for j in range(len(gens))]
        basis.append(w.element(poly, cofs, 1))

    lms = [b[0] for b in basis]
    active = []  # the elements that still take new pairs
    live = {}  # (i, j) -> lcm of each pair still to be reduced
    queue = []  # (grevlex key of the lcm, i, j, lcm); entries not in `live` are dead

    def update(h):
        """Gebauer and Moeller's update for the element h just added."""
        lm_h = lms[h]
        # criterion B: a queued pair whose lcm lm(h) divides, and differs
        # from both of its lcms with h, is covered by its chain through h
        covered = [
            (i, j)
            for (i, j), lcm_ij in live.items()
            if all(map(le, lm_h, lcm_ij))
            and _exps_lcm(lms[i], lm_h) != lcm_ij
            and _exps_lcm(lms[j], lm_h) != lcm_ij
        ]
        for pair in covered:
            del live[pair]
        # the new pairs (k, h), one group per lcm: the group's first k, and
        # the lcms of the groups with a pair of coprime leading monomials
        first, coprime = {}, set()
        for k in active:
            lm_k = lms[k]
            lcm_kh = _exps_lcm(lm_k, lm_h)
            first.setdefault(lcm_kh, k)
            if not any(map(mul, lm_k, lm_h)):
                coprime.add(lcm_kh)
        # criterion M drops a group whose lcm another group's strictly
        # divides (such a divisor has lower degree, so comes first), and
        # criterion F a group with a coprime pair; a group left keeps one pair
        minimal = []
        for lcm_kh in sorted(first, key=sum):
            for m in minimal:
                if all(map(le, m, lcm_kh)):
                    break
            else:
                minimal.append(lcm_kh)
                if lcm_kh not in coprime:
                    k = first[lcm_kh]
                    live[k, h] = lcm_kh
                    # (key, k, h) is unique, so the lcm riding along is never compared
                    heapq.heappush(queue, (keys[lcm_kh], k, h, lcm_kh))
        # an element whose leading monomial lm(h) divides takes no new pair;
        # it stays in the basis for reduction and keeps its queued pairs
        active[:] = [k for k in active if not all(map(le, lm_h, lms[k]))]
        active.append(h)

    # once a constant is in the basis every S-polynomial reduces to zero, and
    # `_autoreduce` keeps that element alone, with its cofactors
    if one not in lms:
        for h in range(len(basis)):
            update(h)
    budget, taken = PAIR_BUDGET, 0
    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue  # dropped by criterion B after it was queued
        taken += 1
        if taken > budget:
            raise CapExceeded(
                f"groebner: the Buchberger loop exceeds the pair budget of {budget} S-pairs"
            )
        lm_i, lm_j = lms[i], lms[j]
        _, lc_f, f, cf, den_f = basis[i]
        _, lc_g, g, cg, den_g = basis[j]
        uf, ug = _exps_sub(lcm_ij, lm_i), _exps_sub(lcm_ij, lm_j)
        common = gcd(lc_f, lc_g)
        a, b = lc_g // common, lc_f // common
        s = w.combination(a, f, uf, b, g, ug)
        if not s:
            continue
        cofs, den = None, 1
        if with_cofactors:
            den = lcm(den_f, den_g)
            a, b = a * (den // den_f), b * (den // den_g)
            cofs = [w.combination(a, x, uf, b, y, ug) for x, y in zip(cf, cg)]
        r, den, _ = w.reduce(s, basis, cofs, den)
        if not r:
            continue
        basis.append(w.element(r, cofs, den))
        lms.append(basis[-1][0])
        if lms[-1] == one:
            break  # the ideal is the whole ring; see above
        update(len(basis) - 1)

    reduced = _autoreduce(w, basis)
    out = tuple(tuple(w.rational(poly, lc).items()) for _, lc, poly, _, _ in reduced)
    if not with_cofactors:
        return out, None
    return out, tuple(
        tuple(tuple(w.rational(c, den * lc, d).items()) for c, d in zip(cofs, cleared))
        for _, lc, _, cofs, den in reduced
    )


def _autoreduce(w, basis):
    """The reduced basis of the Groebner basis `basis`, as elements in
    descending order of leading monomial, each reduced by the others but
    not yet monic."""
    keys = w.keys
    # drop elements whose leading monomial another element's divides
    order = sorted(range(len(basis)), key=lambda i: keys[basis[i][0]])
    minimal = []
    for i in order:
        if any(_divides(m[0], basis[i][0]) for m in minimal):
            continue
        minimal.append(basis[i])

    reduced = []
    for i, (lm, _, poly, cofs, den) in enumerate(minimal):
        work_cofs = None if cofs is None else [dict(c) for c in cofs]
        # no other leading monomial divides lm, so lm stays the leading one.
        # Only the elements before i can divide a term: every term met while
        # reducing is at most lm, a leading monomial that divides a term is
        # at most that term, and `minimal` ascends, so a later element's
        # leading monomial exceeds every term and the first divisor among
        # all the others is always among the earlier ones
        r, den, _ = w.reduce(dict(poly), minimal[:i], work_cofs, den)
        reduced.append((lm, r[lm], r, work_cofs, den))
    reduced.sort(key=lambda b: keys[b[0]], reverse=True)
    return reduced


def contains_constant(basis) -> bool:
    """True iff the reduced basis is {1} (the ideal is the whole ring)."""
    return len(basis) == 1 and not basis[0].is_zero and set(basis[0].terms) == {
        (0,) * len(basis[0].variables)
    }


def _pure_power_degrees(lms, nvars):
    """For each variable the least degree of a leading monomial in `lms`
    that is a pure power of it; None if some variable has none."""
    degrees = []
    for i in range(nvars):
        pure = [
            lm[i]
            for lm in lms
            if lm[i] > 0 and all(e == 0 for j, e in enumerate(lm) if j != i)
        ]
        if not pure:
            return None
        degrees.append(min(pure))
    return degrees


def standard_monomials(basis):
    """The monomials not divisible by any leading monomial, for a
    zero-dimensional ideal; None if the quotient is infinite-dimensional."""
    if contains_constant(basis):
        return []
    if not basis:
        return None
    lms = [leading_term(g)[0] for g in basis]
    degrees = _pure_power_degrees(lms, len(basis[0].variables))
    if degrees is None:
        return None
    box = itertools.product(*(range(d) for d in degrees))
    return sorted(exps for exps in box if not any(_divides(lm, exps) for lm in lms))


# ---------------------------------------------------------------------------
# one variable


def _univariate_basis(polys, with_cofactors):
    """Reduced Groebner basis of the ideal of one-variable `polys`: [monic
    gcd], or [] for the zero ideal.  `groebner_basis` skips zero inputs and
    gives them zero cofactors."""
    polys = list(polys)
    for p in polys:
        if len(p.variables) != 1:
            raise VariableMismatch("univariate helper got a multivariate polynomial")
    if not polys:
        return ([], []) if with_cofactors else []
    return groebner_basis(polys, with_cofactors=with_cofactors)


def univariate_gcd(polys, ring, variables) -> LaurentPoly:
    """Monic gcd of univariate polynomials over a field (zero inputs skipped)."""
    basis = _univariate_basis(polys, with_cofactors=False)
    return basis[0] if basis else LaurentPoly.zero(ring, variables)


def univariate_extended_gcd(polys, ring, variables):
    """Monic gcd plus cofactors: gcd == sum(cofactor_i * poly_i).

    Zero inputs get zero cofactors.
    """
    basis, cofactors = _univariate_basis(polys, with_cofactors=True)
    if not basis:
        zero = LaurentPoly.zero(ring, variables)
        return zero, [zero] * len(polys)
    return basis[0], cofactors[0]
