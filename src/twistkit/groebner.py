"""Buchberger Groebner bases over GF(2) and Q, with cofactor tracking.

Operates on LaurentPoly values whose exponents are all nonnegative (ordinary
polynomials).  The monomial order is degree-reverse-lexicographic on the
polynomial's variable tuple, so callers control the order by variable
placement (the localization variable goes last).  The reduced basis returned
is the canonical one for that order.

One Buchberger loop builds the basis.  Its S-pairs wait in a heap keyed by
the grevlex key of their lcm, with ties broken by the pair's indices, beside
a set of the pending pairs that the chain criterion consults (the heap-based
queue of Gebauer and Moeller, without the sugar strategy, which would change
the cofactors).  Coprime leading monomials and the chain criterion skip a
pair; a surviving S-polynomial is reduced by the first basis element, in
basis order, whose leading monomial divides its leading term.  Inside the
loop polynomials and cofactor vectors are plain `{exponents: coefficient}`
dicts reduced in place, each basis element's leading monomial is kept, and
the grevlex key of each exponent tuple is computed once per call; the
results become LaurentPoly values only at the end, through the trusted
`LaurentPoly._new`: every dict is built here from validated inputs, with
int exponent tuples and nonzero coefficients of the ring.  `normal_form` is
the same reduction behind a LaurentPoly interface.

In one variable the reduced basis of a nonzero ideal is its monic gcd
(Becker and Weispfenning, Groebner Bases, 1993), so `univariate_gcd` and
`univariate_extended_gcd` are this same loop, the latter with cofactors.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, sub

from .errors import UnsupportedRing, VariableMismatch
from .laurent import GF2, LaurentPoly


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_term(poly: LaurentPoly):
    if poly.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    exps = max(poly.terms, key=grevlex_key)
    return exps, poly.terms[exps]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
    """Dict-term arithmetic for one computation over one coefficient ring.

    A polynomial is a `{exps: coeff}` dict of nonzero coefficients.  A
    divisor is a tuple `(lm, lc, poly, cofs)`: leading monomial, leading
    coefficient, polynomial and cofactor vector (a list of dicts, or None).
    """

    def __init__(self, ring):
        self.ring = ring
        self.gf2 = ring is GF2
        self.keys = _Keys()

    def lead(self, poly):
        return max(poly, key=self.keys.__getitem__)

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

    def s_combination(self, a, ua, b, ub):
        """x^ua * a - x^ub * b, as a new dict."""
        out = {tuple(map(add, e, ua)): c for e, c in a.items()}
        self.sub_shifted(out, b, ub, self.ring.one)
        return out

    def monic(self, poly, cofs):
        """Scale `poly` (and its cofactor vector) by the inverse of its
        leading coefficient, in place."""
        lc = poly[self.lead(poly)]
        if lc == 1:
            return
        inv = self.ring.inv(lc)
        for part in [poly] + (cofs or []):
            for e in part:
                part[e] *= inv

    def reduce(self, work, divisors, cofs):
        """Full remainder of `work` modulo `divisors`, reducing each leading
        term by the first divisor whose leading monomial divides it.  `work`
        is consumed; each step subtracts the same multiple of the divisor's
        cofactor vector from `cofs`."""
        ring = self.ring
        remainder = {}
        while work:
            exps = self.lead(work)
            coeff = work[exps]
            for lm, lc, poly, dcofs in divisors:
                if all(map(le, lm, exps)):
                    shift = tuple(map(sub, exps, lm))
                    q = coeff if lc == 1 else ring.mul(coeff, ring.inv(lc))
                    self.sub_shifted(work, poly, shift, q)
                    if cofs is not None:
                        for c, dc in zip(cofs, dcofs):
                            self.sub_shifted(c, dc, shift, q)
                    break
            else:
                remainder[exps] = work.pop(exps)
        return remainder


def normal_form(poly: LaurentPoly, basis, cof=None, basis_cofs=None):
    """Full remainder of `poly` modulo `basis`; optionally tracks cofactors.

    If cofactors are tracked, the invariant `tracked_total = sum(cof_i * gen_i)`
    is preserved, where the generators are those the basis cofactors refer to.
    Zero elements of `basis` divide nothing and are skipped.
    """
    ring, variables = poly.ring, poly.variables
    w = _Working(ring)
    divisors = []
    for j, g in enumerate(basis):
        if g.ring is not ring or g.variables != variables:
            raise VariableMismatch("normal_form: basis element lives in another ring")
        if g.is_zero:
            continue
        lm = w.lead(g.terms)
        dcofs = None if cof is None else [dict(c.terms) for c in basis_cofs[j]]
        divisors.append((lm, g.terms[lm], g.terms, dcofs))
    work_cofs = None if cof is None else [dict(c.terms) for c in cof]
    remainder = w.reduce(dict(poly.terms), divisors, work_cofs)
    if cof is not None:
        cof[:] = [LaurentPoly._new(ring, variables, c) for c in work_cofs]
    return LaurentPoly._new(ring, variables, remainder), cof


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

    w = _Working(ring)
    keys = w.keys
    one = (0,) * len(variables)
    basis = []  # divisors (lm, 1, poly, cofs), every poly monic
    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        poly = dict(g.terms)
        cofs = None
        if with_cofactors:
            cofs = [{one: ring.one} if j == i else {} for j in range(len(gens))]
        w.monic(poly, cofs)
        basis.append((w.lead(poly), ring.one, poly, cofs))

    lms = [b[0] for b in basis]
    pending = set()
    queue = []

    def push(i, j):
        # (key, i, j) is unique, so the lcm riding along is never compared
        lcm = _exps_lcm(lms[i], lms[j])
        pending.add((i, j))
        heapq.heappush(queue, (keys[lcm], i, j, lcm))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        pending.discard((i, j))
        lm_i, lm_j = lms[i], lms[j]
        if lcm_ij == tuple(map(add, lm_i, lm_j)):
            continue  # coprime leading monomials: S-poly reduces to zero
        if any(
            all(map(le, lm_k, lcm_ij))
            and k != i
            and k != j
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lm_k in enumerate(lms)
        ):
            continue  # chain criterion
        _, _, f, cf = basis[i]
        _, _, g, cg = basis[j]
        uf, ug = _exps_sub(lcm_ij, lm_i), _exps_sub(lcm_ij, lm_j)
        s = w.s_combination(f, uf, g, ug)
        if not s:
            continue
        cofs = None
        if with_cofactors:
            cofs = [w.s_combination(a, uf, b, ug) for a, b in zip(cf, cg)]
        r = w.reduce(s, basis, cofs)
        if not r:
            continue
        w.monic(r, cofs)
        basis.append((w.lead(r), ring.one, r, cofs))
        lms.append(basis[-1][0])
        new = len(basis) - 1
        for k in range(new):
            push(k, new)

    reduced = _autoreduce(w, basis)
    out = [LaurentPoly._new(ring, variables, poly) for _, _, poly, _ in reduced]
    if not with_cofactors:
        return out
    return out, [[LaurentPoly._new(ring, variables, c) for c in cofs] for _, _, _, cofs in reduced]


def _autoreduce(w, basis):
    keys = w.keys
    # drop elements whose leading monomial another element's divides
    order = sorted(range(len(basis)), key=lambda i: keys[basis[i][0]])
    minimal = []
    for i in order:
        if any(_divides(m[0], basis[i][0]) for m in minimal):
            continue
        minimal.append(basis[i])

    reduced = []
    for i, (lm, lc, poly, cofs) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        work_cofs = None if cofs is None else [dict(c) for c in cofs]
        r = w.reduce(dict(poly), others, work_cofs)
        w.monic(r, work_cofs)
        reduced.append((w.lead(r), lc, r, work_cofs))
    reduced.sort(key=lambda b: keys[b[0]], reverse=True)
    return reduced


def contains_constant(basis) -> bool:
    """True iff the reduced basis is {1} (the ideal is the whole ring)."""
    return len(basis) == 1 and not basis[0].is_zero and set(basis[0].terms) == {
        (0,) * len(basis[0].variables)
    }


def is_zero_dimensional(basis) -> bool:
    """True iff the quotient by the ideal is finite-dimensional: for every
    variable some leading monomial is a pure power of it (or the ideal is
    the whole ring).  The zero ideal's basis is empty and its quotient, the
    whole polynomial ring, is infinite-dimensional."""
    if not basis:
        return False
    if contains_constant(basis):
        return True
    nvars = len(basis[0].variables)
    for i in range(nvars):
        if not any(
            all(e == 0 for j, e in enumerate(leading_term(g)[0]) if j != i)
            and leading_term(g)[0][i] > 0
            for g in basis
        ):
            return False
    return True


def standard_monomials(basis):
    """The monomials not divisible by any leading monomial, for a
    zero-dimensional ideal; None if the quotient is infinite-dimensional."""
    if contains_constant(basis):
        return []
    if not is_zero_dimensional(basis):
        return None
    nvars = len(basis[0].variables)
    lms = [leading_term(g)[0] for g in basis]
    degrees = []
    for i in range(nvars):
        pure = [
            lm[i]
            for lm in lms
            if lm[i] > 0 and all(e == 0 for j, e in enumerate(lm) if j != i)
        ]
        degrees.append(min(pure))
    out = []
    for exps in itertools.product(*(range(d) for d in degrees)):
        if not any(_divides(lm, exps) for lm in lms):
            out.append(exps)
    return sorted(out)


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
