#!/usr/bin/env python3
"""Cross-check twistkit's reduced Groebner bases against sympy.

For seeded random ideals over GF(2) and Q in one, two or three variables,
the reduced grevlex basis from `twistkit.groebner.groebner_basis` must equal
the one from `sympy.groebner(..., order='grevlex')`.  In one variable that
basis is the monic gcd, whose first element `univariate_extended_gcd`
returns.  Both sides are compared as monic sympy `Poly` objects over the same
domain, since expression strings differ over GF(2) (sympy prints its
coefficients in symmetric form).

For each ideal a random polynomial is then reduced modulo the basis, by
`normal_form` and by `sympy.reduced(..., order='grevlex')`.  Modulo a
reduced basis the remainder is unique, so the two must be equal; this checks
`normal_form` by division code that is not twistkit's.

Over both rings the cofactors are checked too, without sympy:
`groebner_basis(gens, with_cofactors=True)` must return the same basis, and
basis_i == sum_j cofactors_ij * gens_j in LaurentPoly arithmetic.  Cofactors
are not unique, so this identity is all that is asked of them.

Every ideal is then recomputed with its variables renamed, with and without
cofactors.  `groebner_basis` memoizes by variable position, so these runs
are memo hits, and their terms must be those of the first runs, in the same
order.  Prints each mismatch and exits 1 if there is one.  A development
check: it needs sympy, which the package itself never imports.

    PYTHONPATH=src python3 scripts/groebner_crosscheck.py --ideals 400 --seed 1
"""

import argparse
import random
import sys
from fractions import Fraction

import sympy

from twistkit.groebner import groebner_basis, normal_form
from twistkit.laurent import GF2, RATIONAL, LaurentPoly

DOMAINS = {GF2: sympy.GF(2), RATIONAL: sympy.QQ}
RENAMED = ("u", "v", "w")


def random_ideal(rng):
    ring = rng.choice((GF2, RATIONAL))
    variables = ("x", "y", "z")[: rng.randint(1, 3)]
    max_deg = (6, 3, 2)[len(variables) - 1]
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, max_deg) for _ in variables)
            terms[exps] = 1 if ring is GF2 else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        gens.append(LaurentPoly(ring, variables, terms))
    return gens


def random_dividend(rng, ring, variables):
    max_deg = (8, 4, 3)[len(variables) - 1]
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = 1 if ring is GF2 else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LaurentPoly(ring, variables, terms)


def to_sympy(poly, symbols, domain):
    terms = {exps: sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
             for exps, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *symbols, domain=domain)


def cofactor_failures(gens, basis):
    """Why the cofactor run disagrees with `basis` or with its own identity
    basis_i == sum_j cofactors_ij * gens_j; empty if it does not."""
    ring, variables = gens[0].ring, gens[0].variables
    tracked, cofactors = groebner_basis(gens, with_cofactors=True)
    if tracked != basis:
        return [f"basis with cofactors {list(map(str, tracked))} differs"]
    failures = []
    for element, vector in zip(tracked, cofactors):
        total = LaurentPoly.zero(ring, variables)
        for c, g in zip(vector, gens):
            total = total + c * g
        if total != element:
            failures.append(f"sum of cofactors times generators is {total}, not {element}")
    return failures


def renamed_failures(gens):
    """Why the bases and cofactors of `gens` with renamed variables differ
    from those of `gens` in anything but the names; empty if they do not."""
    names = RENAMED[: len(gens[0].variables)]
    renamed = [LaurentPoly(g.ring, names, g.terms) for g in gens]
    failures = []
    for with_cofactors in (False, True):
        first = groebner_basis(gens, with_cofactors=with_cofactors)
        again = groebner_basis(renamed, with_cofactors=with_cofactors)
        if with_cofactors:  # compare the cofactors after the basis
            first = [*first[0], *(c for vector in first[1] for c in vector)]
            again = [*again[0], *(c for vector in again[1] for c in vector)]
        if [list(p.terms.items()) for p in first] != [list(q.terms.items()) for q in again] or any(
            q.variables != names for q in again
        ):
            failures.append(f"renamed to {names}, with_cofactors={with_cofactors}: "
                            f"{list(map(str, again))} differs")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ideals", type=int, default=400, help="number of random ideals")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    # a stream of its own, so that a seed draws the same ideals as before
    dividends = random.Random(f"dividends {args.seed}")
    mismatches = compared = renamed_mismatches = remainder_mismatches = 0
    cofactor_checked = {GF2: 0, RATIONAL: 0}
    cofactor_mismatches = {GF2: 0, RATIONAL: 0}
    while compared < args.ideals:
        gens = random_ideal(rng)
        if all(g.is_zero for g in gens):
            continue
        compared += 1
        ring, variables = gens[0].ring, gens[0].variables
        domain = DOMAINS[ring]
        symbols = sympy.symbols(variables)
        basis = groebner_basis(gens)
        cofactor_checked[ring] += 1
        failures = cofactor_failures(gens, basis)
        if failures:
            cofactor_mismatches[ring] += 1
            print(f"cofactor mismatch over {ring} for ({', '.join(map(str, gens))}):")
            for failure in failures:
                print(f"  {failure}")
        failures = renamed_failures(gens)
        if failures:
            renamed_mismatches += 1
            print(f"renamed mismatch over {ring} for ({', '.join(map(str, gens))}):")
            for failure in failures:
                print(f"  {failure}")
        ours = [to_sympy(b, symbols, domain).monic() for b in basis]
        theirs = [
            sympy.Poly(p, *symbols, domain=domain).monic()
            for p in sympy.groebner(
                [to_sympy(g, symbols, domain) for g in gens if not g.is_zero],
                *symbols, order="grevlex", domain=domain,
            ).exprs
        ]
        if len(ours) != len(theirs) or any(p not in theirs for p in ours):
            mismatches += 1
            print(f"mismatch over {ring} for ({', '.join(map(str, gens))}):")
            print(f"  twistkit: {[p.as_expr() for p in ours]}")
            print(f"  sympy:    {[p.as_expr() for p in theirs]}")
        dividend = random_dividend(dividends, ring, variables)
        remainder, _ = normal_form(dividend, basis)
        _, their_remainder = sympy.reduced(
            to_sympy(dividend, symbols, domain).as_expr(), [p.as_expr() for p in theirs],
            *symbols, order="grevlex", domain=domain,
        )
        their_remainder = sympy.Poly(their_remainder, *symbols, domain=domain)
        if to_sympy(remainder, symbols, domain) != their_remainder:
            remainder_mismatches += 1
            print(f"remainder mismatch over {ring} for {dividend} modulo "
                  f"({', '.join(map(str, basis))}):")
            print(f"  twistkit: {remainder}")
            print(f"  sympy:    {their_remainder.as_expr()}")
    print(f"{compared} ideals compared, {mismatches} mismatches")
    print(f"{compared} remainders compared, {remainder_mismatches} mismatches")
    for ring in (GF2, RATIONAL):
        print(f"{cofactor_checked[ring]} ideals over {ring} cofactor-checked, "
              f"{cofactor_mismatches[ring]} mismatches")
    print(f"{compared} ideals recomputed under renamed variables, {renamed_mismatches} mismatches")
    bad_cofactors = sum(cofactor_mismatches.values())
    return 1 if mismatches or bad_cofactors or renamed_mismatches or remainder_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
