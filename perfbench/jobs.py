"""Turn job specs into twistkit calls (worker side).

`build(spec)` returns `(call, plain)`: `call()` is the timed work and
`plain(result)` converts its result into JSON-able data for the checks,
outside the timed region.  Every call goes through a module attribute
(`discs.enumerate_candidate_classes`, ...) so that the traced run's wrappers
see it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from twistkit import certificates, cli, discs, forests, germs, laurent, pearl

GF2, RATIONAL = laurent.GF2, laurent.RATIONAL
RINGS = {"GF2": GF2, "Q": RATIONAL}


def table_of(spec):
    n = len(spec["mu"])
    boundary = spec.get("boundary_matrix") or [
        [int(j == c) for j in range(n)] for c in spec["carriers"]
    ]
    basis = discs.HomologyBasis(
        names=tuple(spec["names"]),
        boundary_matrix=tuple(tuple(r) for r in boundary),
        n_torus_rank=len(spec["carriers"]),
        ring_names=tuple(spec["ring"]),
    )
    rows = tuple((label, tuple(vec)) for label, vec in spec["rows"])
    return discs.ConstraintTable(basis, rows, tuple(spec["mu"]), 2)


def terms(poly):
    return sorted([list(e), str(c)] for e, c in poly.terms.items())


def poly_of(ring, variables, spec_terms):
    return laurent.LaurentPoly(ring, variables, {tuple(e): Fraction(c) for e, c in spec_terms})


def _potential(table, classes):
    provenance = [(discs.DiscClass(c, table.basis.boundary_of(c)), 1) for c in classes]
    return pearl.Potential(GF2, table.basis, provenance)


def _regularity_hom(table):
    names = table.basis.ring_names
    carriers = table.basis.boundary_indices
    zs = tuple(f"z{k + 1}" for k in range(len(carriers)))
    exponents = {names[j]: tuple(int(j == c) for c in carriers) for j in range(len(names))}
    return laurent.RingHom.from_monomials(RATIONAL, zs, exponents)


def _collapse_hom(table):
    """Half the Maslov index, onto a single variable t."""
    names = table.basis.ring_names
    return laurent.RingHom.from_monomials(
        GF2, ("t",), {name: (m // 2,) for name, m in zip(names, table.maslov_vector)}
    )


def build_classes(spec):
    table = table_of(spec["table"])
    call = lambda: discs.enumerate_candidate_classes(table)
    return call, lambda classes: [list(c.coefficients) for c in classes]


def build_unbounded(spec):
    table = table_of(spec["table"])

    def call():
        try:
            discs.enumerate_candidate_classes(table)
        except discs.UnboundedRegion as exc:
            return list(exc.ray)
        return None  # bounded: a wrong answer, caught by the check

    return call, lambda ray: ray


def build_pearl(spec):
    table = table_of(spec["table"])

    def call():
        pot = pearl.Potential(GF2, table.basis, [
            (discs.DiscClass(c, table.basis.boundary_of(c)), 1) for c in spec["classes"]
        ])
        vs = pearl.toric_differential(pot)
        n = len(vs)
        d2 = [
            pearl.pearl_d2(pearl.PearlElement.generator(GF2, pot.variables, n, k), pot)
            for k in range(n)
        ]
        top = pearl.PearlElement.wedge_of(GF2, pot.variables, n, range(n))
        d2d2 = pearl.pearl_d2(pearl.pearl_d2(top, pot), pot)
        return vs, d2, d2d2

    def plain(result):
        vs, d2, d2d2 = result
        return {
            "v": [terms(v) for v in vs],
            "d2_degrees": [e.degrees() for e in d2],
            "d2": [terms(e.component(())) for e in d2],
            "d2d2_components": len(d2d2.components),
        }

    return call, plain


def build_certify(spec):
    table = table_of(spec["table"])
    pot = _potential(table, spec["classes"])
    h0 = _collapse_hom(table) if spec["h0"] == "collapse" else None
    reg = _regularity_hom(table)
    call = lambda: certificates.certify_nondisplaceable(pot, h0_hom=h0, regularity_hom=reg)

    def plain(report):
        return {
            "token": report.token,
            "contains_one": report.h0.contains_one,
            "identity": report.h0.hom_is_identity,
            "method": report.h0.method,
            "regular": report.regularity.regular,
            "quotient_dimension": report.regularity.quotient_dimension,
        }

    return call, plain


def build_cli(spec):
    config = cli.RunConfig(command=spec["command"], params={"preset": "theta_s2xs2"}, format="json")
    call = lambda: cli.run(config)
    return call, lambda result: {"code": result[0], "payload": json.loads(result[1])}


def build_membership(spec):
    ring = RINGS[spec["ring"]]
    variables = tuple(f"x{i}" for i in range(spec["nvars"]))
    gens = [poly_of(ring, variables, g) for g in spec["gens"]]
    call = lambda: certificates.ideal_contains_one(gens)

    def plain(result):
        return {
            "contains_one": result.contains_one,
            "method": result.method,
            "cofactors": None if result.cofactors is None else [terms(c) for c in result.cofactors],
        }

    return call, plain


def build_regularity(spec):
    poly = poly_of(RATIONAL, ("x0", "x1"), spec["poly"])
    call = lambda: certificates.regular_sequence_check(poly)

    def plain(result):
        return {
            "regular": result.regular,
            "quotient_dimension": result.quotient_dimension,
            "zero_directions": list(result.zero_directions),
        }

    return call, plain


def planar(tree, memo):
    """The tree as `L` / `(child child ...)` text, each shared subtree
    object printed once."""
    text = memo.get(id(tree))
    if text is None:
        text = "(" + " ".join(planar(c, memo) for c in tree.children) + ")" if tree.children else "L"
        memo[id(tree)] = text
    return text


def build_enumerate(spec):
    call = lambda: forests.enumerate_ample_trees(spec["n"])

    def plain(trees):
        memo = {}
        return [planar(t, memo) for t in trees]

    return call, plain


def build_count(spec):
    return (lambda: forests.count_ample_trees(spec["n"])), (lambda n: n)


def build_word(spec):
    word = forests.TwistWord(tuple(tuple(s) for s in spec["steps"]))

    def call():
        tree = forests.word_to_tree(word)
        round_trip = forests.parse_forest(forests.print_word(word))
        shuffled = forests.parse_forest(spec["shuffled"])
        other = forests.parse_forest(spec["other"])
        return (
            tree,
            forests.canonical_form(tree),
            forests.canonical_form(shuffled.trees[0]),
            forests.is_isomorphic(tree, round_trip),
            forests.is_isomorphic(tree, shuffled),
            forests.is_isomorphic(tree, other),
        )

    def plain(result):
        tree, canon, canon_shuffled, *iso = result
        return {"tree": planar(tree, {}), "canon_equal": canon == canon_shuffled, "iso": iso}

    return call, plain


def _germ(spec):
    return germs.Germ(spec["dim"], Fraction(spec["constant"]),
                      frozenset(tuple(c) for c in spec["covectors"]))


def build_germ(spec):
    g1, g2 = _germ(spec["g1"]), _germ(spec["g2"])
    call = lambda: germs.germ_equivalent(g1, g2)

    def plain(outcome):
        if isinstance(outcome, germs.UnimodularWitness):
            return {"witness": [list(r) for r in outcome.matrix]}
        return {"witness": None, "kind": type(outcome).__name__}

    return call, plain


def build(spec):
    return globals()["build_" + spec["kind"]](spec)
