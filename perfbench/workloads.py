"""Seeded job specifications for each workload, and their correctness checks.

A spec is plain JSON-able data: it is all the program receives (the worker
turns it into twistkit objects) and all the checks need.  Checks use only
`oracles`, never twistkit.  Why each workload exists, which layers it
stresses and which it bypasses, is in README.md next to this file.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import oracles

# The theta torus in S2 x S2 (generators D_Gamma, D_tau, S1, S2) and the
# Clifford circle in S2 (generators D, S): intersection rows against
# holomorphic cycles avoiding the torus, and the Maslov row.
FACTORS = {
    "T": {
        "names": ("D_Gamma", "D_tau", "S1", "S2"),
        "ring": ("R", "T", "S1", "S2"),
        "carriers": (0, 1),
        "rows": ((0, -1, 0, 1), (0, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (1, 0, 1, 1)),
        "mu": (2, 0, 4, 4),
    },
    "C": {
        "names": ("D", "S"),
        "ring": ("R", "S"),
        "carriers": (0,),
        "rows": ((1, 1), (0, 1)),
        "mu": (2, 4),
    },
}
SCAN_BOUND = 3  # every factor class has entries in [-1, 1]

# theta^a x C^b; identity-hom certification of the last two does not finish
# within the job budget at the commit that introduced the benchmark
PRODUCTS = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0))
REACH = {(2, 1), (3, 0)}

WORKLOADS = ("theta_products", "dense_random", "forest_census")


def product_name(a, b):
    part = lambda sym, k: "" if k == 0 else sym if k == 1 else f"{sym}{k}"
    return part("T", a) + part("C", b)


@functools.lru_cache(maxsize=None)
def factor_classes(symbol):
    f = FACTORS[symbol]
    return tuple(oracles.box_scan(f["rows"], f["mu"], 2, SCAN_BOUND))


def product_classes(a, b):
    return oracles.padded_union([factor_classes(s) for s in "T" * a + "C" * b])


def product_table(a, b):
    """Block-diagonal table of theta^a x C^b; each factor's names get the
    suffix _i."""
    names, ring, carriers, rows, mu = [], [], [], [], []
    symbols = "T" * a + "C" * b
    width = sum(len(FACTORS[s]["names"]) for s in symbols)
    offset = 0
    for i, s in enumerate(symbols, start=1):
        f = FACTORS[s]
        size = len(f["names"])
        names += [f"{x}_{i}" for x in f["names"]]
        ring += [f"{x}_{i}" for x in f["ring"]]
        carriers += [offset + c for c in f["carriers"]]
        for r, vec in enumerate(f["rows"]):
            rows.append([f"{s}{i}.{r}", [0] * offset + list(vec) + [0] * (width - offset - size)])
        mu += f["mu"]
        offset += size
    return {"names": names, "ring": ring, "carriers": carriers, "rows": rows, "mu": mu}


def _shuffled_rows(table, rng):
    rows = list(table["rows"])
    rng.shuffle(rows)
    return {**table, "rows": rows}


# ---------------------------------------------------------------------------
# theta_products


def theta_products(rng):
    jobs = []
    # The family is the paper's and fixed: the tables keep their row order,
    # on which the Fourier-Motzkin cost of C^4 depends by 30%, so the seed
    # changes nothing here and runs differ only by the machine.
    for a, b in PRODUCTS:
        name = product_name(a, b)
        table = product_table(a, b)
        classes = [list(c) for c in product_classes(a, b)]
        base = {"product": [a, b], "table": table}
        jobs.append({"id": f"classes/{name}", "kind": "classes", **base})
        jobs.append({"id": f"pearl/{name}", "kind": "pearl", "classes": classes, **base})
        certify = {"kind": "certify", "classes": classes, **base}
        jobs.append({"id": f"certify/{name}", "h0": "identity", "reach": (a, b) in REACH, **certify})
        if b == 0:
            jobs.append({"id": f"certify-collapse/{name}", "h0": "collapse", **certify})
    for command in ("classes", "pearl", "certify"):
        jobs.append({"id": f"cli/{command}", "kind": "cli", "command": command})
    return jobs


# ---------------------------------------------------------------------------
# dense_random


def _unimodular(rng, size, steps):
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(steps if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        sign = rng.choice((1, -1))
        m[i] = [x + sign * y for x, y in zip(m[i], m[j])]
    return m


def recoordinatise(table, rng, steps):
    """x = M x' with M = [[A, 0], [B, C]] in (carrier, surface) blocks, A and
    C unimodular: surface columns stay boundary-free."""
    n = len(table["mu"])
    carriers = list(table["carriers"])
    surfaces = [j for j in range(n) if j not in carriers]
    a = _unimodular(rng, len(carriers), steps)
    c = _unimodular(rng, len(surfaces), steps)
    m = [[0] * n for _ in range(n)]
    for bi, i in enumerate(carriers):
        for bj, j in enumerate(carriers):
            m[i][j] = a[bi][bj]
    for bi, i in enumerate(surfaces):
        for bj, j in enumerate(surfaces):
            m[i][j] = c[bi][bj]
    for _ in range(steps):
        m[rng.choice(surfaces)][rng.choice(carriers)] += rng.choice((1, -1))
    times_m = lambda v: [sum(v[i] * m[i][j] for i in range(n)) for j in range(n)]
    return {
        **table,
        "rows": [[label, times_m(vec)] for label, vec in table["rows"]],
        "mu": times_m(table["mu"]),
        "boundary_matrix": [[m[i][j] for j in range(n)] for i in carriers],
    }, m


def _random_poly(rng, nvars, nterms, low, high, ring):
    terms = {}
    while len(terms) < nterms:
        exps = tuple(rng.randint(low, high) for _ in range(nvars))
        terms[exps] = 1 if ring == "GF2" else rng.choice((1, -1, 2, -2, 3, Fraction(1, 2)))
    return [[list(e), str(c)] for e, c in sorted(terms.items())]


# Every family below was sized by sampling fifty seeded inputs: each job
# takes milliseconds with a light tail, so a pass of a few hundred jobs
# varies little from seed to seed.  Left out for their heavy tails (from one
# second to minutes for a fifth to a half of seeds): re-coordinatised tables
# in six or more variables (theta^2, theta x C, C^3), whose per-coordinate
# Fourier-Motzkin projections blow up, and three generators of three terms
# over Q in two variables, whose Buchberger runs do.

# (theta count, circle count, elementary steps, tables)
RECOORD = ((1, 0, 2, 40), (0, 2, 1, 30))
# (ring, variables, generators, terms per generator, exponent range, ideals)
MEMBERSHIP = (
    ("GF2", 2, 3, (2, 3), (-1, 1), 2),  # mostly the unit ideal: cofactors over GF2
    ("Q", 2, 3, (2,), (-1, 1), 6),  # mostly the unit ideal: cofactors over Q
    ("GF2", 2, 2, (3,), (-1, 1), 4),
    ("Q", 2, 2, (3,), (-1, 1), 4),
    ("GF2", 3, 3, (2,), (-1, 1), 4),
    ("Q", 3, 3, (2,), (-1, 1), 4),
    ("GF2", 2, 2, (2,), (-2, 2), 3),
    ("Q", 2, 2, (2,), (-2, 2), 3),
)
# (terms, exponent range, potentials), all in two variables over Q
REGULARITY = ((3, (-2, 2), 15), (4, (-1, 1), 15))


def dense_random(rng):
    jobs = []
    for a, b, steps, count in RECOORD:
        for index in range(count):
            name = f"{product_name(a, b)}#{index}"
            table, m = recoordinatise(product_table(a, b), rng, steps)
            table = _shuffled_rows(table, rng)
            jobs.append({"id": f"recoord/{name}", "kind": "classes", "product": [a, b],
                         "table": table, "matrix": m})
            dropped = dict(table, rows=list(table["rows"]))
            del dropped["rows"][rng.randrange(len(dropped["rows"]))]
            jobs.append({"id": f"unbounded/{name}", "kind": "unbounded", "table": dropped})
    for family, (ring, nvars, ngens, nterms, (low, high), count) in enumerate(MEMBERSHIP):
        for index in range(count):
            gens = [_random_poly(rng, nvars, rng.choice(nterms), low, high, ring)
                    for _ in range(ngens)]
            jobs.append({"id": f"membership/{family}-{ring}-{nvars}x{ngens}#{index}",
                         "kind": "membership", "ring": ring, "nvars": nvars, "gens": gens})
    for nterms, (low, high), count in REGULARITY:
        for index in range(count):
            jobs.append({"id": f"regularity/{nterms}#{index}", "kind": "regularity",
                         "poly": _random_poly(rng, 2, nterms, low, high, "Q")})
    return jobs


# ---------------------------------------------------------------------------
# forest_census


def _random_word(rng, dim):
    steps, leaves = [], 1
    while leaves < dim:
        k = min(rng.randint(1, 3), dim - leaves)
        steps.append([k, 1 if not steps else rng.randint(1, leaves)])
        leaves += k
    return steps


def _shuffle_tree(rng, tree):
    kids = [_shuffle_tree(rng, c) for c in tree]
    rng.shuffle(kids)
    return tuple(kids)


def tree_text(tree):
    return "L" if not tree else "(" + " ".join(tree_text(c) for c in tree) + ")"


def _random_germ(rng, dim, count):
    while True:
        covs = set()
        while len(covs) < count:
            c = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(c):
                covs.add(c)
        if any(oracles.det_multiset(covs, dim)):
            return sorted(covs)


def _inequivalent_twin(rng, covs, dim):
    """Same count and rank, different |det| multiset: not a unimodular image."""
    target = oracles.det_multiset(covs, dim)
    while True:
        twin = [list(c) for c in covs]
        i = rng.randrange(len(twin))
        twin[i][rng.randrange(dim)] += rng.choice((1, -1))
        twin = sorted({tuple(c) for c in twin})
        if len(twin) == len(covs) and all(any(c) for c in twin):
            dets = oracles.det_multiset(twin, dim)
            if dets != target and any(dets):
                return twin


# (dimension, covector count) of each germ pair.  Many mid-sized pairs, not a
# few of 4 x 7: over ten seeds the germ jobs' total then varied by 0.07 s
# between quartiles instead of 0.19 s, since searches that find a witness
# early or late average out.
GERMS = ((3, 7),) * 6 + ((4, 6),) * 3


def forest_census(rng):
    jobs = [{"id": f"enumerate/{n}", "kind": "enumerate", "n": n} for n in range(1, 14)]
    jobs += [{"id": f"count/{n}", "kind": "count", "n": n} for n in range(1, 41)]
    for dim in range(10, 61, 5):
        steps = _random_word(rng, dim)
        other = _random_word(rng, dim)
        tree = oracles.word_tree(steps)
        jobs.append({
            "id": f"word/{dim}", "kind": "word", "steps": steps,
            "shuffled": tree_text(_shuffle_tree(rng, tree)),
            "other": tree_text(_shuffle_tree(rng, oracles.word_tree(other))),
        })
    for index, (dim, count) in enumerate(GERMS):
        covs = _random_germ(rng, dim, count)
        u = _unimodular(rng, dim, 3)
        ut = [[u[j][i] for j in range(dim)] for i in range(dim)]
        image = sorted(oracles.mat_vec(ut, c) for c in covs)
        constant = str(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        germ = {"dim": dim, "constant": constant, "covectors": covs}
        jobs.append({"id": f"germ-equivalent/{index}", "kind": "germ", "g1": germ,
                     "g2": {**germ, "covectors": image}, "equivalent": True})
        jobs.append({"id": f"germ-inequivalent/{index}", "kind": "germ", "g1": germ,
                     "g2": {**germ, "covectors": _inequivalent_twin(rng, covs, dim)},
                     "equivalent": False})
    return jobs


def specs(workload, seed):
    """The job list of a workload, generated from the seed alone.

    Job order is fixed, never shuffled: in one interpreter the order of
    earlier jobs moved later jobs' latencies by up to 60%, the same in every
    pass, so a seeded order made runs differ by their seed rather than by the
    program.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = globals()[workload](rng)
    for job in jobs:
        job.setdefault("reach", False)
    return jobs


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else what is wrong


def _poly(spec_terms, ring="GF2"):
    return oracles.poly_add(ring, {tuple(e): Fraction(c) for e, c in spec_terms})


def _key(data):
    return json.dumps(data, sort_keys=True)


@functools.lru_cache(maxsize=None)
def factor_facts(symbol):
    """(H0 ideal proper over GF2, critical quotient dimension over Q) of one
    factor, both from sympy."""
    f = FACTORS[symbol]
    classes = factor_classes(symbol)
    n = len(f["mu"])
    vs = oracles.toric_differentials(classes, f["carriers"], "GF2")
    proper = oracles.ideal_is_proper(vs, n, "GF2")
    # carriers to independent z's, surfaces to 1
    image = oracles.poly_add("Q", *({tuple(c[k] for k in f["carriers"]): 1} for c in classes))
    logs = [{e: e[i] * c for e, c in image.items() if e[i]} for i in range(len(f["carriers"]))]
    return proper, oracles.quotient_dimension(logs, len(f["carriers"]), "Q")


def _check_classes(spec, out):
    a, b = spec["product"]
    found = [tuple(c) for c in out]
    if "matrix" in spec:
        found = oracles.map_back(found, spec["matrix"])
    if sorted(found) != product_classes(a, b):
        return "class set differs from the padded factor box scans"


def _check_unbounded(spec, out):
    rows = [vec for _, vec in spec["table"]["rows"]]
    if out is None or not oracles.check_unbounded_ray(out, rows, spec["table"]["mu"]):
        return f"not a recession ray: {out}"


def _check_pearl(spec, out):
    vs = oracles.toric_differentials(spec["classes"], spec["table"]["carriers"])
    got = [_poly(v) for v in out["v"]]
    if got != vs:
        return "toric differentials differ from the class-list recomputation"
    if [_poly(d) for d in out["d2"]] != vs or any(d not in ([], [0]) for d in out["d2_degrees"]):
        return "d2 of a degree-one generator is not its toric differential"
    if out["d2d2_components"]:
        return "d2 o d2 is not zero on the top wedge"


def _check_certify(spec, out):
    a, b = spec["product"]
    facts = [factor_facts(s) for s in "T" * a + "C" * b]
    if spec["h0"] == "identity":
        # 1 lies in a sum of ideals in disjoint variables iff it lies in one
        want = {"token": "certified", "contains_one": False, "identity": True}
        if not all(proper for proper, _ in facts):
            return "a factor ideal is not proper"
    else:
        classes = spec["classes"]
        halves = [[m // 2 for m in spec["table"]["mu"]]]
        images = [
            oracles.poly_add("GF2", *({(oracles.mat_vec(halves, c)[0],): c[k]} for c in classes))
            for k in spec["table"]["carriers"]
        ]
        unit = oracles.gf2_univariate_gcd(images) == 1
        want = {"token": "inconclusive" if unit else "certified", "contains_one": unit,
                "identity": False}
    dim = 1
    for _, d in facts:
        dim *= d
    want.update(regular=True, quotient_dimension=dim)
    got = {k: out[k] for k in want}
    if got != want:
        return f"report {got} != {want}"


def _check_cli(spec, out):
    if out["code"] != 0:
        return f"exit code {out['code']}"
    payload = out["payload"]
    classes = factor_classes("T")
    names = FACTORS["T"]["ring"]
    if spec["command"] == "classes":
        if sorted(tuple(c["coefficients"]) for c in payload["classes"]) != list(classes):
            return "preset classes differ from the box scan"
    elif spec["command"] == "pearl":
        vs = oracles.toric_differentials(classes, FACTORS["T"]["carriers"])
        carriers = [names[k] for k in FACTORS["T"]["carriers"]]
        if _poly(payload["potential"]) != oracles.poly_add("GF2", *({c: 1} for c in classes)):
            return "preset potential differs from the class monomials"
        for key in ("toric_differential", "d2_degree_one"):
            if [oracles.parse_poly(payload[key][r], names) for r in carriers] != vs:
                return f"preset {key} differs from the class-list recomputation"
    else:
        got = (payload["token"], payload["h0"]["contains_one"],
               payload["regularity"]["quotient_dimension"])
        if got != ("certified", False, factor_facts("T")[1]):
            return f"preset certificate {got}"


def _check_membership(spec, out):
    ring, nvars = spec["ring"], spec["nvars"]
    gens = [_poly(g, ring) for g in spec["gens"]]
    if out["contains_one"]:
        cofs = [_poly(c, ring) for c in out["cofactors"] or []]
        if not oracles.cofactor_identity_holds(ring, nvars, gens, cofs):
            return "cofactors do not combine to 1"
    elif not _proper(_key(spec["gens"]), ring, nvars):
        return "ideal reported proper, but it contains 1"


@functools.lru_cache(maxsize=None)
def _proper(gens_key, ring, nvars):
    gens = [_poly(g, ring) for g in json.loads(gens_key)]
    return oracles.ideal_is_proper(gens, nvars, ring)


@functools.lru_cache(maxsize=None)
def _regularity_truth(poly_key):
    poly = _poly(json.loads(poly_key), "Q")
    zero = [f"x{i}" for i in range(2) if oracles.log_derivative_zero(poly, i)]
    if zero:
        return False, None, zero
    logs = [{e: e[i] * c for e, c in poly.items() if e[i]} for i in range(2)]
    dim = oracles.quotient_dimension(logs, 2, "Q")
    return dim is not None, dim, []


def _check_regularity(spec, out):
    want = dict(zip(("regular", "quotient_dimension", "zero_directions"),
                    _regularity_truth(_key(spec["poly"]))))
    if out != want:
        return f"regularity {out} != {want}"


def _check_enumerate(spec, out):
    n = spec["n"]
    trees = [_parse_tree(t) for t in out]
    ahu = oracles.AHU()
    labels = {ahu.label(t) for t in trees}
    if len(trees) != oracles.ample_tree_counts(n)[-1] or len(labels) != len(trees):
        return f"{len(trees)} trees, {len(labels)} distinct, want A000669({n})"
    if not all(oracles.is_ample(t) and oracles.leaves(t) == n for t in trees):
        return "a tree is not ample or has the wrong leaf count"


def _check_count(spec, out):
    if out != oracles.ample_tree_counts(spec["n"])[-1]:
        return f"count {out} is not A000669({spec['n']})"


def _parse_tree(text):
    stack = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
        elif token == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(())
    return stack[0][0]


def _check_word(spec, out):
    ahu = oracles.AHU()
    own = ahu.label(oracles.word_tree(spec["steps"]))
    other = ahu.label(_parse_tree(spec["other"]))
    if ahu.label(_parse_tree(out["tree"])) != own:
        return "word_to_tree differs from the gluing recomputation"
    if not out["canon_equal"]:
        return "canonical forms of a tree and its shuffle differ"
    if out["iso"] != [True, True, own == other]:
        return f"isomorphism answers {out['iso']}"


def _check_germ(spec, out):
    g1, g2 = spec["g1"], spec["g2"]
    if spec["equivalent"]:
        if out["witness"] is None or not oracles.witness_maps(
            out["witness"], g1["covectors"], g2["covectors"]
        ):
            return "no valid witness for an equivalent pair"
    elif out["witness"] is not None or out["kind"] != "NotEquivalent":
        return f"inequivalent pair answered {out}"
    elif oracles.det_multiset(g1["covectors"], g1["dim"]) == oracles.det_multiset(
        g2["covectors"], g2["dim"]
    ):
        return "the pair is not proven inequivalent"


def check(spec, out):
    """None if `out` is right for `spec`, else a description of the error."""
    return globals()["_check_" + spec["kind"]](spec, out)
