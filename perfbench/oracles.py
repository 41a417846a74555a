"""Independent checks of the benchmark's job outputs.

Nothing here imports twistkit: every oracle works on plain data (tuples,
dicts of exponent tuples to coefficients, nested tuples for trees) with its
own arithmetic, so a defect in a layer under test cannot hide in shared
code.  The only outside dependency is `sympy`, used for ideal properness
and quotient dimensions; it is imported lazily and only by those checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# integer linear algebra


def det(rows) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# disc classes


def box_scan(rows, mu, target, bound):
    """Every integer x in [-bound, bound]^n with rows.x >= 0 and mu.x = target."""
    n = len(mu)
    return sorted(
        x
        for x in itertools.product(range(-bound, bound + 1), repeat=n)
        if dot(mu, x) == target and all(dot(r, x) >= 0 for r in rows)
    )


def padded_union(factor_classes):
    """Classes of a product whose factors are monotone: exactly one block
    carries the Maslov-2 class, the others are zero."""
    sizes = [len(cls[0]) for cls in factor_classes]
    out = []
    offset = 0
    total = sum(sizes)
    for size, classes in zip(sizes, factor_classes):
        for c in classes:
            out.append((0,) * offset + tuple(c) + (0,) * (total - offset - size))
        offset += size
    return sorted(out)


def map_back(classes, matrix):
    """Classes found in new coordinates x' mapped to old ones by x = M x'."""
    return sorted(mat_vec(matrix, c) for c in classes)


def check_unbounded_ray(ray, rows, mu) -> bool:
    """A recession ray: nonzero, rows . r >= 0 and mu . r = 0."""
    return any(ray) and dot(mu, ray) == 0 and all(dot(r, ray) >= 0 for r in rows)


# ---------------------------------------------------------------------------
# Laurent arithmetic on {exponent tuple: coefficient}; ring is "GF2" or "Q"


def _norm(ring, c):
    return c % 2 if ring == "GF2" else Fraction(c)


def poly_add(ring, *polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = _norm(ring, out.get(e, 0) + c)
    return {e: c for e, c in out.items() if c != 0}


def poly_mul(ring, p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = _norm(ring, out.get(e, 0) + c1 * c2)
    return {e: c for e, c in out.items() if c != 0}


def toric_differentials(classes, carriers, ring="GF2"):
    """v_k = R_k dU/dR_k for U = sum of the class monomials."""
    return [
        poly_add(ring, *({tuple(c): _norm(ring, c[k])} for c in classes))
        for k in carriers
    ]


def cofactor_identity_holds(ring, nvars, gens, cofactors) -> bool:
    """sum c_i g_i == 1, recomputed from scratch."""
    if len(gens) != len(cofactors):
        return False
    total = poly_add(ring, *(poly_mul(ring, c, g) for c, g in zip(cofactors, gens)))
    return total == {(0,) * nvars: _norm(ring, 1)}


def log_derivative_zero(poly, index) -> bool:
    return all(e[index] * c == 0 for e, c in poly.items())


def gf2_univariate_gcd(polys):
    """gcd over GF(2) of univariate Laurent polynomials (monomial factors
    stripped), with polynomials held as bit masks."""
    g = 0
    for p in polys:
        if not p:
            continue
        low = min(e[0] for e in p)
        bits = 0
        for (e,), c in p.items():
            if c % 2:
                bits ^= 1 << (e - low)
        a, b = g, bits
        while b:
            while a and a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        g = a
    return g


def parse_poly(text, variables, ring="GF2"):
    """Read the printed form `c*X^e*Y + ...` back into a term dict."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for token in text.replace(" - ", " + -").split(" + "):
        token = token.strip()
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("-")
        exps = [0] * len(variables)
        coeff = Fraction(1)
        for factor in token.split("*"):
            name, _, power = factor.partition("^")
            if name in variables:
                exps[variables.index(name)] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        out[tuple(exps)] = _norm(ring, sign * coeff)
    return {e: c for e, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# ideals, through sympy


def _sympy_ideal(gens, nvars, ring):
    """Groebner basis of the Laurent ideal: monomial factors stripped and
    all variables inverted through w * prod(x) - 1 (w last)."""
    import sympy

    xs = sympy.symbols(f"x0:{nvars}")
    w = sympy.Symbol("w")
    exprs = []
    for p in gens:
        if not p:
            continue
        low = [min(e[i] for e in p) for i in range(nvars)]
        expr = 0
        for e, c in p.items():
            mono = sympy.Integer(1)
            for x, k, m in zip(xs, e, low):
                mono *= x ** (k - m)
            c = Fraction(c)
            expr += sympy.Rational(c.numerator, c.denominator) * mono
        exprs.append(sympy.expand(expr))
    exprs.append(w * sympy.Mul(*xs) - 1)
    options = {"modulus": 2} if ring == "GF2" else {"domain": "QQ"}
    return sympy.groebner(exprs, *xs, w, order="grevlex", **options)


def ideal_is_proper(gens, nvars, ring) -> bool:
    basis = _sympy_ideal(gens, nvars, ring)
    return list(basis.exprs) != [1]


def quotient_dimension(gens, nvars, ring="Q"):
    """Dimension of the Laurent quotient, or None if infinite."""
    basis = _sympy_ideal(gens, nvars, ring)
    if list(basis.exprs) == [1]:
        return 0
    if not basis.is_zero_dimensional:
        return None
    leads = [
        sympy_poly.monoms(order="grevlex")[0]
        for sympy_poly in basis.polys
    ]
    nall = nvars + 1
    caps = []
    for i in range(nall):
        caps.append(min(m[i] for m in leads if m[i] > 0 and sum(m) == m[i]))
    return sum(
        1
        for m in itertools.product(*(range(c) for c in caps))
        if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
    )


# ---------------------------------------------------------------------------
# trees (nested tuples: a leaf is ())


def ample_tree_counts(nmax):
    """OEIS A000669 for n = 1..nmax from a(n) = EulerTransform(a)(n) / 2.

    With b the Euler transform of a, n b(n) = sum_{k=1}^{n} c(k) b(n-k),
    c(k) = sum_{d | k} d a(d); for n >= 2, b(n) = 2 a(n), so a(n) solves a
    linear equation in which it appears once on each side.
    """
    a = [0, 1]
    b = [1, 1]
    c = [0, 1]
    for n in range(2, nmax + 1):
        # c(n) still lacks its d = n term n*a(n); the sum also lacks k = n's share
        c_partial = sum(d * a[d] for d in range(1, n) if n % d == 0)
        rest = sum(c[k] * b[n - k] for k in range(1, n))
        # n * 2a(n) = rest + (c_partial + n a(n)) * b(0)
        an = Fraction(rest + c_partial, n)
        if an.denominator != 1:
            raise ArithmeticError(f"non-integral count at n = {n}")
        a.append(int(an))
        c.append(c_partial + n * a[n])
        b.append(2 * a[n])
    return a[1:]


class AHU:
    """Aho-Hopcroft-Ullman labelling: isomorphic rooted trees get equal
    integer labels, assigned bottom-up through an interning table."""

    def __init__(self):
        self.table = {}

    def label(self, tree):
        key = tuple(sorted(self.label(c) for c in tree))
        return self.table.setdefault(key, len(self.table))


def is_ample(tree) -> bool:
    """Every internal vertex has at least two children (so non-root
    internal vertices have valency at least three)."""
    return not tree or (len(tree) >= 2 and all(is_ample(c) for c in tree))


def leaves(tree) -> int:
    return 1 if not tree else sum(leaves(c) for c in tree)


def word_tree(steps):
    """Twist word gluing, done on mutable nodes: step (k, l) replaces the
    l-th leaf from the left by a bush with k + 1 leaves."""
    if not steps:
        return ()
    root = [[] for _ in range(steps[0][0] + 1)]
    for k, l in steps[1:]:
        stack, seen = [root], []
        while stack:
            node = stack.pop()
            if not node:
                seen.append(node)
            else:
                stack.extend(reversed(node))
        seen[l - 1].extend([] for _ in range(k + 1))

    def freeze(node):
        return tuple(freeze(c) for c in node)

    return freeze(root)


# ---------------------------------------------------------------------------
# germs


def det_multiset(covectors, n):
    """GL(n, Z)-invariant: the multiset of |det| over all n-subsets."""
    return sorted(abs(det(s)) for s in itertools.combinations(sorted(covectors), n))


def witness_maps(matrix, covs1, covs2) -> bool:
    """The witness is unimodular and its transpose maps covs1 onto covs2."""
    n = len(matrix)
    if abs(det(matrix)) != 1:
        return False
    at = [[matrix[j][i] for j in range(n)] for i in range(n)]
    return {mat_vec(at, c) for c in covs1} == {tuple(c) for c in covs2}
