"""Candidate Maslov-index-2 disc classes from intersection positivity.

A constraint table records, for a basis of relative homology classes, the
intersection numbers against a family of holomorphic cycles (each giving an
inequality `row . x >= 0`) plus the Maslov values (giving the equation
`mu . x = target`).  The enumerator returns every integer solution.

One exact Fourier-Motzkin elimination pass over x_{n-1}, ..., x_0 keeps, for
each coordinate x_k, the constraints that bound it from below and above in
terms of x_0..x_{k-1} (Schrijver, Theory of Linear and Integer Programming,
1986, section 12.2).  That cascade decides emptiness, decides boundedness (a
nonempty region is bounded iff every coordinate has both bounds), and drives
a prefix-pruned enumeration: x_0 over its integer interval, then each x_k
over the integers of its interval at the chosen prefix.  The ray reported
for an unbounded region is read from the same rounds with their constants
dropped, which describe the recession cone, so each public call runs one
cascade and no search for a ray.  An explicit search box lo_k <= x_k <= hi_k
is 2n more rows of the same cascade, so a boxed region is walked the same
way.  The walk tries at most `LATTICE_BUDGET` values and raises
`CapExceeded` rather than more.  At each node a bound's prefix sum is one
`sum(map(mul, ...))`, which runs in C; each point the walk reaches is
re-checked against the table's rows and Maslov equation, and a class found
is built from the walk's int tuple and its C-level boundary through the
trusted `DiscClass._new`, without the `as_int` checks its inputs have
already passed.

Constraints are primitive integer rows: a row and its constant are divided
by the gcd of all their entries, which leaves the half-space unchanged and
makes positive multiples of one row equal.  Each row carries the bitmask of
input rows it was combined from, and Chernikov's rule drops a combination
of more than k + 1 input rows after k eliminations; a row reached twice
keeps the input rows both derivations share (Chernikov, 1965; Imbert,
"About redundant inequalities generated by Fourier's algorithm", 1990).
The rows dropped are implied by those kept, so every projection, every
conditional interval and hence every class list and ray are those of the
unpruned cascade, while the rows stay few where unpruned elimination can
grow doubly exponentially.  The cascade, the walk and the ray are integer
arithmetic, and every integer field of a table (the target Maslov index
included) and each end of a search box pass through `matrices.as_int`, so no
`Fraction` is needed.
"""

from __future__ import annotations

import math
import warnings
from operator import mul

from ._value import Value
from .errors import CapExceeded, UnboundedRegion
from .matrices import as_int, as_names, mat, mat_det


class HomologyBasis(Value):
    """Free generators of the relative second homology group, with the
    boundary map into the first homology of the torus.

    `boundary_matrix` has one row per torus circle-factor coordinate (at
    least one: a torus has rank at least 1); columns correspond to
    generators.  Surface classes (absolute generators) have zero columns; the
    square submatrix on the boundary-carrying generators must be unimodular.
    `ring_names` names the multiplicative group-ring generators.
    `boundary_indices`, the column indices of the generators with nonzero
    boundary in order, is derived from the matrix once, at construction.
    """

    _fields = ("names", "boundary_matrix", "n_torus_rank", "ring_names")
    __slots__ = _fields + ("boundary_indices",)

    def __init__(self, names, boundary_matrix, n_torus_rank, ring_names=()):
        names = as_names(names)
        matrix = mat(boundary_matrix)
        n_torus_rank = as_int(n_torus_rank)
        if len(matrix) != n_torus_rank:
            raise ValueError("boundary matrix must have one row per torus rank")
        for row in matrix:
            if len(row) != len(names):
                raise ValueError("boundary matrix width must match generator count")
        carriers = tuple(j for j in range(len(names)) if any(row[j] for row in matrix))
        if len(carriers) != n_torus_rank:
            raise ValueError(
                f"{len(carriers)} generators carry boundary; expected {n_torus_rank}"
            )
        if n_torus_rank < 1:
            raise ValueError(f"a torus has rank at least 1, got {n_torus_rank}")
        sub = [[row[j] for j in carriers] for row in matrix]
        if abs(mat_det(sub)) != 1:
            raise ValueError("boundary submatrix on carrying generators must be unimodular")
        if not ring_names:
            ring_names = _default_ring_names(len(names), carriers)
        else:
            ring_names = as_names(ring_names)
            if len(ring_names) != len(names):
                raise ValueError("ring_names must match generator count")
        self._init(names, matrix, n_torus_rank, ring_names, carriers)

    def boundary_of(self, coefficients) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, coefficients)) for row in self.boundary_matrix)


def _default_ring_names(count, carriers):
    """R1, R2, ... for the boundary-carrying generators and S1, S2, ... for
    the others, in generator order."""
    out = []
    r = s = 0
    for j in range(count):
        if j in carriers:
            r += 1
            out.append(f"R{r}")
        else:
            s += 1
            out.append(f"S{s}")
    return tuple(out)


class ConstraintTable(Value):
    """Intersection rows plus the Maslov row defining candidate disc classes."""

    __slots__ = _fields = ("basis", "rows", "maslov_vector", "target_maslov")

    def __init__(self, basis, rows, maslov_vector, target_maslov=2):
        n = len(basis.names)
        rows = tuple((str(label), tuple(map(as_int, vec))) for label, vec in rows)
        self._init(basis, rows, tuple(map(as_int, maslov_vector)), as_int(target_maslov))
        for label, vec in rows:
            if len(vec) != n:
                raise ValueError(f"row {label!r} has length {len(vec)}, expected {n}")
        if len(self.maslov_vector) != n:
            raise ValueError("maslov vector length must match basis size")
        if any(m % 2 for m in self.maslov_vector):
            warnings.warn("odd Maslov entries: the torus would be non-orientable", stacklevel=2)


class DiscClass(Value):
    """An integer class satisfying all table constraints, with its boundary."""

    __slots__ = _fields = ("coefficients", "boundary_class")

    def __init__(self, coefficients, boundary_class):
        self._init(tuple(map(as_int, coefficients)), tuple(map(as_int, boundary_class)))


class BoundednessResult(Value):
    __slots__ = _fields = ("bounded", "ray")

    def __init__(self, bounded, ray=None):
        self._init(bounded, ray)

    def __bool__(self):
        return self.bounded


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin elimination (constraints are  coeffs . x + const >= 0)

# Most lattice points the enumerator examines for one table, boxed or not:
# every value the prefix walk tries for a coordinate counts as one.
LATTICE_BUDGET = 1_000_000


def _normalize_constraint(coeffs, const):
    """The primitive integer row of the same half-space: every entry divided
    by the gcd of all of them, so positive multiples of a row coincide.  The
    coefficients must not all be zero."""
    g = math.gcd(const, *coeffs)
    if g == 1:
        return coeffs, const
    return tuple(c // g for c in coeffs), const // g


def _fm_eliminate_var(constraints, j, max_origins):
    """One elimination round over `{row: origins}`, where `origins` is the
    bitmask of input rows a row was combined from.  Returns (new constraints,
    or None on a contradiction; pos; neg), where pos/neg are the rows that
    bound x_j from below/above, with their origins.

    Chernikov's rule drops a combination of more than `max_origins` input
    rows.  A row reached by several combinations keeps the input rows they
    all share: each combination is a nonnegative multiplier vector on the
    input rows, the projection is cut out by the rows of the extreme
    multipliers, and an extreme one after k eliminations has at most k + 1
    input rows and is combined from two extreme ones of the round before.
    So a row's origins stay inside the support of each of its extreme
    multipliers, no extreme combination is ever dropped, and the projection
    is unchanged.  (Keeping only the smaller of two origin sets loses rows:
    the Maslov equation enters as two opposite rows, so one row often has
    several derivations, and the smaller set need not be the one a later
    extreme combination extends.)"""
    pos, neg, new = [], [], {}
    for row, origins in constraints.items():
        c = row[0][j]
        if c > 0:
            pos.append((row, origins))
        elif c < 0:
            neg.append((row, origins))
        else:
            new[row] = origins
    for (ac, a0), a_origins in pos:
        for (bc, b0), b_origins in neg:
            origins = a_origins | b_origins
            if origins.bit_count() > max_origins:
                continue
            lam, mu = -bc[j], ac[j]
            coeffs = tuple(lam * a + mu * b for a, b in zip(ac, bc))
            const = lam * a0 + mu * b0
            if not any(coeffs):
                if const < 0:
                    return None, pos, neg
                continue
            row = _normalize_constraint(coeffs, const)
            new[row] = new.get(row, origins) & origins
    return new, pos, neg


def _fm_cascade(constraints, nvars):
    """One Fourier-Motzkin pass over x_{n-1}, ..., x_0 on integer rows.

    Returns None when the region is empty; otherwise `rounds`, where
    `rounds[k] = (lowers, uppers)` are the constraints that bound x_k from
    below and from above given x_0..x_{k-1}, each as `(a, (a_0..a_{k-1}), b)`
    for `a x_k + sum a_i x_i + b >= 0`.  Every point whose coordinates meet
    their rounds' bounds in turn satisfies the input system, and every prefix
    meeting rounds 0..k extends to a rational point of the region.  Each
    constraint is a pair (tuple of ints, int); equations should be passed as
    inequality pairs.
    """
    work = {}
    for i, (coeffs, const) in enumerate(constraints):
        if not any(coeffs):
            if const < 0:
                return None
            continue
        work.setdefault(_normalize_constraint(coeffs, const), 1 << i)
    rounds = []
    for eliminated, j in enumerate(range(nvars - 1, -1, -1), start=1):
        # after the last round no variable is left: `_fm_eliminate_var` has
        # already checked every constant constraint
        work, pos, neg = _fm_eliminate_var(work, j, eliminated + 1)
        if work is None:
            return None
        # x_{j+1}.. are eliminated, so a round-j row is zero beyond index j
        rounds.append(tuple([(c[j], c[:j], b) for (c, b), _ in side] for side in (pos, neg)))
    rounds.reverse()
    return rounds


def _table_constraints(table: ConstraintTable, boxes=None):
    """Inequalities (rows . x >= 0) plus the Maslov equation as two
    inequalities, and for each box (lo, hi) of `boxes` the rows
    x_k - lo >= 0 and hi - x_k >= 0."""
    out = [(vec, 0) for _, vec in table.rows]
    out.append((table.maslov_vector, -table.target_maslov))
    out.append((tuple(-m for m in table.maslov_vector), table.target_maslov))
    for k, (lo, hi) in enumerate(boxes or ()):
        unit = tuple(int(i == k) for i in range(len(boxes)))
        out += [(unit, -lo), (tuple(-u for u in unit), hi)]
    return out


def _cone_ray(rounds) -> tuple[int, ...]:
    """The primitive witness ray of a nonempty region whose cascade `rounds`
    has a round without both bounds.

    With their constants dropped, rounds 0..j cut out the recession cone of
    the region's projection to x_0..x_j: Chernikov's rule keeps the
    projection exact, and for a nonempty polyhedron the recession cone of a
    projection is the projection of the recession cone (Schrijver, 1986,
    sections 8.2 and 12.2).  Let round k be the first without both bounds.
    Rounds 0..k-1 bound their projection, so the cone has y_0..y_{k-1} = 0;
    y_k is +1 if round k has no upper bound and -1 otherwise, and each later
    y_j is the midpoint of its interval at the prefix, or its one end, or 0.
    That is the ray a search of the cone for a point with y_i = +1, then -1,
    for i = 0, 1, ..., back-substituting the same way, finds first: the
    interval ends depend on the cone, not on the cascade that gives them.
    A value num/den scales the prefix by den and appends num, which the
    cone's closure under positive scaling allows, so the ray is found in
    integers."""
    k = next(k for k, (lowers, uppers) in enumerate(rounds) if not (lowers and uppers))
    ray = [0] * k + [-1 if rounds[k][1] else 1]
    for lowers, uppers in rounds[k + 1 :]:
        # a y_j + s >= 0 bounds y_j by -s / a = -s * (den // a) / den
        den = math.lcm(*(a for a, _, _ in lowers), *(-a for a, _, _ in uppers))
        lows, highs = (
            [-sum(c * y for c, y in zip(cs, ray)) * (den // a) for a, cs, _ in side]
            for side in (lowers, uppers)
        )
        if lows and highs:
            num, den = max(lows) + min(highs), 2 * den
        elif lows or highs:
            num = max(lows) if lows else min(highs)
        else:
            num = 0
        g = math.gcd(num, den)
        ray = [y * (den // g) for y in ray]
        ray.append(num // g)
    g = math.gcd(*ray)
    return tuple(y // g for y in ray)


def _region(table: ConstraintTable, boxes=None):
    """(rounds, ray) of the table's region, cut to `boxes` if given, from one
    cascade: rounds is None when the region is empty, and ray is None unless
    the region is nonempty and some round lacks a lower or an upper bound,
    in which case it is the witness ray `_cone_ray` reads from the rounds."""
    rounds = _fm_cascade(_table_constraints(table, boxes), len(table.basis.names))
    if rounds is None or all(lowers and uppers for lowers, uppers in rounds):
        return rounds, None
    return rounds, _cone_ray(rounds)


def feasible_region_bounded(table: ConstraintTable) -> BoundednessResult:
    """Exact boundedness test of the solution polyhedron, read from one
    Fourier-Motzkin cascade.

    An empty region is bounded.  A nonempty one is bounded iff every round
    of the cascade has both a lower and an upper bound on its coordinate;
    otherwise the witness ray is read from the same rounds (`_cone_ray`),
    with no further elimination.
    """
    _, ray = _region(table)
    return BoundednessResult(ray is None, ray)


def _normalize_bounds(bounds, n):
    """Per-coordinate boxes from one (lo, hi) pair of integers or n such
    pairs (n >= 1, the table's width), each end read by `as_int`; anything
    else raises ValueError."""
    if bounds is None:
        return None

    def is_list(b):
        return isinstance(b, (tuple, list))

    pairs = bounds if is_list(bounds) and all(map(is_list, bounds)) else [bounds] * n
    if not all(is_list(pair) and len(pair) == 2 for pair in pairs):
        raise ValueError(f"bounds must be a pair of ints or {n} pairs, got {bounds!r}")
    if len(pairs) != n:
        raise ValueError(f"need {n} bound pairs, got {len(pairs)}")
    boxes = [(as_int(lo), as_int(hi)) for lo, hi in pairs]
    for lo, hi in boxes:
        if lo > hi:
            raise ValueError(f"empty bound interval [{lo}, {hi}]")
    return boxes


def enumerate_candidate_classes(table: ConstraintTable, bounds=None) -> list[DiscClass]:
    """All integer classes with `rows . x >= 0` and `mu . x = target`, sorted
    lexicographically; `bounds`, one (lo, hi) pair of ints for every
    coordinate or one pair per coordinate, adds the rows lo <= x_k <= hi.

    Without a box the region must be bounded; otherwise `UnboundedRegion`
    carries the ray `feasible_region_bounded` reports.  One Fourier-Motzkin
    cascade gives emptiness, boundedness, that ray (read from its rounds,
    with no search) and the enumeration: x_0 runs over its integer interval,
    then each x_k over the integers of its conditional interval at the
    current prefix, so only prefixes that extend to a rational solution are
    visited.  Boxed or not, `CapExceeded` is raised rather than try more than
    `LATTICE_BUDGET` values.
    """
    n = len(table.basis.names)
    rounds, ray = _region(table, _normalize_bounds(bounds, n))
    if ray is not None:
        raise UnboundedRegion(ray)
    if rounds is None:
        return []
    rows = [vec for _, vec in table.rows]
    mu = table.maslov_vector
    boundary_of = table.basis.boundary_of

    def accepts(x):
        return sum(map(mul, mu, x)) == table.target_maslov and all(
            sum(map(mul, vec, x)) >= 0 for vec in rows
        )

    found, prefix, visited = [], [], 0

    def extend():
        nonlocal visited
        k = len(prefix)
        if k == n:
            if accepts(prefix):
                # the walk's values and the table's rows are ints already
                x = tuple(prefix)
                found.append(DiscClass._new(x, boundary_of(x)))
            return
        lowers, uppers = rounds[k]
        # a x_k + s >= 0: x_k >= ceil(-s / a) if a > 0, x_k <= floor(s / -a) if a < 0
        lo = max(-((b + sum(map(mul, cs, prefix))) // a) for a, cs, b in lowers)
        hi = min((b + sum(map(mul, cs, prefix))) // -a for a, cs, b in uppers)
        visited += max(0, hi - lo + 1)
        if visited > LATTICE_BUDGET:
            raise CapExceeded("discs", visited, "lattice points", LATTICE_BUDGET)
        for value in range(lo, hi + 1):
            prefix.append(value)
            extend()
            prefix.pop()

    extend()
    return found


# ---------------------------------------------------------------------------
# JSON problem files


def basis_to_json(basis: HomologyBasis) -> dict:
    """The four keys of a homology basis in table and potential files."""
    return {
        "basis": list(basis.names),
        "ring_names": list(basis.ring_names),
        "n_torus_rank": basis.n_torus_rank,
        "boundary": [list(row) for row in basis.boundary_matrix],
    }


def basis_from_json(data: dict) -> HomologyBasis:
    return HomologyBasis(
        names=as_names(data["basis"]),
        boundary_matrix=tuple(tuple(row) for row in data["boundary"]),
        n_torus_rank=as_int(data.get("n_torus_rank", len(data["boundary"]))),
        ring_names=as_names(data.get("ring_names", ())),
    )


def table_to_json(table: ConstraintTable) -> dict:
    return {
        **basis_to_json(table.basis),
        "rows": [{"label": label, "v": list(vec)} for label, vec in table.rows],
        "maslov": list(table.maslov_vector),
        "target": table.target_maslov,
    }


def table_from_json(data: dict) -> tuple[ConstraintTable, list | None]:
    """Parse a problem file; returns (table, its per-coordinate boxes or
    None).  A malformed `bounds` entry raises ValueError."""
    basis = basis_from_json(data)
    table = ConstraintTable(
        basis=basis,
        rows=tuple((row["label"], tuple(row["v"])) for row in data["rows"]),
        maslov_vector=tuple(data["maslov"]),
        target_maslov=data.get("target", 2),
    )
    return table, _normalize_bounds(data.get("bounds"), len(basis.names))
