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
over the integers of its interval at the chosen prefix.  A recession-cone
ray is searched for only to report an unbounded region.  An explicit search
box may be supplied instead, and is then scanned whole.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnboundedRegion
from .matrices import mat_det


@dataclass(frozen=True)
class HomologyBasis:
    """Free generators of the relative second homology group, with the
    boundary map into the first homology of the torus.

    `boundary_matrix` has one row per torus circle-factor coordinate; columns
    correspond to generators.  Surface classes (absolute generators) have zero
    columns; the square submatrix on the boundary-carrying generators must be
    unimodular.  `ring_names` names the multiplicative group-ring generators.
    """

    names: tuple[str, ...]
    boundary_matrix: tuple[tuple[int, ...], ...]
    n_torus_rank: int
    ring_names: tuple[str, ...] = ()

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        matrix = tuple(tuple(int(x) for x in row) for row in self.boundary_matrix)
        object.__setattr__(self, "boundary_matrix", matrix)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if len(matrix) != self.n_torus_rank:
            raise ValueError("boundary matrix must have one row per torus rank")
        for row in matrix:
            if len(row) != len(names):
                raise ValueError("boundary matrix width must match generator count")
        carriers = self.boundary_indices
        if len(carriers) != self.n_torus_rank:
            raise ValueError(
                f"{len(carriers)} generators carry boundary; expected {self.n_torus_rank}"
            )
        sub = [[row[j] for j in carriers] for row in matrix]
        if self.n_torus_rank and abs(mat_det(sub)) != 1:
            raise ValueError("boundary submatrix on carrying generators must be unimodular")
        if not self.ring_names:
            object.__setattr__(self, "ring_names", self._default_ring_names())
        else:
            ring_names = tuple(self.ring_names)
            if len(ring_names) != len(names):
                raise ValueError("ring_names must match generator count")
            object.__setattr__(self, "ring_names", ring_names)

    @property
    def boundary_indices(self) -> tuple[int, ...]:
        """Column indices of generators with nonzero boundary, in order."""
        return tuple(
            j
            for j in range(len(self.names))
            if any(row[j] != 0 for row in self.boundary_matrix)
        )

    @property
    def surface_indices(self) -> tuple[int, ...]:
        carriers = set(self.boundary_indices)
        return tuple(j for j in range(len(self.names)) if j not in carriers)

    def _default_ring_names(self):
        out = []
        r = s = 0
        carriers = set(self.boundary_indices)
        for j in range(len(self.names)):
            if j in carriers:
                r += 1
                out.append(f"R{r}")
            else:
                s += 1
                out.append(f"S{s}")
        return tuple(out)

    def boundary_of(self, coefficients) -> tuple[int, ...]:
        return tuple(
            sum(row[j] * c for j, c in enumerate(coefficients))
            for row in self.boundary_matrix
        )


@dataclass(frozen=True)
class ConstraintTable:
    """Intersection rows plus the Maslov row defining candidate disc classes."""

    basis: HomologyBasis
    rows: tuple[tuple[str, tuple[int, ...]], ...]
    maslov_vector: tuple[int, ...]
    target_maslov: int = 2

    def __post_init__(self):
        n = len(self.basis.names)
        rows = tuple((str(label), tuple(int(x) for x in vec)) for label, vec in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "maslov_vector", tuple(int(x) for x in self.maslov_vector))
        for label, vec in rows:
            if len(vec) != n:
                raise ValueError(f"row {label!r} has length {len(vec)}, expected {n}")
        if len(self.maslov_vector) != n:
            raise ValueError("maslov vector length must match basis size")
        if any(m % 2 for m in self.maslov_vector):
            warnings.warn("odd Maslov entries: the torus would be non-orientable", stacklevel=2)


@dataclass(frozen=True)
class DiscClass:
    """An integer class satisfying all table constraints, with its boundary."""

    coefficients: tuple[int, ...]
    boundary_class: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(x) for x in self.coefficients))
        object.__setattr__(self, "boundary_class", tuple(int(x) for x in self.boundary_class))


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    ray: tuple[int, ...] | None = None

    def __bool__(self):
        return self.bounded


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin elimination (constraints are  coeffs . x + const >= 0)


def _normalize_constraint(coeffs, const):
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        scale = abs(const) if const else Fraction(1)
    return tuple(c / scale for c in coeffs), const / scale


def _fm_eliminate_var(constraints, j):
    """One elimination round; returns (new_constraints or None if contradiction,
    lowers, uppers) where lowers/uppers are the constraints that bounded x_j."""
    pos, neg, rest = [], [], []
    for coeffs, const in constraints:
        if coeffs[j] > 0:
            pos.append((coeffs, const))
        elif coeffs[j] < 0:
            neg.append((coeffs, const))
        else:
            rest.append((coeffs, const))
    new = set()
    for coeffs, const in rest:
        if all(c == 0 for c in coeffs):
            if const < 0:
                return None, pos, neg
            continue
        new.add(_normalize_constraint(coeffs, const))
    for (ac, a0) in pos:
        for (bc, b0) in neg:
            lam, mu = -bc[j], ac[j]
            coeffs = tuple(lam * a + mu * b for a, b in zip(ac, bc))
            const = lam * a0 + mu * b0
            if all(c == 0 for c in coeffs):
                if const < 0:
                    return None, pos, neg
                continue
            new.add(_normalize_constraint(coeffs, const))
    return list(new), pos, neg


def _fm_cascade(constraints, nvars):
    """One Fourier-Motzkin pass over x_{n-1}, ..., x_0.

    Returns None when the region is empty; otherwise `rounds`, where
    `rounds[k] = (pos, neg)` are the constraints that bound x_k from below
    and from above given x_0..x_{k-1}.  Every point whose coordinates meet
    their rounds' bounds in turn satisfies the input system, and every prefix
    meeting rounds 0..k extends to a rational point of the region.  Equations
    should be passed as inequality pairs.
    """
    work = []
    for coeffs, const in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        const = Fraction(const)
        if all(c == 0 for c in coeffs):
            if const < 0:
                return None
            continue
        work.append(_normalize_constraint(coeffs, const))
    rounds = []
    for j in range(nvars - 1, -1, -1):
        # after the last round no variable is left: `_fm_eliminate_var` has
        # already checked every constant constraint
        work, pos, neg = _fm_eliminate_var(work, j)
        if work is None:
            return None
        rounds.append((pos, neg))
    rounds.reverse()
    return rounds


def _fm_feasible_point(constraints, nvars):
    """A rational point satisfying all constraints, or None: the cascade,
    then back-substitution at the midpoint of each conditional interval."""
    rounds = _fm_cascade(constraints, nvars)
    if rounds is None:
        return None
    point = [Fraction(0)] * nvars
    for j, (pos, neg) in enumerate(rounds):
        lowers = []
        uppers = []
        for coeffs, const in pos:
            value = -(const + sum(c * point[i] for i, c in enumerate(coeffs) if i != j))
            lowers.append(value / coeffs[j])
        for coeffs, const in neg:
            value = -(const + sum(c * point[i] for i, c in enumerate(coeffs) if i != j))
            uppers.append(value / coeffs[j])
        if lowers and uppers:
            lo, hi = max(lowers), min(uppers)
            if lo > hi:
                return None
            point[j] = (lo + hi) / 2
        elif lowers:
            point[j] = max(lowers)
        elif uppers:
            point[j] = min(uppers)
    return tuple(point)


def _integer_round(constraints, k):
    """Round-k constraints scaled to integers, as (a_k, (a_0..a_{k-1}), b)
    for `a_k x_k + sum a_i x_i + b >= 0`."""
    out = []
    for coeffs, const in constraints:
        scale = math.lcm(const.denominator, *(c.denominator for c in coeffs[: k + 1]))
        ints = [int(c * scale) for c in coeffs[: k + 1]]
        out.append((ints[k], tuple(ints[:k]), int(const * scale)))
    return out


def _table_constraints(table: ConstraintTable, homogeneous: bool):
    """Inequalities (rows . x >= 0) plus the Maslov equation as two
    inequalities; `homogeneous` drops the Maslov target (recession cone)."""
    out = [(vec, 0) for _, vec in table.rows]
    target = 0 if homogeneous else -table.target_maslov
    out.append((table.maslov_vector, target))
    out.append((tuple(-m for m in table.maslov_vector), -target))
    return out


def _integral_ray(point) -> tuple[int, ...]:
    denominators = [Fraction(x).denominator for x in point]
    scale = math.lcm(*denominators) if denominators else 1
    ints = [int(Fraction(x) * scale) for x in point]
    g = math.gcd(*(abs(v) for v in ints))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def feasible_region_bounded(table: ConstraintTable) -> BoundednessResult:
    """Exact boundedness test of the solution polyhedron, read from one
    Fourier-Motzkin cascade.

    An empty region is bounded.  A nonempty one is bounded iff every round
    of the cascade has both a lower and an upper bound on its coordinate.
    Only when some round lacks one is a witness ray searched for: a point of
    the recession cone {rows.y >= 0, mu.y = 0} with some y_i = +-1.
    """
    n = len(table.basis.names)
    rounds = _fm_cascade(_table_constraints(table, homogeneous=False), n)
    if rounds is None or all(pos and neg for pos, neg in rounds):
        return BoundednessResult(True)
    cone = _table_constraints(table, homogeneous=True)
    for i in range(n):
        for sign in (1, -1):
            unit = tuple(int(k == i) * sign for k in range(n))
            fixed = cone + [(unit, -1), (tuple(-u for u in unit), 1)]
            point = _fm_feasible_point(fixed, n)
            if point is not None:
                return BoundednessResult(False, _integral_ray(point))
    return BoundednessResult(True)


def _normalize_bounds(bounds, n):
    """Per-coordinate boxes from one (lo, hi) pair of ints or n such pairs;
    anything else raises ValueError."""
    if bounds is None:
        return None

    def is_pair(b):
        return (
            isinstance(b, (tuple, list))
            and len(b) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in b)
        )

    if is_pair(bounds):
        boxes = [tuple(bounds)] * n
    elif isinstance(bounds, (tuple, list)) and all(is_pair(b) for b in bounds):
        boxes = [tuple(b) for b in bounds]
        if len(boxes) != n:
            raise ValueError(f"need {n} bound pairs, got {len(boxes)}")
    else:
        raise ValueError(f"bounds must be a pair of ints or {n} pairs, got {bounds!r}")
    for lo, hi in boxes:
        if lo > hi:
            raise ValueError(f"empty bound interval [{lo}, {hi}]")
    return boxes


def enumerate_candidate_classes(table: ConstraintTable, bounds=None) -> list[DiscClass]:
    """All integer classes with `rows . x >= 0` and `mu . x = target`, sorted
    lexicographically.

    Without explicit bounds the region must be bounded; otherwise
    `UnboundedRegion` carries the ray from `feasible_region_bounded`.  One
    Fourier-Motzkin cascade gives emptiness, boundedness and the enumeration:
    x_0 runs over its integer interval, then each x_k over the integers of
    its conditional interval at the current prefix, so only prefixes that
    extend to a rational solution are visited.  With bounds, the given box
    is scanned.
    """
    n = len(table.basis.names)
    boxes = _normalize_bounds(bounds, n)
    rows = [vec for _, vec in table.rows]
    mu = table.maslov_vector

    def accepts(x):
        return sum(m * c for m, c in zip(mu, x)) == table.target_maslov and all(
            sum(r * c for r, c in zip(vec, x)) >= 0 for vec in rows
        )

    if boxes is not None:
        found = [
            DiscClass(x, table.basis.boundary_of(x))
            for x in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes))
            if accepts(x)
        ]
        found.sort(key=lambda d: d.coefficients)
        return found

    rounds = _fm_cascade(_table_constraints(table, homogeneous=False), n)
    if rounds is None:
        return []
    if not all(pos and neg for pos, neg in rounds):
        raise UnboundedRegion(feasible_region_bounded(table).ray)
    scaled = [
        (_integer_round(pos, k), _integer_round(neg, k)) for k, (pos, neg) in enumerate(rounds)
    ]
    found = []
    prefix = []

    def extend():
        k = len(prefix)
        if k == n:
            if accepts(prefix):
                x = tuple(prefix)
                found.append(DiscClass(x, table.basis.boundary_of(x)))
            return
        lowers, uppers = scaled[k]
        # a x_k + s >= 0: x_k >= ceil(-s / a) if a > 0, x_k <= floor(s / -a) if a < 0
        lo = max(-((b + sum(c * x for c, x in zip(cs, prefix))) // a) for a, cs, b in lowers)
        hi = min((b + sum(c * x for c, x in zip(cs, prefix))) // -a for a, cs, b in uppers)
        for value in range(lo, hi + 1):
            prefix.append(value)
            extend()
            prefix.pop()

    extend()
    return found


# ---------------------------------------------------------------------------
# JSON problem files


def table_to_json(table: ConstraintTable) -> dict:
    return {
        "basis": list(table.basis.names),
        "ring_names": list(table.basis.ring_names),
        "n_torus_rank": table.basis.n_torus_rank,
        "boundary": [list(row) for row in table.basis.boundary_matrix],
        "rows": [{"label": label, "v": list(vec)} for label, vec in table.rows],
        "maslov": list(table.maslov_vector),
        "target": table.target_maslov,
    }


def table_from_json(data: dict) -> tuple[ConstraintTable, list | None]:
    """Parse a problem file; returns (table, optional bounds)."""
    basis = HomologyBasis(
        names=tuple(data["basis"]),
        boundary_matrix=tuple(tuple(row) for row in data["boundary"]),
        n_torus_rank=int(data.get("n_torus_rank", len(data["boundary"]))),
        ring_names=tuple(data.get("ring_names", ())),
    )
    table = ConstraintTable(
        basis=basis,
        rows=tuple((row["label"], tuple(row["v"])) for row in data["rows"]),
        maslov_vector=tuple(data["maslov"]),
        target_maslov=int(data.get("target", 2)),
    )
    bounds = data.get("bounds")
    if bounds is not None:
        _normalize_bounds(bounds, len(basis.names))  # raises ValueError on a bad shape
        if all(isinstance(b, int) for b in bounds):
            bounds = tuple(bounds)
        else:
            bounds = [tuple(b) for b in bounds]
    return table, bounds
