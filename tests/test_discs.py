import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from twistkit.discs import (
    ConstraintTable,
    DiscClass,
    HomologyBasis,
    basis_to_json,
    enumerate_candidate_classes,
    feasible_region_bounded,
    table_from_json,
    table_to_json,
)
from twistkit import discs
from twistkit.errors import CapExceeded, UnboundedRegion
from twistkit.presets import product_bundle, theta_constraint_table

THETA_CLASSES = {
    (1, 0, 0, 0),
    (-1, -1, 1, 0),
    (-1, 0, 1, 0),
    (-1, 0, 0, 1),
    (-1, 1, 0, 1),
}
C_CLASSES = {(1, 0), (-1, 1)}  # the two hemispheres of the circle factor


def plain_basis(n, names=None):
    return HomologyBasis(
        names=names or tuple(f"G{i}" for i in range(n)),
        boundary_matrix=tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ),
        n_torus_rank=n,
    )


def surface_indices(basis):
    """The columns of the surface generators, those without boundary."""
    return tuple(j for j in range(len(basis.names)) if j not in basis.boundary_indices)


def box_scan_oracle(table, box):
    """Exhaustive scan of the box, one (lo, hi) pair for every coordinate or
    one pair per coordinate, filtering by the raw constraints."""
    n = len(table.basis.names)
    boxes = [box] * n if isinstance(box[0], int) else box
    hits = []
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes)):
        if sum(m * c for m, c in zip(table.maslov_vector, x)) != table.target_maslov:
            continue
        if all(sum(r * c for r, c in zip(vec, x)) >= 0 for _, vec in table.rows):
            hits.append(x)
    return sorted(hits)


def random_table(rng, n=3, n_rows=4):
    rows = tuple(
        (f"r{i}", tuple(rng.randint(-2, 2) for _ in range(n))) for i in range(n_rows)
    )
    maslov = tuple(rng.choice([-2, 0, 2, 4]) for _ in range(n))
    return ConstraintTable(
        basis=plain_basis(n), rows=rows, maslov_vector=maslov, target_maslov=2
    )


# ---------------------------------------------------------------------------
# the twist-torus preset


def test_theta_preset_yields_the_five_classes():
    classes = enumerate_candidate_classes(theta_constraint_table())
    assert {c.coefficients for c in classes} == THETA_CLASSES
    assert [c.coefficients for c in classes] == sorted(THETA_CLASSES)


def test_theta_boundary_classes():
    classes = {c.coefficients: c.boundary_class for c in
               enumerate_candidate_classes(theta_constraint_table())}
    assert classes[(1, 0, 0, 0)] == (1, 0)
    assert classes[(-1, -1, 1, 0)] == (-1, -1)
    assert classes[(-1, 1, 0, 1)] == (-1, 1)


def test_theta_solution_set_swap_symmetry():
    # swapping the two sphere factors flips the orbit coefficient
    swapped = {(a, -t, b2, b1) for a, t, b1, b2 in THETA_CLASSES}
    assert swapped == THETA_CLASSES


def test_theta_table_level_swap_symmetry():
    # build the factor-swapped table (exchange the two sphere columns and
    # negate the orbit column, permuting rows accordingly) and check the
    # enumerated solutions correspond under the same coordinate change
    base = theta_constraint_table()

    def swap_vec(vec):
        a, t, b1, b2 = vec
        return (a, -t, b2, b1)

    swapped = ConstraintTable(
        basis=base.basis,
        rows=tuple((label, swap_vec(vec)) for label, vec in base.rows),
        maslov_vector=swap_vec(base.maslov_vector),
        target_maslov=base.target_maslov,
    )
    got = {c.coefficients for c in enumerate_candidate_classes(swapped)}
    assert got == {swap_vec(c) for c in THETA_CLASSES} == THETA_CLASSES


def test_theta_classes_satisfy_constraints_post_hoc():
    table = theta_constraint_table()
    for cls in enumerate_candidate_classes(table):
        for _, vec in table.rows:
            assert sum(r * c for r, c in zip(vec, cls.coefficients)) >= 0
        mu = sum(m * c for m, c in zip(table.maslov_vector, cls.coefficients))
        assert mu == table.target_maslov


def test_theta_enumeration_independent_of_row_order_and_bounds():
    base = theta_constraint_table()
    reordered = ConstraintTable(
        basis=base.basis,
        rows=tuple(reversed(base.rows)),
        maslov_vector=base.maslov_vector,
        target_maslov=base.target_maslov,
    )
    reference = [c.coefficients for c in enumerate_candidate_classes(base)]
    assert [c.coefficients for c in enumerate_candidate_classes(reordered)] == reference
    for box in [(-5, 5), (-9, 9)]:
        got = [c.coefficients for c in enumerate_candidate_classes(base, bounds=box)]
        assert got == reference


# ---------------------------------------------------------------------------
# forced and random tables


def test_single_generator_forced_solution():
    basis = plain_basis(1)
    table = ConstraintTable(
        basis=basis, rows=(("r", (1,)),), maslov_vector=(2,), target_maslov=2
    )
    classes = enumerate_candidate_classes(table)
    assert [c.coefficients for c in classes] == [(1,)]


def test_random_tables_match_box_scan_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 30:
        table = random_table(rng)
        box = (-3, 3)
        got = [c.coefficients for c in enumerate_candidate_classes(table, bounds=box)]
        assert got == box_scan_oracle(table, box)
        checked += 1


def test_walk_classes_are_what_the_validating_constructor_makes():
    """The walk builds its classes without the constructor's checks: each
    must equal the class the public constructor makes of its coefficients
    and their boundary, with int entries."""
    rng = random.Random(77)
    tables = [theta_constraint_table(), product_bundle(1, 1).table]
    tables += [random_table(rng, n=rng.randint(1, 4)) for _ in range(30)]
    found = 0
    for table in tables:
        for c in enumerate_candidate_classes(table, bounds=(-3, 3)):
            assert all(type(v) is int for v in c.coefficients + c.boundary_class)
            x = c.coefficients
            boundary = tuple(sum(r * v for r, v in zip(row, x)) for row in table.basis.boundary_matrix)
            assert c == DiscClass(list(x), list(boundary))
            found += 1
    assert found > 50


def test_random_tables_are_row_order_and_box_insensitive():
    rng = random.Random(411)
    for _ in range(20):
        table = random_table(rng)
        reference = [
            c.coefficients for c in enumerate_candidate_classes(table, bounds=(-3, 3))
        ]
        rows = list(table.rows)
        rng.shuffle(rows)
        shuffled = ConstraintTable(
            basis=table.basis,
            rows=tuple(rows),
            maslov_vector=table.maslov_vector,
            target_maslov=table.target_maslov,
        )
        assert [
            c.coefficients
            for c in enumerate_candidate_classes(shuffled, bounds=(-3, 3))
        ] == reference
        # a larger box only ever adds solutions outside the smaller one
        bigger = [
            c.coefficients for c in enumerate_candidate_classes(table, bounds=(-5, 5))
        ]
        assert set(reference) <= set(bigger)


def test_bounds_given_as_per_coordinate_pairs():
    table = theta_constraint_table()
    boxes = [(-4, 2), (-2, 2), (0, 2), (0, 2)]
    got = {c.coefficients for c in enumerate_candidate_classes(table, bounds=boxes)}
    assert got == THETA_CLASSES


def test_box_walk_matches_box_scan_oracle_on_per_coordinate_boxes():
    # the box is rows of the region's cascade: the walk must find exactly
    # the box points the raw constraints accept, whether the region without
    # the box is empty, bounded or unbounded, and with degenerate boxes
    rng = random.Random(7707)
    seen = {"empty": 0, "unbounded": 0, "degenerate": 0, "classes": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        table = random_table(rng, n=n, n_rows=rng.randint(0, n + 2))
        if rng.random() < 0.3:
            lo = rng.randint(-3, 1)
            box = (lo, lo + rng.randint(0, 3))
        else:
            box = []
            for _ in range(n):
                lo = rng.randint(-3, 1)
                box.append((lo, lo + rng.randint(0, 3)))
        got = [c.coefficients for c in enumerate_candidate_classes(table, bounds=box)]
        assert got == box_scan_oracle(table, box)
        seen["empty"] += discs._region(table)[0] is None
        seen["unbounded"] += not feasible_region_bounded(table).bounded
        seen["degenerate"] += any(lo == hi for lo, hi in ([box] if isinstance(box, tuple) else box))
        seen["classes"] += bool(got)
    assert min(seen.values()) > 20, seen


def test_wide_boxes_are_walked_not_scanned():
    # 41^4 = 2825761 and 7^8 = 5764801 box points, each over the lattice
    # budget, but the walk tries only values the region allows
    theta = theta_constraint_table()
    got = [c.coefficients for c in enumerate_candidate_classes(theta, bounds=(-20, 20))]
    assert got == sorted(THETA_CLASSES)
    table, expected = product("TT")
    got = [c.coefficients for c in enumerate_candidate_classes(table, bounds=(-3, 3))]
    assert got == sorted(expected) and len(got) == 10


def huge_interval_table(width):
    """x_1 = 1 and 0 <= x_0 <= width: the walk tries width + 1 values of x_0
    and one value of x_1 after each."""
    return ConstraintTable(
        basis=plain_basis(2),
        rows=(("lo", (1, 0)), ("hi", (-1, width))),
        maslov_vector=(0, 2),
        target_maslov=2,
    )


def test_lattice_walk_and_box_scan_stop_at_the_budget(monkeypatch):
    over = "^discs: 1000000001 lattice points exceed the budget of 1000000$"
    with pytest.raises(CapExceeded, match=over):
        enumerate_candidate_classes(huge_interval_table(10**9))
    # a box is walked like the region it cuts, so the walk's count is its
    # only budget: here the box alone bounds x_0 above
    only_lower = ConstraintTable(plain_basis(2), (("lo", (1, 0)),), (0, 2))
    with pytest.raises(CapExceeded, match=over):
        enumerate_candidate_classes(only_lower, bounds=[(0, 10**9), (0, 2)])
    monkeypatch.setattr(discs, "LATTICE_BUDGET", 10)
    assert len(enumerate_candidate_classes(huge_interval_table(4))) == 5  # 10 points
    with pytest.raises(CapExceeded):
        enumerate_candidate_classes(huge_interval_table(5))
    assert len(enumerate_candidate_classes(huge_interval_table(9), bounds=[(0, 4), (0, 1)])) == 5
    # a 15-point box of which the walk tries 10 values: 5 of x_0, 1 of x_1 after each
    assert len(enumerate_candidate_classes(huge_interval_table(9), bounds=[(0, 4), (0, 2)])) == 5
    with pytest.raises(CapExceeded) as refused:
        enumerate_candidate_classes(huge_interval_table(9), bounds=[(0, 9), (0, 2)])
    assert (refused.value.count, refused.value.budget) == (11, 10)


# ---------------------------------------------------------------------------
# boundedness


def test_theta_region_is_bounded():
    assert feasible_region_bounded(theta_constraint_table()).bounded


def test_unbounded_without_rows():
    table = ConstraintTable(
        basis=plain_basis(2), rows=(), maslov_vector=(2, 0), target_maslov=2
    )
    result = feasible_region_bounded(table)
    assert not result.bounded
    assert result.ray == (0, 1)
    with pytest.raises(UnboundedRegion) as err:
        enumerate_candidate_classes(table)
    assert err.value.ray == (0, 1)


def test_unbounded_with_explicit_box_still_enumerates():
    table = ConstraintTable(
        basis=plain_basis(2), rows=(), maslov_vector=(2, 0), target_maslov=2
    )
    got = [c.coefficients for c in enumerate_candidate_classes(table, bounds=(-2, 2))]
    assert got == [(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)]


def test_empty_region_is_bounded_even_with_free_directions():
    # x1 <= 0 against the target 2*x1 = 2: no solutions; x2 is free in the
    # cone but the empty region still counts as bounded
    table = ConstraintTable(
        basis=plain_basis(2),
        rows=(("r", (-1, 0)),),
        maslov_vector=(2, 0),
        target_maslov=2,
    )
    assert feasible_region_bounded(table).bounded
    assert enumerate_candidate_classes(table) == []


def test_bounded_simplex_cone():
    table = ConstraintTable(
        basis=plain_basis(2),
        rows=(("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1))),
        maslov_vector=(2, 2),
        target_maslov=2,
    )
    assert feasible_region_bounded(table).bounded
    assert enumerate_candidate_classes(table) == []


def test_each_public_call_runs_one_cascade(monkeypatch):
    # the witness ray is read from the region's own rounds: no call runs a
    # further elimination, whether the region is bounded, unbounded or empty;
    # a boxed call runs the same one cascade, with the box as rows
    calls = []
    cascade = discs._fm_cascade
    monkeypatch.setattr(discs, "_fm_cascade", lambda *args: calls.append(args) or cascade(*args))
    unbounded = ConstraintTable(plain_basis(3), (), (2, 0, 0))
    empty = ConstraintTable(plain_basis(2), (("r", (-1, 0)),), (2, 0))
    for table, bounded in ((theta_constraint_table(), True), (unbounded, False), (empty, True)):
        calls.clear()
        assert feasible_region_bounded(table).bounded is bounded
        assert len(calls) == 1
        calls.clear()
        if bounded:
            enumerate_candidate_classes(table)
        else:
            with pytest.raises(UnboundedRegion):
                enumerate_candidate_classes(table)
        assert len(calls) == 1
        calls.clear()
        enumerate_candidate_classes(table, bounds=(-2, 2))
        assert len(calls) == 1


def test_witness_ray_lies_in_the_recession_cone():
    rng = random.Random(99)
    seen_unbounded = 0
    for _ in range(60):
        table = random_table(rng, n=3, n_rows=2)
        result = feasible_region_bounded(table)
        if result.bounded:
            continue
        seen_unbounded += 1
        ray = result.ray
        assert any(ray)
        assert all(
            sum(r * c for r, c in zip(vec, ray)) >= 0 for _, vec in table.rows
        )
        assert sum(m * c for m, c in zip(table.maslov_vector, ray)) == 0
    assert seen_unbounded > 5


# ---------------------------------------------------------------------------
# the unbounded-box path (no `bounds`) against independent oracles

def product(symbols):
    """The table of a product of theta (T) and circle (C) factors, theta
    first, and its padded factor classes, padded here from the factors'
    hand-written classes (not enumerated from the product table)."""
    factors = sorted(symbols, key="TC".index)
    widths = [4 if s == "T" else 2 for s in factors]
    classes = set()
    for i, s in enumerate(factors):
        before, after = sum(widths[:i]), sum(widths[i + 1:])
        classes |= {(0,) * before + c + (0,) * after
                    for c in (THETA_CLASSES if s == "T" else C_CLASSES)}
    return product_bundle(symbols.count("T"), symbols.count("C")).table, classes


def test_product_classes_are_the_padded_factor_classes():
    table, classes = product("TC")
    assert classes == {c + (0, 0) for c in THETA_CLASSES} | {(0,) * 4 + c for c in C_CLASSES}
    # a product preset's classes are its table's, in lexicographic order
    for symbols in ("T", "C", "TC", "CC", "TTC"):
        bundle = product_bundle(symbols.count("T"), symbols.count("C"))
        classes = [c.coefficients for c, _ in bundle.potential.provenance]
        assert classes == sorted(product(symbols)[1])
    assert table.basis.ring_names == ("R_1", "T_1", "S1_1", "S2_1", "R_2", "S_2")
    assert table.basis.boundary_matrix == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                                           (0, 0, 0, 0, 1, 0))
    assert [vec for _, vec in table.rows[-2:]] == [(0,) * 4 + (1, 1), (0,) * 4 + (0, 1)]
    assert table.maslov_vector == (2, 0, 4, 4, 2, 4)
    with pytest.raises(ValueError):
        product_bundle(0, 0)


def recoordinatise(table, rng, steps):
    """The table in coordinates x' with x = M x'.  M is block triangular in
    (carrier, surface) blocks with unimodular diagonal blocks, so surface
    columns stay boundary-free."""
    n = len(table.basis.names)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for block in (table.basis.boundary_indices, surface_indices(table.basis)):
        for _ in range(steps if len(block) > 1 else 0):
            i, j = rng.sample(block, 2)
            sign = rng.choice((1, -1))
            for k in block:
                m[i][k] += sign * m[j][k]
    for _ in range(steps):
        i = rng.choice(surface_indices(table.basis))
        m[i][rng.choice(table.basis.boundary_indices)] += rng.choice((1, -1))
    times_m = lambda v: tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))
    basis = HomologyBasis(
        names=table.basis.names,
        boundary_matrix=tuple(times_m(row) for row in table.basis.boundary_matrix),
        n_torus_rank=table.basis.n_torus_rank,
    )
    rows = tuple((label, times_m(vec)) for label, vec in table.rows)
    return ConstraintTable(basis, rows, times_m(table.maslov_vector), table.target_maslov), m


def solve_exact(matrix, rhs):
    """The unique solution of a square rational system, or None."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def vertex_box(table):
    """Integer box strictly containing every vertex of the region, or None
    when it has none.  Vertices are where n-1 rows and the Maslov equation
    are active; a bounded region is empty iff it has no vertex."""
    n = len(table.basis.names)
    rows = [vec for _, vec in table.rows]
    vertices = []
    for active in itertools.combinations(rows, n - 1):
        point = solve_exact(list(active) + [table.maslov_vector],
                            [0] * (n - 1) + [table.target_maslov])
        if point is not None and all(
            sum(r * x for r, x in zip(vec, point)) >= 0 for vec in rows
        ):
            vertices.append(point)
    if not vertices:
        return None
    lo = min(math.floor(x) for v in vertices for x in v) - 1
    hi = max(math.ceil(x) for v in vertices for x in v) + 1
    return lo, hi


def test_recoordinatised_products_map_back_to_the_known_classes():
    rng = random.Random(3031)
    for symbols, steps, count in (("T", 2, 12), ("CC", 2, 10), ("TC", 1, 6)):
        base, expected = product(symbols)
        for _ in range(count):
            table, m = recoordinatise(base, rng, steps)
            n = len(m)
            classes = enumerate_candidate_classes(table)
            got = {tuple(sum(m[i][j] * c.coefficients[j] for j in range(n)) for i in range(n))
                   for c in classes}
            assert got == expected
            assert len(classes) == len(expected)
            assert [c.coefficients for c in classes] == sorted(c.coefficients for c in classes)
            for c in classes:
                assert c.boundary_class == table.basis.boundary_of(c.coefficients)


def test_random_bounded_tables_match_box_scan_oracle():
    rng = random.Random(5150)
    checked = empty = with_classes = 0
    while checked < 40:
        n = rng.randint(1, 4)
        table = random_table(rng, n=n, n_rows=rng.randint(n, n + 3))
        if not feasible_region_bounded(table).bounded:
            continue
        got = [c.coefficients for c in enumerate_candidate_classes(table)]
        box = vertex_box(table)
        if box is None:
            assert got == []
            empty += 1
            continue
        assert got == box_scan_oracle(table, box)
        checked += 1
        with_classes += bool(got)
    assert empty > 10 and with_classes > 20


def test_theta_cubed_and_theta_squared_circle_without_bounds():
    # theta^3 has 12 variables: its projection box holds 46656 points, of
    # which 15 are classes
    for symbols, count in (("TTT", 15), ("TTC", 12)):
        table, expected = product(symbols)
        got = [c.coefficients for c in enumerate_candidate_classes(table)]
        assert got == sorted(expected)
        assert len(got) == count


# ---------------------------------------------------------------------------
# boundedness verdicts and rays against the recession-cone reference


def reference_bounded(table):
    """Self-contained reference: a full Fourier-Motzkin elimination for a
    feasible point, then 2n eliminations on the recession cone with one
    coordinate fixed to +-1; returns (bounded, ray)."""

    def normalize(coeffs, const):
        scale = next((abs(c) for c in coeffs if c != 0), abs(const) or Fraction(1))
        return tuple(c / scale for c in coeffs), const / scale

    def feasible_point(constraints, n):
        work = []
        for coeffs, const in constraints:
            coeffs, const = tuple(Fraction(c) for c in coeffs), Fraction(const)
            if not any(coeffs):
                if const < 0:
                    return None
                continue
            work.append(normalize(coeffs, const))
        rounds = []
        for j in range(n - 1, -1, -1):
            pos = [c for c in work if c[0][j] > 0]
            neg = [c for c in work if c[0][j] < 0]
            new = set()
            combined = [c for c in work if c[0][j] == 0] + [
                (tuple(-bc[j] * a + ac[j] * b for a, b in zip(ac, bc)), -bc[j] * a0 + ac[j] * b0)
                for ac, a0 in pos
                for bc, b0 in neg
            ]
            for coeffs, const in combined:
                if not any(coeffs):
                    if const < 0:
                        return None
                    continue
                new.add(normalize(coeffs, const))
            work = list(new)
            rounds.append((j, pos, neg))
        point = [Fraction(0)] * n
        for j, pos, neg in reversed(rounds):
            value = lambda coeffs, const: -(
                const + sum(c * point[i] for i, c in enumerate(coeffs) if i != j)
            ) / coeffs[j]
            lowers = [value(*c) for c in pos]
            uppers = [value(*c) for c in neg]
            if lowers and uppers:
                point[j] = (max(lowers) + min(uppers)) / 2
            elif lowers or uppers:
                point[j] = max(lowers) if lowers else min(uppers)
        return point

    n = len(table.basis.names)
    mu, t = table.maslov_vector, table.target_maslov
    region = [(vec, 0) for _, vec in table.rows]
    if feasible_point(region + [(mu, -t), (tuple(-m for m in mu), t)], n) is None:
        return True, None
    cone = region + [(mu, 0), (tuple(-m for m in mu), 0)]
    for i in range(n):
        for sign in (1, -1):
            unit = tuple(int(k == i) * sign for k in range(n))
            point = feasible_point(cone + [(unit, -1), (tuple(-u for u in unit), 1)], n)
            if point is not None:
                scale = math.lcm(*(x.denominator for x in point))
                ints = [int(x * scale) for x in point]
                g = math.gcd(*ints)
                return False, tuple(v // g for v in ints)
    return True, None


def test_boundedness_and_rays_match_the_reference():
    rng = random.Random(1212)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        table = random_table(rng, n=n, n_rows=rng.randint(0, n + 2))
        result = feasible_region_bounded(table)
        assert (result.bounded, result.ray) == reference_bounded(table)
        verdicts[result.bounded] += 1
        if result.bounded:
            continue
        with pytest.raises(UnboundedRegion) as err:
            enumerate_candidate_classes(table)
        assert err.value.ray == result.ray
    assert min(verdicts.values()) > 30


# ---------------------------------------------------------------------------
# the integer, Chernikov-pruned cascade against a copy of the Fraction one
#
# The reference is the cascade as it was before rows became primitive integer
# rows and Chernikov's rule pruned them: every constraint is kept as
# `fractions.Fraction`s scaled so its first nonzero coefficient is +-1, every
# pairwise combination survives but exact duplicates, and boundedness,
# the 2n recession-cone ray search and the prefix walk each run their own
# cascade.


def ref_normalize_constraint(coeffs, const):
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        scale = abs(const) if const else Fraction(1)
    return tuple(c / scale for c in coeffs), const / scale


def ref_fm_eliminate_var(constraints, j):
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
        new.add(ref_normalize_constraint(coeffs, const))
    for (ac, a0) in pos:
        for (bc, b0) in neg:
            lam, mu = -bc[j], ac[j]
            coeffs = tuple(lam * a + mu * b for a, b in zip(ac, bc))
            const = lam * a0 + mu * b0
            if all(c == 0 for c in coeffs):
                if const < 0:
                    return None, pos, neg
                continue
            new.add(ref_normalize_constraint(coeffs, const))
    return list(new), pos, neg


def ref_fm_cascade(constraints, nvars):
    work = []
    for coeffs, const in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        const = Fraction(const)
        if all(c == 0 for c in coeffs):
            if const < 0:
                return None
            continue
        work.append(ref_normalize_constraint(coeffs, const))
    rounds = []
    for j in range(nvars - 1, -1, -1):
        work, pos, neg = ref_fm_eliminate_var(work, j)
        if work is None:
            return None
        rounds.append((pos, neg))
    rounds.reverse()
    return rounds


def ref_fm_feasible_point(constraints, nvars):
    rounds = ref_fm_cascade(constraints, nvars)
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


def ref_table_constraints(table, homogeneous):
    out = [(vec, 0) for _, vec in table.rows]
    target = 0 if homogeneous else -table.target_maslov
    out.append((table.maslov_vector, target))
    out.append((tuple(-m for m in table.maslov_vector), -target))
    return out


def cascade_reference_bounded(table):
    """(bounded, ray): the cascade's verdict, then the 2n eliminations on the
    recession cone with one coordinate fixed to +-1, first hit wins."""
    n = len(table.basis.names)
    rounds = ref_fm_cascade(ref_table_constraints(table, homogeneous=False), n)
    if rounds is None or all(pos and neg for pos, neg in rounds):
        return True, None
    cone = ref_table_constraints(table, homogeneous=True)
    for i in range(n):
        for sign in (1, -1):
            unit = tuple(int(k == i) * sign for k in range(n))
            point = ref_fm_feasible_point(cone + [(unit, -1), (tuple(-u for u in unit), 1)], n)
            if point is not None:
                scale = math.lcm(*(x.denominator for x in point))
                ints = [int(x * scale) for x in point]
                g = math.gcd(*ints)
                return False, tuple(v // g for v in ints)
    return True, None


def reference_classes(table):
    """The classes in walk order, raising `UnboundedRegion` with
    `cascade_reference_bounded`'s ray."""
    n = len(table.basis.names)
    rounds = ref_fm_cascade(ref_table_constraints(table, homogeneous=False), n)
    if rounds is None:
        return []
    if not all(pos and neg for pos, neg in rounds):
        raise UnboundedRegion(cascade_reference_bounded(table)[1])

    def integer_round(constraints, k):
        out = []
        for coeffs, const in constraints:
            scale = math.lcm(const.denominator, *(c.denominator for c in coeffs[: k + 1]))
            ints = [int(c * scale) for c in coeffs[: k + 1]]
            out.append((ints[k], tuple(ints[:k]), int(const * scale)))
        return out

    scaled = [(integer_round(pos, k), integer_round(neg, k)) for k, (pos, neg) in enumerate(rounds)]
    rows = [vec for _, vec in table.rows]
    found, prefix = [], []

    def extend():
        k = len(prefix)
        if k == n:
            x = tuple(prefix)
            mu_x = sum(m * c for m, c in zip(table.maslov_vector, x))
            if mu_x == table.target_maslov and all(
                sum(r * c for r, c in zip(vec, x)) >= 0 for vec in rows
            ):
                found.append(DiscClass(x, table.basis.boundary_of(x)))
            return
        lowers, uppers = scaled[k]
        lo = max(-((b + sum(c * x for c, x in zip(cs, prefix))) // a) for a, cs, b in lowers)
        hi = min((b + sum(c * x for c, x in zip(cs, prefix))) // -a for a, cs, b in uppers)
        for value in range(lo, hi + 1):
            prefix.append(value)
            extend()
            prefix.pop()

    extend()
    return found


def outcome(enumerate_classes, table):
    """A table's class list, or the message of the error it raises."""
    try:
        return enumerate_classes(table)
    except UnboundedRegion as exc:
        return f"UnboundedRegion: {exc}"


def test_classes_and_errors_match_the_fraction_reference():
    rng = random.Random(6006)
    tables = []
    for _ in range(300):
        n = rng.randint(1, 4)
        tables.append(random_table(rng, n=n, n_rows=rng.randint(n, n + 4)))
    for symbols in ("T", "CC"):
        base = product(symbols)[0]
        for _ in range(10):
            table = recoordinatise(base, rng, 2)[0]
            rows = list(table.rows)
            tables.append(ConstraintTable(table.basis, tuple(rows[1:]), table.maslov_vector))
            tables.append(table)
    seen = {"classes": 0, "empty": 0, "unbounded": 0}
    for table in tables:
        got = outcome(enumerate_candidate_classes, table)
        assert got == outcome(reference_classes, table)
        result = feasible_region_bounded(table)
        assert (result.bounded, result.ray) == cascade_reference_bounded(table)
        assert (result.bounded, result.ray) == reference_bounded(table)
        kind = "unbounded" if isinstance(got, str) else "classes" if got else "empty"
        seen[kind] += 1
    assert min(seen.values()) > 30


def test_five_variable_blowup_table_matches_the_fraction_reference():
    # 5 variables and 8 rows, unbounded: unpruned, the region's cascade keeps
    # 10 -> 18 -> 41 -> 95 -> 1231 constraints over its rounds, pruned
    # 10 -> 18 -> 16 -> 10 -> 7, and the ray comes from the cone cascades
    table = random_table(random.Random(5), n=5, n_rows=8)
    assert outcome(enumerate_candidate_classes, table) == outcome(reference_classes, table)
    result = feasible_region_bounded(table)
    assert (result.bounded, result.ray) == cascade_reference_bounded(table)


def without_surface_generator(table, j):
    """The table sliced by x_j = 0 for a surface generator j: its boundary
    column is zero, so the other generators keep a valid basis."""
    keep = lambda v: v[:j] + v[j + 1 :]
    basis = HomologyBasis(keep(table.basis.names),
                          tuple(keep(row) for row in table.basis.boundary_matrix),
                          table.basis.n_torus_rank)
    rows = tuple((label, keep(vec)) for label, vec in table.rows)
    return ConstraintTable(basis, rows, keep(table.maslov_vector), table.target_maslov)


def test_rays_of_five_and_six_variable_products_match_the_cone_cascades():
    # re-coordinatised TC and CCC tables (6 variables) and their slices by a
    # surface coordinate (5 variables), with one to three rows dropped: the
    # ray read from the region's rounds is the first one the 2n cascades on
    # the recession cone with a coordinate fixed to +-1 find
    rng = random.Random(1313)
    unbounded = {5: 0, 6: 0}
    for symbols in ("TC", "CCC"):
        base = product(symbols)[0]
        for index in range(40):
            table = recoordinatise(base, rng, rng.randint(1, 2))[0]
            if index % 2:
                table = without_surface_generator(table, rng.choice(surface_indices(table.basis)))
            rows = list(table.rows)
            for _ in range(rng.randint(1, 3)):
                del rows[rng.randrange(len(rows))]
            table = ConstraintTable(table.basis, tuple(rows), table.maslov_vector)
            result = feasible_region_bounded(table)
            assert (result.bounded, result.ray) == cascade_reference_bounded(table)
            assert outcome(enumerate_candidate_classes, table) == outcome(reference_classes, table)
            unbounded[len(table.basis.names)] += not result.bounded
    assert min(unbounded.values()) > 20


def round_interval(lowers, uppers, prefix):
    """x_k's interval at `prefix` from rows `a x_k + cs . prefix + b >= 0`;
    None for a missing end."""
    ends = [
        [Fraction(-(b + sum(c * x for c, x in zip(cs, prefix))), a) for a, cs, b in side]
        for side in (lowers, uppers)
    ]
    return max(ends[0], default=None), min(ends[1], default=None)


def ref_round_interval(pos, neg, prefix):
    k = len(prefix)
    return round_interval(
        *([(coeffs[k], coeffs[:k], const) for coeffs, const in side] for side in (pos, neg)),
        prefix,
    )


def test_pruned_cascade_has_the_projections_of_the_unpruned_one():
    # Systems shaped like a ray search's: rows with entries in {-1, 0, 1},
    # the Maslov equation and one coordinate fixed to +-1, each equation as
    # two opposite rows, so one row is often reached by several combinations
    # of different input rows and the origins it keeps decide which later
    # combinations Chernikov's rule drops.  At prefixes drawn from the
    # reference's projections, x_k's interval must be the same.
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(3, 5)
        system = [
            (tuple(rng.randint(-1, 1) for _ in range(n)), 0) for _ in range(rng.randint(n, n + 3))
        ]
        mu = tuple(rng.choice([-2, 0, 2]) for _ in range(n))
        i, sign = rng.randrange(n), rng.choice([1, -1])
        unit = tuple(sign * int(k == i) for k in range(n))
        system += [(mu, 0), (tuple(-m for m in mu), 0), (unit, -1), (tuple(-u for u in unit), 1)]
        rounds, ref = discs._fm_cascade(system, n), ref_fm_cascade(system, n)
        assert (rounds is None) == (ref is None)
        if ref is None:
            continue
        for _ in range(8):
            prefix = []
            for k in range(n):
                lo, hi = ref_round_interval(*ref[k], prefix)
                assert round_interval(*rounds[k], prefix) == (lo, hi)
                ends = [x for x in (lo, hi) if x is not None]
                if lo is not None and hi is not None:
                    ends.append((lo + hi) / 2)
                prefix.append(rng.choice(ends) if ends else Fraction(rng.randint(-2, 2)))


# 4 variables, entries in {-1, 0, 1}, all bounded.  Keeping for a row
# reached twice anything but the origins its derivations share (the smaller
# origin set, the larger, the first, the last or their union) loses a row
# the projection needs on at least one of these, and the region is called
# unbounded or its classes come out wrong.
SHARED_ORIGIN_TABLES = [
    (
        ((-1, 1, -1, -1), (-1, -1, 0, 1), (-1, -1, 1, 1), (1, -1, -1, -1), (1, 1, 1, -1)),
        (-2, -2, 2, 0),
        [(-1, 0, 0, -1), (0, -1, 0, -1)],
    ),
    (
        ((0, 0, 0, -1), (0, -1, 1, 0), (0, 0, 1, -1), (1, -1, 0, 1),
         (0, -1, -1, -1), (0, 0, 1, 1), (-1, -1, 0, 1), (0, 1, 1, 0)),
        (0, 0, 2, -2),
        [(-1, -1, 1, 0), (0, -1, 1, 0), (1, -1, 1, 0)],
    ),
    (
        ((0, 0, 0, 1), (1, 1, -1, 0), (1, 1, -1, 1), (0, 1, -1, -1), (-1, -1, 1, 1), (0, 0, 1, -1)),
        (0, -2, 0, -2),
        [],
    ),
    (
        ((1, 0, 1, 0), (1, 1, -1, 0), (1, 0, -1, 0), (-1, 0, 1, 1),
         (-1, 1, 1, -1), (1, -1, -1, 0), (1, -1, -1, -1)),
        (0, 2, 0, 2),
        [],
    ),
]


@pytest.mark.parametrize("rows, maslov, expected", SHARED_ORIGIN_TABLES)
def test_rows_reached_twice_keep_the_origins_their_derivations_share(rows, maslov, expected):
    table = ConstraintTable(plain_basis(4), tuple((f"r{i}", v) for i, v in enumerate(rows)), maslov)
    got = [c.coefficients for c in enumerate_candidate_classes(table)]
    assert got == expected == box_scan_oracle(table, (-3, 3))
    assert feasible_region_bounded(table).bounded


# ---------------------------------------------------------------------------
# validation and serialization


def test_basis_validation():
    with pytest.raises(ValueError):
        HomologyBasis(names=("A", "A"), boundary_matrix=((1, 0),), n_torus_rank=1)
    with pytest.raises(ValueError):
        # boundary submatrix not unimodular
        HomologyBasis(names=("A", "B"), boundary_matrix=((2, 0), (0, 1)), n_torus_rank=2)
    with pytest.raises(ValueError):
        # carrier count disagrees with rank
        HomologyBasis(names=("A", "B"), boundary_matrix=((1, 1),), n_torus_rank=1)
    with pytest.raises(ValueError, match="one row per torus rank"):
        HomologyBasis(names=("A", "B"), boundary_matrix=((1, 0),), n_torus_rank=2)
    with pytest.raises(ValueError, match="width must match generator count"):
        HomologyBasis(names=("A", "B"), boundary_matrix=((1, 0, 0), (0, 1, 0)), n_torus_rank=2)
    with pytest.raises(ValueError, match="a torus has rank at least 1, got 0"):
        HomologyBasis(names=("S",), boundary_matrix=(), n_torus_rank=0)
    with pytest.raises(ValueError, match="ring_names must match generator count"):
        HomologyBasis(("A", "B"), ((1, 0), (0, 1)), 2, ring_names=("R",))
    with pytest.raises(ValueError, match="row 'a' has length 3, expected 2"):
        ConstraintTable(plain_basis(2), (("a", (1, 0, 0)),), (2, 2))
    with pytest.raises(ValueError, match="maslov vector length must match basis size"):
        ConstraintTable(plain_basis(2), (), (2, 2, 2))


def test_duplicate_ring_names_are_rejected():
    # ("R", "R") would print a potential as `R + R` and take the second
    # toric differential on the first variable
    with pytest.raises(ValueError, match=r"^names must be distinct, got \('R', 'R'\)$"):
        HomologyBasis(("A", "B"), ((1, 0), (0, 1)), 2, ring_names=("R", "R"))
    with pytest.raises(ValueError, match=r"^names must be distinct, got \('A', 'A'\)$"):
        HomologyBasis(("A", "A"), ((1, 0), (0, 1)), 2)
    with pytest.raises(ValueError, match="'AB' is a string, not a list of names"):
        HomologyBasis("AB", ((1, 0), (0, 1)), 2)


def test_odd_maslov_warns_but_does_not_reject():
    with pytest.warns(UserWarning):
        ConstraintTable(
            basis=plain_basis(1), rows=(), maslov_vector=(1,), target_maslov=2
        )


def test_non_integral_fields_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="1.7 is not an integer"):
        HomologyBasis(names=("A", "B"), boundary_matrix=((1.7, 0), (0, 1)), n_torus_rank=2)
    for rank in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="is not an integer"):
            HomologyBasis(names=("A",), boundary_matrix=((1,),), n_torus_rank=rank)
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        ConstraintTable(plain_basis(2), (("a", (1.5, 0)),), (2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 2.5 is rejected, not read as an even 2
        with pytest.raises(ValueError, match="2.5 is not an integer"):
            ConstraintTable(plain_basis(2), (), (2.5, 2))
    for coefficients, boundary in (((0.5, 1), (0, 1)), ((0, 1), (Fraction(1, 2), 1))):
        with pytest.raises(ValueError, match="is not an integer"):
            DiscClass(coefficients, boundary)
    # integral values of other types are stored as ints
    basis = HomologyBasis(("A", "B"), ((1.0, 0), (0, Fraction(1))), 2.0)
    table = ConstraintTable(basis, (("a", (Fraction(1), 0.0)),), (2.0, Fraction(2)))
    found = DiscClass((1.0, Fraction(-1)), (2.0, 0))
    for values in (*basis.boundary_matrix, table.rows[0][1], table.maslov_vector,
                   found.coefficients, found.boundary_class,
                   (basis.n_torus_rank, basis_to_json(basis)["n_torus_rank"])):
        assert all(type(x) is int for x in values)


def test_non_integral_table_file_fields_are_rejected():
    data = table_to_json(theta_constraint_table())
    for key, value in (("target", 2.5), ("n_torus_rank", 2.5), ("maslov", [2, 2, 2.5, 2])):
        with pytest.raises(ValueError):
            table_from_json({**data, key: value})


def test_integral_target_is_stored_as_int_and_a_fractional_one_rejected():
    rows = (("a", (1, 0)), ("b", (0, 1)))
    for target in (2.0, Fraction(2), 2):
        table = ConstraintTable(plain_basis(2), rows, (2, 2), target_maslov=target)
        assert type(table.target_maslov) is int
        got = [c.coefficients for c in enumerate_candidate_classes(table)]
        assert got == [(0, 1), (1, 0)]
    with pytest.raises(ValueError, match="is not an integer"):
        ConstraintTable(plain_basis(2), rows, (2, 2), target_maslov=Fraction(5, 2))


def test_target_is_checked_like_every_other_integer_field():
    # strings are refused here as in the rows and the Maslov vector, even
    # when they spell an integer
    rows = (("a", (1, 0)), ("b", (0, 1)))
    for target in ("2", "4/2", 2.5):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(target))} is not an integer$"):
            ConstraintTable(plain_basis(2), rows, (2, 2), target_maslov=target)
        with pytest.raises(ValueError):
            ConstraintTable(plain_basis(2), (("a", (target, 0)),), (2, 2))
    for target in (2.0, Fraction(2)):
        table = ConstraintTable(plain_basis(2), rows, (2, 2), target_maslov=target)
        assert table.target_maslov == 2 and type(table.target_maslov) is int


def test_table_json_roundtrip():
    table = theta_constraint_table()
    data = table_to_json(table)
    back, bounds = table_from_json(data)
    assert bounds is None
    assert back == table
    data["bounds"] = [-3, 3]
    _, bounds = table_from_json(data)
    assert bounds == [(-3, 3)] * 4
    data["bounds"] = [[-4, 2], [-2, 2], [0, 2], [0, 2]]
    _, bounds = table_from_json(data)
    assert bounds == [(-4, 2), (-2, 2), (0, 2), (0, 2)]


def test_default_ring_names_split_carriers_and_surfaces():
    basis = HomologyBasis(
        names=("X", "Y", "Z"),
        boundary_matrix=((0, 1, 0),),
        n_torus_rank=1,
    )
    assert basis.ring_names == ("S1", "R1", "S2")
    assert basis.boundary_indices == (1,)
    # the carriers are stored at construction, outside repr, == and hash
    assert repr(basis) == (
        "HomologyBasis(names=('X', 'Y', 'Z'), boundary_matrix=((0, 1, 0),), "
        "n_torus_rank=1, ring_names=('S1', 'R1', 'S2'))"
    )
    again = HomologyBasis(("X", "Y", "Z"), ((0, 1, 0),), 1)
    assert again == basis and hash(again) == hash(basis)
    assert "boundary_indices" in HomologyBasis.__slots__  # a slot, not a property
