import itertools
import math
import random
from fractions import Fraction

import pytest

from twistkit.discs import (
    ConstraintTable,
    HomologyBasis,
    enumerate_candidate_classes,
    feasible_region_bounded,
    table_from_json,
    table_to_json,
)
from twistkit.errors import UnboundedRegion
from twistkit.presets import theta_constraint_table

THETA_CLASSES = {
    (1, 0, 0, 0),
    (-1, -1, 1, 0),
    (-1, 0, 1, 0),
    (-1, 0, 0, 1),
    (-1, 1, 0, 1),
}


def plain_basis(n, names=None):
    return HomologyBasis(
        names=names or tuple(f"G{i}" for i in range(n)),
        boundary_matrix=tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ),
        n_torus_rank=n,
    )


def box_scan_oracle(table, box):
    """Exhaustive scan of the box, filtering by the raw constraints."""
    lo, hi = box
    n = len(table.basis.names)
    hits = []
    for x in itertools.product(range(lo, hi + 1), repeat=n):
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

C_CLASSES = {(1, 0), (-1, 1)}


def clifford_table():
    """The Clifford circle in S2: disc D and sphere S."""
    return ConstraintTable(
        basis=HomologyBasis(names=("D", "S"), boundary_matrix=((1, 0),), n_torus_rank=1),
        rows=(("0", (1, 1)), ("inf", (0, 1))),
        maslov_vector=(2, 4),
        target_maslov=2,
    )


FACTORS = {"T": (theta_constraint_table, THETA_CLASSES), "C": (clifford_table, C_CLASSES)}


def product_table(symbols):
    """Block-diagonal table of a product of theta (T) and Clifford (C)
    factors, with the factor classes padded by zeros."""
    tables = [FACTORS[s][0]() for s in symbols]
    width = sum(len(t.basis.names) for t in tables)
    names, boundary, rows, mu, classes = [], [], [], [], set()
    offset = 0
    for i, (s, t) in enumerate(zip(symbols, tables)):
        size = len(t.basis.names)
        pad = lambda v: (0,) * offset + tuple(v) + (0,) * (width - offset - size)
        names += [f"{name}_{i}" for name in t.basis.names]
        boundary += [pad(row) for row in t.basis.boundary_matrix]
        rows += [(f"{label}_{i}", pad(vec)) for label, vec in t.rows]
        mu += t.maslov_vector
        classes |= {pad(c) for c in FACTORS[s][1]}
        offset += size
    basis = HomologyBasis(names=tuple(names), boundary_matrix=tuple(boundary),
                          n_torus_rank=len(boundary))
    return ConstraintTable(basis, tuple(rows), tuple(mu), 2), classes


def recoordinatise(table, rng, steps):
    """The table in coordinates x' with x = M x'.  M is block triangular in
    (carrier, surface) blocks with unimodular diagonal blocks, so surface
    columns stay boundary-free."""
    n = len(table.basis.names)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for block in (table.basis.boundary_indices, table.basis.surface_indices):
        for _ in range(steps if len(block) > 1 else 0):
            i, j = rng.sample(block, 2)
            sign = rng.choice((1, -1))
            for k in block:
                m[i][k] += sign * m[j][k]
    for _ in range(steps):
        i = rng.choice(table.basis.surface_indices)
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
        base, expected = product_table(symbols)
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
        table, expected = product_table(symbols)
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


def test_odd_maslov_warns_but_does_not_reject():
    with pytest.warns(UserWarning):
        ConstraintTable(
            basis=plain_basis(1), rows=(), maslov_vector=(1,), target_maslov=2
        )


def test_table_json_roundtrip():
    table = theta_constraint_table()
    data = table_to_json(table)
    back, bounds = table_from_json(data)
    assert bounds is None
    assert back == table
    data["bounds"] = [-3, 3]
    _, bounds = table_from_json(data)
    assert bounds == (-3, 3)


def test_default_ring_names_split_carriers_and_surfaces():
    basis = HomologyBasis(
        names=("X", "Y", "Z"),
        boundary_matrix=((0, 1, 0),),
        n_torus_rank=1,
    )
    assert basis.ring_names == ("S1", "R1", "S2")
    assert basis.boundary_indices == (1,)
    assert basis.surface_indices == (0, 2)
