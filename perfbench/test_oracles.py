"""Tests of the benchmark's own oracles and input generators.

    python3 -m pytest perfbench

Each oracle is checked on cases whose answer is known by hand or from the
paper, so a wrong oracle cannot pass a wrong program.
"""

from fractions import Fraction

import oracles
import workloads

THETA = workloads.FACTORS["T"]
THETA_CLASSES = [(-1, -1, 1, 0), (-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 1), (1, 0, 0, 0)]


def test_det_and_matrix_vector():
    assert oracles.det([[1, 2], [3, 4]]) == -2
    assert oracles.det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert oracles.det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert oracles.det([[1, 2], [2, 4]]) == 0
    assert oracles.mat_vec([[1, 1], [0, 1]], (2, 3)) == (5, 3)


def test_box_scan_finds_the_five_theta_classes():
    assert oracles.box_scan(THETA["rows"], THETA["mu"], 2, 3) == THETA_CLASSES


def test_padded_union_and_map_back():
    assert oracles.padded_union([[(1,), (2,)], [(3, 4)]]) == [(0, 3, 4), (1, 0, 0), (2, 0, 0)]
    shear = [[1, 1], [0, 1]]
    assert oracles.map_back([(0, 1), (1, 0)], shear) == [(1, 0), (1, 1)]


def test_unbounded_ray_conditions():
    rows, mu = [(1, 1)], (2, 4)  # the circle table without its second row
    assert oracles.check_unbounded_ray((2, -1), rows, mu)
    assert not oracles.check_unbounded_ray((0, 0), rows, mu)
    assert not oracles.check_unbounded_ray((-2, 1), rows, mu)  # rows . r < 0
    assert not oracles.check_unbounded_ray((1, 0), rows, mu)  # mu . r != 0


def test_laurent_arithmetic():
    one_plus_x = {(0,): 1, (1,): 1}
    assert oracles.poly_mul("GF2", one_plus_x, one_plus_x) == {(0,): 1, (2,): 1}
    assert oracles.poly_mul("Q", one_plus_x, one_plus_x) == {(0,): 1, (1,): 2, (2,): 1}
    assert oracles.poly_add("Q", {(1,): Fraction(1, 2)}, {(1,): Fraction(-1, 2)}) == {}


def test_theta_toric_differentials_match_the_paper():
    # U = R + R^-1 (T^-1 S1 + S1 + S2 + T S2); over GF2 v_R keeps every term
    # and v_T the two with odd T exponent
    v_r, v_t = oracles.toric_differentials(THETA_CLASSES, THETA["carriers"])
    assert v_r == {c: 1 for c in THETA_CLASSES}
    assert v_t == {(-1, -1, 1, 0): 1, (-1, 1, 0, 1): 1}


def test_cofactor_identity():
    gens = [{(1,): 1}, {(0,): 1, (1,): 1}]  # x, 1 + x
    assert oracles.cofactor_identity_holds("GF2", 1, gens, [{(0,): 1}, {(0,): 1}])
    assert not oracles.cofactor_identity_holds("GF2", 1, gens, [{(0,): 1}, {}])
    assert oracles.cofactor_identity_holds("Q", 1, gens, [{(0,): -1}, {(0,): 1}])


def test_gf2_univariate_gcd():
    t2_plus_1, t_plus_1 = {(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}
    assert oracles.gf2_univariate_gcd([t2_plus_1, t_plus_1]) == 0b11
    assert oracles.gf2_univariate_gcd([{(2,): 1, (1,): 1, (0,): 1}, t_plus_1]) == 1
    assert oracles.gf2_univariate_gcd([{(-3,): 1}]) == 1  # a monomial is a unit


def test_parse_poly_reads_printed_polynomials():
    names = ("R", "T", "S1")
    assert oracles.parse_poly("R + R^-1*T^-1*S1", names) == {(1, 0, 0): 1, (-1, -1, 1): 1}
    assert oracles.parse_poly("-3/2*T^2 - R + 2", names, "Q") == {
        (0, 2, 0): Fraction(-3, 2), (1, 0, 0): -1, (0, 0, 0): 2,
    }
    assert oracles.parse_poly("0", names) == {}


def test_sympy_ideal_checks():
    x = {(1, 0): 1}
    assert not oracles.ideal_is_proper([x], 2, "Q")  # a monomial is a unit
    assert oracles.ideal_is_proper([{(1, 0): 1, (0, 0): 1}], 2, "GF2")
    # U = x + 1/x + y + 1/y: critical points x, y = +-1, four in all
    logs = [{(1, 0): 1, (-1, 0): -1}, {(0, 1): 1, (0, -1): -1}]
    assert oracles.quotient_dimension(logs, 2, "Q") == 4
    assert oracles.quotient_dimension([{(1, 0): 1, (0, 0): -1}], 2, "Q") is None


def test_ample_tree_counts_are_a000669():
    assert oracles.ample_tree_counts(10) == [1, 1, 2, 5, 12, 33, 90, 261, 766, 2312]


def test_ahu_labels_decide_isomorphism():
    ahu = oracles.AHU()
    a = (((), ()), ())
    assert ahu.label(a) == ahu.label(((), ((), ())))
    assert ahu.label(a) != ahu.label(((), (), ()))


def test_ampleness_and_leaves():
    assert oracles.is_ample(())
    assert oracles.is_ample(((), ((), ())))
    assert not oracles.is_ample((((),), ()))  # a unary vertex
    assert oracles.leaves(((), ((), ()))) == 3


def test_word_tree_gluing():
    assert oracles.word_tree([]) == ()
    assert oracles.word_tree([(1, 1), (1, 1)]) == (((), ()), ())  # twist(1;1@1)
    assert oracles.word_tree([(1, 1), (2, 2)]) == ((), ((), (), ()))


def test_germ_invariants_and_witnesses():
    covs = [(1, 0), (-1, 1), (-1, -1)]
    assert oracles.det_multiset(covs, 2) == [1, 1, 2]
    swap = [[0, 1], [1, 0]]
    assert oracles.witness_maps(swap, covs, [(0, 1), (1, -1), (-1, -1)])
    assert not oracles.witness_maps([[2, 0], [0, 1]], covs, covs)  # not unimodular


def test_specs_are_seeded_and_sized():
    for workload in workloads.WORKLOADS:
        first = workloads.specs(workload, 2010)
        assert first == workloads.specs(workload, 2010)
        assert first != workloads.specs(workload, 2011) or workload == "theta_products"
        assert len(first) > 20
        assert len({spec["id"] for spec in first}) == len(first)


def test_recoordinatisation_is_a_unimodular_change_of_variables():
    import itertools

    for spec in workloads.specs("dense_random", 7):
        if spec["kind"] != "classes":
            continue
        table, m = spec["table"], spec["matrix"]
        original = workloads.product_table(*spec["product"])
        assert abs(oracles.det(m)) == 1
        for j in range(len(m)):
            if j not in table["carriers"]:
                assert all(row[j] == 0 for row in table["boundary_matrix"])
        old_rows = dict((label, vec) for label, vec in original["rows"])
        for x in itertools.product((-1, 0, 2), repeat=len(m)):
            mx = oracles.mat_vec(m, x)
            assert oracles.dot(table["mu"], x) == oracles.dot(original["mu"], mx)
            for label, vec in table["rows"]:
                assert oracles.dot(vec, x) == oracles.dot(old_rows[label], mx)
