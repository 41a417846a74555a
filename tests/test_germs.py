import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from gauss_reference import gauss_det, gauss_inv, gauss_rank, integral

from twistkit import germs
from twistkit.errors import CapExceeded, DimensionMismatch
from twistkit.germs import (
    UNDEFINED_AT_ORIGIN,
    Germ,
    Indeterminate,
    NotEquivalent,
    UnimodularWitness,
    germ_equivalent,
    germ_from_json,
    germ_to_json,
    germ_value,
    transform_germ,
)
from twistkit.matrices import mat_mul, mat_vec, transpose
from twistkit.presets import clifford_germ, theta_germ, theta_s0_germ


def random_unimodular(rng, n=2, steps=6):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.choice(["shear", "swap", "negate"])
        i, j = rng.sample(range(n), 2)
        if kind == "shear":
            k = rng.randint(-3, 3)
            for c in range(n):
                m[i][c] += k * m[j][c]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return UnimodularWitness(tuple(tuple(int(x) for x in row) for row in m))


def random_germ(rng, n=2, count=4):
    covs = set()
    while len(covs) < count:
        vec = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(vec):
            covs.add(vec)
    return Germ(n, Fraction(rng.randint(0, 3), rng.randint(1, 3)), frozenset(covs))


def near_twin(rng, germ):
    """The germ with one covector nudged by one unit in one coordinate."""
    covs = sorted(germ.covectors)
    while True:
        i, k = rng.randrange(len(covs)), rng.randrange(germ.dim)
        nudged = list(covs[i])
        nudged[k] += rng.choice((-1, 1))
        nudged = tuple(nudged)
        if any(nudged) and nudged not in germ.covectors:
            covs[i] = nudged
            return Germ(germ.dim, germ.constant, frozenset(covs))


def unpruned_equivalent(g1, g2):
    """Reference search: every ordered n-tuple of target covectors is tried
    as the image of the first spanning n-subset, with no determinant filter."""
    n = g1.dim
    if len(g1.covectors) != len(g2.covectors) or g1.constant != g2.constant:
        return NotEquivalent("counts or constants differ")
    covs1, covs2 = g1.sorted_covectors(), g2.sorted_covectors()
    if gauss_rank(covs1) != gauss_rank(covs2):
        return NotEquivalent("ranks differ")
    if gauss_rank(covs1) < n:
        return Indeterminate("rank deficient")
    basis = next(
        combo for combo in itertools.combinations(range(len(covs1)), n)
        if gauss_rank([covs1[i] for i in combo]) == n
    )
    s_inv = gauss_inv(transpose([covs1[i] for i in basis]))
    for choice in itertools.permutations(range(len(covs2)), n):
        ints = integral(mat_mul(transpose([covs2[i] for i in choice]), s_inv))
        if ints is None or abs(gauss_det(ints)) != 1:
            continue
        image = frozenset(tuple(int(x) for x in mat_vec(ints, c)) for c in g1.covectors)
        if image == g2.covectors:
            return UnimodularWitness(transpose(ints))
    return NotEquivalent("no unimodular transform")


def sign_flipped(rng, germ):
    """The germ with one covector negated: every n-subset keeps its |det|,
    so the |det| multisets agree and only the full search decides."""
    covs = sorted(germ.covectors)
    i = rng.randrange(len(covs))
    covs[i] = tuple(-x for x in covs[i])
    return Germ(germ.dim, germ.constant, frozenset(covs))


def abs_det_multiset(germ):
    covs = germ.sorted_covectors()
    return sorted(abs(gauss_det(s)) for s in itertools.combinations(covs, germ.dim))


def spanning_subset(covectors, n):
    for combo in itertools.combinations(range(len(covectors)), n):
        if gauss_rank([covectors[i] for i in combo]) == n:
            return combo
    raise AssertionError("rank was checked before")


def per_tuple_equivalent(g1, g2):
    """The search before the |det| multisets were compared: Fraction
    determinants of each target subset, taken as the permutations reach it."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"germ dimensions differ: {g1.dim} vs {g2.dim}")
    n = g1.dim
    if len(g1.covectors) != len(g2.covectors):
        return NotEquivalent(
            f"covector counts {len(g1.covectors)} != {len(g2.covectors)}"
        )
    if g1.constant != g2.constant:
        return NotEquivalent(f"constants differ: {g1.constant} != {g2.constant}")
    rank1 = gauss_rank(g1.sorted_covectors())
    rank2 = gauss_rank(g2.sorted_covectors())
    if rank1 != rank2:
        return NotEquivalent(f"covector ranks differ: {rank1} != {rank2}")
    if rank1 < n:
        return Indeterminate(
            f"covectors span a proper subspace (rank {rank1} < dim {n}); "
            "equivalence is not decided"
        )
    basis_subset = spanning_subset(g1.sorted_covectors(), n)
    s_cols = transpose([g1.sorted_covectors()[i] for i in basis_subset])
    s_inv = gauss_inv(s_cols)
    s_abs_det = abs(gauss_det(s_cols))
    targets = g2.sorted_covectors()
    abs_dets = {}
    for choice in itertools.permutations(range(len(targets)), n):
        subset = tuple(sorted(choice))
        if subset not in abs_dets:
            abs_dets[subset] = abs(gauss_det([targets[i] for i in subset]))
        if abs_dets[subset] != s_abs_det:
            continue
        t_cols = transpose([targets[i] for i in choice])
        ints = integral(mat_mul(t_cols, s_inv))
        if ints is None or abs(gauss_det(ints)) != 1:
            continue
        image = frozenset(tuple(int(x) for x in mat_vec(ints, cov)) for cov in g1.covectors)
        if image == g2.covectors:
            return UnimodularWitness(transpose(ints))
    return NotEquivalent("no unimodular transform maps one covector set onto the other")


def outcome_record(outcome):
    if isinstance(outcome, UnimodularWitness):
        return ("witness", outcome.matrix)
    return (type(outcome).__name__, outcome.reason)


def apply_matrix(matrix, xi):
    return tuple(mat_vec(matrix, xi))


# ---------------------------------------------------------------------------
# values


def test_product_torus_value():
    value = germ_value(clifford_germ(), (Fraction(1, 4), Fraction(-1, 2)))
    assert value == Fraction(1, 2)


def test_origin_is_undefined():
    assert germ_value(clifford_germ(), (0, 0)) is UNDEFINED_AT_ORIGIN
    assert repr(UNDEFINED_AT_ORIGIN) == "undefined-at-origin"


def test_displaceable_neighbour_value():
    s = Fraction(1, 3)
    germ = theta_s0_germ(s)
    # 1 + s + s' - t' at (1, 1)
    assert germ_value(germ, (1, 1)) == 1 + s
    assert germ_value(germ, (Fraction(1, 2), Fraction(1, 4))) == 1 + s + Fraction(1, 4)


def test_str_shows_the_constant_and_the_sorted_covectors():
    assert str(theta_germ()) == "1 + min{ <a, .> : a in {(-1, -1), (-1, 1), (1, 0)} }"
    assert str(theta_s0_germ()) == "3/4 + min{ <a, .> : a in {(1, -1)} }"
    assert str(clifford_germ()) == (
        "1 + min{ <a, .> : a in {(-1, 0), (0, -1), (0, 1), (1, 0)} }"
    )


def test_value_dimension_check():
    with pytest.raises(DimensionMismatch):
        germ_value(clifford_germ(), (1,))


# ---------------------------------------------------------------------------
# equivalence


def test_product_vs_twist_torus_counts():
    outcome = germ_equivalent(clifford_germ(), theta_germ())
    assert isinstance(outcome, NotEquivalent)
    assert outcome.reason == "covector counts 4 != 3"


def test_self_equivalence_through_constructed_transforms():
    germ = theta_germ()
    witness = UnimodularWitness(((1, 1), (0, 1)))
    moved = transform_germ(germ, witness)
    outcome = germ_equivalent(germ, moved)
    assert isinstance(outcome, UnimodularWitness)


def test_twist_torus_vs_trimmed_product_covectors():
    trimmed = Germ(2, Fraction(1), frozenset({(1, 0), (-1, 0), (0, 1)}))
    outcome = germ_equivalent(theta_germ(), trimmed)
    assert isinstance(outcome, NotEquivalent)


def test_constant_mismatch_short_circuits():
    g1 = theta_germ()
    g2 = Germ(2, Fraction(3, 4), g1.covectors)
    outcome = germ_equivalent(g1, g2)
    assert isinstance(outcome, NotEquivalent)
    assert "constants differ" in outcome.reason


def test_rank_mismatch_is_decisive():
    g1 = Germ(2, 1, frozenset({(1, 0), (-1, 0), (2, 0)}))  # rank 1
    g2 = Germ(2, 1, frozenset({(1, 0), (0, 1), (1, 1)}))  # rank 2
    outcome = germ_equivalent(g1, g2)
    assert isinstance(outcome, NotEquivalent)
    assert "ranks" in outcome.reason


def test_degenerate_span_is_indeterminate():
    g1 = Germ(2, 1, frozenset({(1, 0), (2, 0)}))
    g2 = Germ(2, 1, frozenset({(0, 1), (0, 2)}))
    outcome = germ_equivalent(g1, g2)
    assert isinstance(outcome, Indeterminate)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        germ_equivalent(clifford_germ(), Germ(3, 1, frozenset({(1, 0, 0)})))


def test_witness_transforms_covector_sets():
    rng = random.Random(31)
    for _ in range(25):
        germ = random_germ(rng)
        a = random_unimodular(rng)
        moved = transform_germ(germ, a)
        outcome = germ_equivalent(germ, moved)
        assert isinstance(outcome, UnimodularWitness)
        assert transform_germ(germ, outcome).covectors == moved.covectors


def test_reflexive_symmetric_transitive():
    rng = random.Random(57)
    for _ in range(10):
        g = random_germ(rng)
        # reflexive
        w = germ_equivalent(g, g)
        assert isinstance(w, UnimodularWitness)
        # symmetric: the inverse witness is integral and unimodular
        a = random_unimodular(rng)
        moved = transform_germ(g, a)
        w1 = germ_equivalent(g, moved)
        assert isinstance(w1, UnimodularWitness)
        inverse = integral(gauss_inv(w1.matrix))
        assert inverse is not None
        UnimodularWitness(inverse)
        back = germ_equivalent(moved, g)
        assert isinstance(back, UnimodularWitness)
        # transitive through a second transform
        b = random_unimodular(rng)
        further = transform_germ(moved, b)
        w2 = germ_equivalent(moved, further)
        w3 = germ_equivalent(g, further)
        assert isinstance(w2, UnimodularWitness)
        assert isinstance(w3, UnimodularWitness)


def test_witness_gives_value_consistency():
    rng = random.Random(123)
    germ = theta_germ()
    a = random_unimodular(rng)
    moved = transform_germ(germ, a)
    witness = germ_equivalent(germ, moved)
    assert isinstance(witness, UnimodularWitness)
    checked = 0
    while checked < 50:
        xi = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2))
        if not any(xi):
            continue
        assert germ_value(germ, apply_matrix(witness.matrix, xi)) == germ_value(moved, xi)
        checked += 1


def test_pruned_search_matches_unpruned_reference():
    rng = random.Random(2718)
    witnesses = rejections = 0
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        # the reference forms a candidate for every ordered tuple: at most
        # 6 * 5 * 4 * 3 in dimension 4
        germ = random_germ(rng, n=n, count=rng.randint(n + 1, min(n + 3, 6)))
        moved = transform_germ(germ, random_unimodular(rng, n=n))
        for other in (moved, near_twin(rng, moved)):
            outcome = germ_equivalent(germ, other)
            expected = unpruned_equivalent(germ, other)
            assert type(outcome) is type(expected)
            if isinstance(expected, UnimodularWitness):
                assert outcome.matrix == expected.matrix
                witnesses += 1
            elif isinstance(expected, NotEquivalent):
                rejections += 1
    assert witnesses >= 60 and rejections >= 40


def test_outcomes_match_the_per_tuple_search():
    rng = random.Random(1414)
    seen = dict.fromkeys(("witness", "unequal dets", "equal dets, no witness", "ranks",
                          "indeterminate", "constants"), 0)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        germ = random_germ(rng, n=n, count=rng.randint(n + 1, n + 3))
        moved = transform_germ(germ, random_unimodular(rng, n=n))
        # the last coordinate dropped: rank n - 1, or a lower count
        flat = Germ(n, germ.constant, frozenset(c[:-1] + (0,) for c in germ.covectors
                                                 if any(c[:-1])))
        pairs = [
            (germ, moved),
            (germ, near_twin(rng, moved)),
            (germ, sign_flipped(rng, moved)),
            (germ, Germ(n, germ.constant + 1, moved.covectors)),
            (germ, flat),
            (flat, transform_germ(flat, random_unimodular(rng, n=n))),
        ]
        for g1, g2 in pairs:
            got, want = germ_equivalent(g1, g2), per_tuple_equivalent(g1, g2)
            assert outcome_record(got) == outcome_record(want)
            reason = getattr(got, "reason", "")
            if isinstance(got, UnimodularWitness):
                seen["witness"] += 1
            elif isinstance(got, Indeterminate):
                seen["indeterminate"] += 1
            elif "constants" in reason or "ranks" in reason:
                seen["constants" if "constants" in reason else "ranks"] += 1
            elif reason.startswith("no unimodular"):
                equal = abs_det_multiset(g1) == abs_det_multiset(g2)
                seen["equal dets, no witness" if equal else "unequal dets"] += 1
    assert min(seen.values()) >= 10, seen


def test_unequal_det_multisets_are_rejected_without_a_search(monkeypatch):
    g1 = Germ(2, 1, frozenset({(1, 0), (0, 1), (1, 1)}))  # |det|s 1, 1, 1
    g2 = Germ(2, 1, frozenset({(1, 0), (0, 1), (1, 2)}))  # |det|s 1, 1, 2

    def no_candidates(*args):
        raise AssertionError("a candidate matrix was formed")

    monkeypatch.setattr(germs, "mat_mul", no_candidates)
    outcome = germ_equivalent(g1, g2)
    assert outcome == NotEquivalent(
        "no unimodular transform maps one covector set onto the other"
    )


def test_candidates_are_formed_in_integers(monkeypatch):
    """Every candidate product has int entries only, and the outcomes are
    those of the search that formed T S^-1 in Fractions."""
    products = []

    def int_mat_mul(a, b):
        product = mat_mul(a, b)
        assert all(type(x) is int for row in product for x in row)
        products.append(product)
        return product

    monkeypatch.setattr(germs, "mat_mul", int_mat_mul)
    rng = random.Random(1618)
    for _ in range(30):
        n = rng.choice((2, 3))
        germ = random_germ(rng, n=n, count=rng.randint(n + 1, n + 2))
        moved = transform_germ(germ, random_unimodular(rng, n=n))
        for other in (moved, sign_flipped(rng, moved)):
            got, want = germ_equivalent(germ, other), per_tuple_equivalent(germ, other)
            assert outcome_record(got) == outcome_record(want)
    assert len(products) >= 30


def test_permutation_budget(monkeypatch):
    germ = theta_germ()  # three covectors in dimension 2: 3 * 2 ordered pairs
    monkeypatch.setattr(germs, "PERMUTATION_BUDGET", 6)
    assert isinstance(germ_equivalent(germ, germ), UnimodularWitness)
    monkeypatch.setattr(germs, "PERMUTATION_BUDGET", 5)

    def no_table(*args):
        raise AssertionError("the |det| table was built")

    monkeypatch.setattr(germs, "_subset_abs_dets", no_table)
    with pytest.raises(
        CapExceeded, match="^germs: 6 ordered 2-tuples of covectors exceed the budget of 5$"
    ):
        germ_equivalent(germ, germ)
    # the cheap checks still answer first
    assert not germ_equivalent(germ, Germ(2, 0, germ.covectors))
    assert isinstance(germ_equivalent(theta_s0_germ(0), theta_s0_germ(0)), Indeterminate)


def test_non_integral_germ_fields_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="0.5 is not an integer"):
        Germ(2, 1, frozenset({(0.5, 1), (1, 0)}))
    with pytest.raises(ValueError, match="is not an integer"):
        Germ(2, 1, frozenset({(Fraction(3, 2), 1), (1, 0)}))
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        germ_from_json({"dim": 2.5, "constant": "1", "covectors": [[1, 0], [0, 1]]})
    germ = Germ(2.0, 1, frozenset({(1.0, Fraction(0)), (0, 1)}))
    assert germ == Germ(2, 1, frozenset({(1, 0), (0, 1)}))
    assert type(germ.dim) is int
    assert all(type(x) is int for c in germ.covectors for x in c)


def test_germ_needs_covectors_of_its_dimension():
    with pytest.raises(ValueError, match="at least one covector"):
        Germ(2, 1, frozenset())
    with pytest.raises(DimensionMismatch, match="has length 3, expected 2"):
        Germ(2, 1, frozenset({(1, 0), (0, 1, 0)}))
    # dimension 0 has only the empty covector, so any two such germs matched
    for dim in (0, -1):
        refused = f"^a germ has dimension at least 1, got {dim}$"
        with pytest.raises(DimensionMismatch, match=refused):
            Germ(dim, 1, [[]])


def test_germ_covectors_are_checked_in_the_order_given():
    # a set of the entries would name whichever its hash order meets first
    with pytest.raises(DimensionMismatch, match=r"covector \(1, 2, 3\) has length 3"):
        Germ(2, 1, [[1, 0], [1, 2, 3], [1]])
    with pytest.raises(ValueError, match="'x' is not an integer"):
        germ_from_json({"dim": 2, "constant": "1", "covectors": [[1, 0], [0, "x"], [1, "y"]]})
    # a string is not read one character per covector
    for covectors in ("1/0", "10"):
        with pytest.raises(ValueError, match=f"'{covectors}' is a string, not a list"):
            germ_from_json({"dim": 2, "constant": "1", "covectors": covectors})


def test_no_witness_outcomes_are_false_frozen_and_distinct():
    for cls in (NotEquivalent, Indeterminate):
        outcome = cls("why")
        assert not outcome and outcome.reason == "why"
        assert repr(outcome) == f"{cls.__name__}(reason='why')"
        assert outcome == cls("why") and hash(outcome) == hash(cls("why"))
        assert pickle.loads(pickle.dumps(outcome)) == outcome
        assert copy.deepcopy(outcome) == outcome
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.reason = "other"
    # equality stays class-strict: the same reason under the other outcome differs
    assert NotEquivalent("why") != Indeterminate("why")


def test_unimodular_witness_validation():
    with pytest.raises(ValueError):
        UnimodularWitness(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        UnimodularWitness(((Fraction(1, 2), 0), (0, 1)))


# ---------------------------------------------------------------------------
# serialization


def test_germ_json_roundtrip():
    germ = theta_s0_germ(Fraction(-1, 4))
    back = germ_from_json(germ_to_json(germ))
    assert back == germ
    assert back.constant == Fraction(3, 4)
