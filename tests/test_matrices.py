import random
from fractions import Fraction

import pytest
from gauss_reference import gauss_det, gauss_inv, gauss_rank

from twistkit.matrices import (
    adjugate,
    as_int,
    as_int_matrix,
    identity,
    is_unimodular,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    transpose,
)

ENTRIES = (0, 0, 0, 1, -1, 2, -3, 5)


def random_matrix(rng, rows, cols):
    return tuple(tuple(rng.choice(ENTRIES) for _ in range(cols)) for _ in range(rows))


def low_rank_matrix(rng, rows, cols, rank):
    """A product of a rows x rank and a rank x cols matrix: rank at most `rank`."""
    return mat_mul(random_matrix(rng, rows, rank), random_matrix(rng, rank, cols))


def zero_diagonal_matrix(rng, n, diagonal=ENTRIES[3:]):
    """The rows of an upper triangular n x n matrix (n >= 2) with its
    diagonal drawn from `diagonal`, each moved up by one and the first moved
    last, with its top-right corner zeroed: the result has a zero diagonal.
    While the triangle's diagonal is nonzero, every elimination step finds a
    zero pivot and swaps in the last row."""
    u = [[rng.choice(ENTRIES) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        u[i][i] = rng.choice(diagonal)
    u[0][n - 1] = 0
    return tuple(map(tuple, u[1:] + u[:1]))


def test_det_matches_the_fraction_reference():
    rng = random.Random(77)
    for _ in range(400):
        n = rng.randint(1, 5)
        if rng.random() < 0.3:
            rows = low_rank_matrix(rng, n, n, rng.randint(1, n))
        else:
            rows = random_matrix(rng, n, n)
        det = mat_det(rows)
        assert type(det) is int
        assert det == gauss_det(rows)
    for _ in range(200):
        n = rng.randint(2, 6)
        rows = zero_diagonal_matrix(rng, n)
        assert all(rows[i][i] == 0 for i in range(n))
        det = mat_det(rows)
        assert det != 0 and det == gauss_det(rows)
    assert mat_det([[0, 1], [1, 0]]) == -1  # zero first pivot: a row swap flips the sign
    assert mat_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert mat_det([[1, 2], [2, 4]]) == 0
    assert mat_det([]) == 1
    with pytest.raises(ValueError, match="square"):
        mat_det([[1, 2, 3], [4, 5, 6]])


def test_rank_matches_the_fraction_reference():
    rng = random.Random(79)
    deficient = 0
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            matrix = low_rank_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        else:
            matrix = random_matrix(rng, rows, cols)
        rank = mat_rank(matrix)
        assert rank == gauss_rank(matrix)
        deficient += rank < min(rows, cols)
    assert deficient >= 150
    for _ in range(200):
        n = rng.randint(2, 6)
        matrix = zero_diagonal_matrix(rng, n, ENTRIES)
        assert mat_rank(matrix) == gauss_rank(matrix)
        assert mat_rank(matrix[:-1]) == gauss_rank(matrix[:-1])
        assert mat_rank(transpose(matrix)) == gauss_rank(transpose(matrix))
    assert mat_rank([]) == 0
    assert mat_rank([[0, 0, 1], [0, 2, 0], [0, 4, 3]]) == 2  # zero first column
    assert mat_rank([[0, 1], [1, 0], [1, 1]]) == 2  # zero first pivot
    assert mat_rank([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 1


def test_adjugate_and_inverse_match_the_fraction_reference():
    rng = random.Random(78)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n)
        det = mat_det(rows)
        adj = adjugate(rows)
        assert all(type(x) is int for row in adj for x in row)
        assert mat_mul(rows, adj) == tuple(tuple(det * x for x in row) for row in identity(n))
        inverse = mat_inv(rows)
        assert inverse == gauss_inv(rows)
        if det:
            assert all(type(x) is Fraction for row in inverse for x in row)
            assert adj == tuple(tuple(det * x for x in row) for row in inverse)
        else:
            singular += 1
    assert singular >= 30
    assert adjugate([[0, 1], [1, 0]]) == ((0, -1), (-1, 0))
    assert adjugate([[7]]) == ((1,),)


def test_non_integral_entries_are_rejected():
    for bad in (0.5, Fraction(1, 2), 1.7, float("inf")):
        rows = [[1, bad], [0, 1]]
        for fn in (mat, mat_det, mat_rank, adjugate, mat_inv):
            with pytest.raises(ValueError, match="is not an integer"):
                fn(rows)
        assert as_int_matrix(rows) is None
        assert not is_unimodular(rows)
    # integral values of other types are accepted, and come back as ints
    rows = [[2.0, Fraction(3)], [0, 1.0]]
    assert mat(rows) == ((2, 3), (0, 1))
    assert all(type(x) is int for row in mat(rows) for x in row)
    assert mat_det(rows) == 2 and type(mat_det(rows)) is int
    assert mat_rank(rows) == 2
    assert is_unimodular([[1.0, 1], [0, Fraction(-1)]])
    assert [as_int(x) for x in (3, -2.0, Fraction(4), 0.0)] == [3, -2, 4, 0]


def test_non_numbers_are_rejected_like_non_integral_numbers():
    # None, booleans, strings and containers raise the same ValueError as
    # 1.5, not int()'s TypeError or its own message, and are never read as 1
    for bad in (None, True, False, "2", "4/2", "x", [1], (2,), {}, complex(2), float("nan")):
        with pytest.raises(ValueError, match=" is not an integer$"):
            as_int(bad)
        assert as_int_matrix([[1, bad]]) is None
        assert not is_unimodular([[1, 0], [0, bad]])
