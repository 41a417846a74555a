"""Small exact linear algebra on integer matrices (tuples of tuples of ints).

The determinant, rank and adjugate use Bareiss's fraction-free elimination
(Bareiss, Math. Comp. 22, 1968): after k pivot steps every entry is a
(k+1)x(k+1) minor of the input, so each division by the previous pivot is
exact and every entry stays an integer.  Entries pass through `as_int`, so a
non-integral entry raises `ValueError` instead of being truncated.
"""

from __future__ import annotations

from fractions import Fraction


def as_int(x) -> int:
    """`x` as an int; integral numbers (2.0, Fraction(2)) are accepted, and
    anything else raises `ValueError`: a non-integral number (1.5,
    Fraction(5, 2)), a string ("2", "4/2"), None, a boolean or a list."""
    if type(x) is int:
        return x
    try:
        value = None if isinstance(x, bool) else int(x)
    except (TypeError, ValueError, OverflowError):  # None, "4/2", an infinite float
        value = None
    if value is None or value != x:
        raise ValueError(f"{x!r} is not an integer")
    return value


def mat(rows):
    """Normalize to a tuple of tuples of ints; non-integral entries raise."""
    return tuple(tuple(map(as_int, row)) for row in rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    a = [list(map(as_int, row)) for row in rows]
    size, previous, sign = len(a), 1, 1
    if any(len(row) != size for row in a):
        raise ValueError("determinant needs a square matrix")
    for k in range(size - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * row_k[j]) // previous
        previous = pivot
    return sign * a[-1][-1] if a else 1


def mat_rank(rows) -> int:
    """Rank of an integer matrix, by Bareiss elimination: a column with no
    pivot in the remaining rows is skipped, and the entries stay minors of
    the input, so the divisions stay exact."""
    a = [list(map(as_int, row)) for row in rows]
    rank, previous = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p, row_k = a[rank][col], a[rank]
        for row in a[rank + 1:]:
            factor = row[col]
            for j in range(col + 1, len(row)):
                row[j] = (row[j] * p - factor * row_k[j]) // previous
        previous = p
        rank += 1
        if rank == len(a):
            break
    return rank


def adjugate(rows) -> tuple[tuple[int, ...], ...]:
    """adj(M) of a square integer matrix: entry (i, j) is the (j, i)
    cofactor, so M adj(M) = det(M) I."""
    a = mat(rows)
    size = len(a)
    return tuple(
        tuple(
            (-1) ** (i + j) * mat_det([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
            for j in range(size)
        )
        for i in range(size)
    )


def mat_inv(rows):
    """Exact inverse adj(M) / det(M) in Fractions, or None if singular."""
    det = mat_det(rows)
    if not det:
        return None
    return tuple(tuple(Fraction(x, det) for x in row) for row in adjugate(rows))


def as_int_matrix(rows):
    """Return the matrix as tuples of ints, or None if any entry is non-integral."""
    try:
        return mat(rows)
    except ValueError:
        return None


def is_unimodular(rows) -> bool:
    ints = as_int_matrix(rows)
    if ints is None:
        return False
    return abs(mat_det(ints)) == 1
