"""Small exact linear algebra on integer matrices (tuples of tuples of ints).

The determinant and the rank come from one elimination, `_bareiss`:
Bareiss's fraction-free elimination (Bareiss, Math. Comp. 22, 1968), after
whose k pivot steps every entry is a (k+1)x(k+1) minor of the input, so each
division by the previous pivot is exact and every entry stays an integer.
The adjugate is made of determinants of minors.  Entries pass through
`as_int`, so a non-integral entry raises `ValueError` instead of being
truncated.  The JSON readers check their integer fields with `as_int` and
their lists of names with `as_names`.
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


def as_names(x) -> tuple:
    """`x`, a list of names, as a tuple; a string raises `ValueError` rather
    than being read as one name per character."""
    if isinstance(x, str):
        raise ValueError(f"{x!r} is a string, not a list of names")
    return tuple(x)


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


def _bareiss(a):
    """Bareiss elimination of the int rows `a`, in place.  Column by column,
    the row at the current rank is the pivot row, swapped with the first
    lower row that is nonzero in the column if its own entry is zero; a
    column with no such row is skipped.  Returns the rank, the sign of the
    row permutation and the last pivot, which for a square matrix of full
    rank is the determinant times that sign."""
    rank, previous, sign = 0, 1, 1
    size, width = len(a), len(a[0]) if a else 0
    for col in range(width):
        if not a[rank][col]:
            swap = next((r for r in range(rank + 1, size) if a[r][col]), None)
            if swap is None:
                continue
            a[rank], a[swap] = a[swap], a[rank]
            sign = -sign
        pivot, row_k = a[rank][col], a[rank]
        rank += 1
        for row in a[rank:]:
            factor = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * pivot - factor * row_k[j]) // previous
        previous = pivot
        if rank == size:
            break
    return rank, sign, previous


def mat_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    a = [list(map(as_int, row)) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant needs a square matrix")
    rank, sign, pivot = _bareiss(a)
    return sign * pivot if rank == len(a) else 0


def mat_rank(rows) -> int:
    """Rank of an integer matrix, by Bareiss elimination: a column with no
    pivot in the remaining rows is skipped, and the entries stay minors of
    the input, so the divisions stay exact."""
    return _bareiss([list(map(as_int, row)) for row in rows])[0]


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
