"""Reference linear algebra for the tests: Gaussian elimination over
`fractions.Fraction`, independent of `twistkit.matrices`."""

from fractions import Fraction


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def gauss_det(rows) -> Fraction:
    a = as_fractions(rows)
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def gauss_rank(rows) -> int:
    a = as_fractions(rows)
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def gauss_inv(rows):
    """Gauss-Jordan inverse in Fractions, or None if singular."""
    a = as_fractions(rows)
    n = len(a)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def integral(rows):
    """The matrix as tuples of ints, or None if an entry is not an integer."""
    fracs = as_fractions(rows)
    if any(x.denominator != 1 for row in fracs for x in row):
        return None
    return tuple(tuple(x.numerator for x in row) for row in fracs)
