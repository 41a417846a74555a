"""Displacement-energy germs and their unimodular classification.

A germ is recorded as a constant plus a minimum of integer covectors: near a
torus the displacement energy of nearby deformations takes that shape on a
dense open set.  Symplectic invariance makes germs comparable only up to an
integral unimodular change of the deformation coordinates, so equivalence is
decided by searching for a matrix A with |det A| = 1 matching the covector
sets (and equal constants).  The search tries ordered n-tuples of covectors
and stops at `PERMUTATION_BUDGET` of them with `CapExceeded`.

`germ_equivalent` returns a `UnimodularWitness`, or one of the two
no-witness outcomes, both false and carrying a `reason`: `NotEquivalent`
(no unimodular matrix matches the germs) and `Indeterminate` (the
covectors do not span, so nothing is decided).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._value import Value
from .errors import CapExceeded, DimensionMismatch
from .matrices import (
    adjugate,
    as_int,
    as_int_matrix,
    mat_det,
    mat_mul,
    mat_rank,
    mat_vec,
    transpose,
)


class _UndefinedAtOrigin:
    """Marker value: the germ formula does not define a value at the puncture."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined-at-origin"


UNDEFINED_AT_ORIGIN = _UndefinedAtOrigin()

# the most ordered n-tuples of covectors one equivalence search may try
PERMUTATION_BUDGET = 1_000_000


class Germ(Value):
    """constant + min over covectors of their pairing with the deformation."""

    __slots__ = _fields = ("dim", "constant", "covectors", "note")

    def __init__(self, dim, constant, covectors, note=None):
        dim = as_int(dim)
        constant = Fraction(constant)
        if isinstance(covectors, str):
            raise ValueError(f"{covectors!r} is a string, not a list of covectors")
        # checked in the order given, so an error names the first bad entry
        covs = [tuple(map(as_int, c)) for c in covectors]
        if not covs:
            raise ValueError("a germ needs at least one covector")
        for c in covs:
            if len(c) != dim:
                raise DimensionMismatch(
                    f"covector {c} has length {len(c)}, expected {dim}"
                )
        self._init(dim, constant, frozenset(covs), note)

    def sorted_covectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.covectors))

    def __str__(self):
        mins = ", ".join(str(c) for c in self.sorted_covectors())
        return f"{self.constant} + min{{ <a, .> : a in {{{mins}}} }}"


class UnimodularWitness(Value):
    """An integer matrix with determinant +-1 relating two germs: the
    transpose maps the first germ's covectors onto the second's."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix):
        rows = as_int_matrix(matrix)
        if rows is None:
            raise ValueError("witness matrix must be integral")
        self._init(rows)
        if abs(mat_det(rows)) != 1:
            raise ValueError("witness matrix must be unimodular")


class _NoWitness(Value):
    """An outcome without a witness matrix: false, with the reason why."""

    __slots__ = _fields = ("reason",)

    def __init__(self, reason):
        self._init(reason)

    def __bool__(self):
        return False


class NotEquivalent(_NoWitness):
    """No unimodular matrix matches the two germs."""

    __slots__ = ()


class Indeterminate(_NoWitness):
    """The covectors do not span, so equivalence is not decided."""

    __slots__ = ()


def germ_value(germ: Germ, xi):
    """Exact value at a rational deformation; the puncture is undefined."""
    xi = tuple(Fraction(x) for x in xi)
    if len(xi) != germ.dim:
        raise DimensionMismatch(f"point has length {len(xi)}, germ has dim {germ.dim}")
    if all(x == 0 for x in xi):
        return UNDEFINED_AT_ORIGIN
    return germ.constant + min(
        sum(Fraction(a) * x for a, x in zip(cov, xi)) for cov in germ.covectors
    )


def transform_germ(germ: Germ, witness: UnimodularWitness) -> Germ:
    """The germ precomposed with the witness matrix: covectors move by the
    transpose, so values satisfy value(g, A xi) = value(transform(g, A), xi)."""
    at = transpose(witness.matrix)
    new_covs = frozenset(mat_vec(at, cov) for cov in germ.covectors)
    return Germ(germ.dim, germ.constant, new_covs, germ.note)


def germ_equivalent(g1: Germ, g2: Germ):
    """Find an integral unimodular matrix matching the two germs, or report
    why none exists.  Non-spanning covector sets are indeterminate.

    A spanning set S of the first germ's covectors is fixed, and every
    ordered n-tuple T of the second germ's covectors is tried in
    `itertools.permutations` order as the image of S, so the first witness
    found is the same on every run.  A candidate A with A^T S = T has
    |det T| = |det A| |det S|, so a tuple whose |det| differs from |det S|
    cannot give a unimodular A and is skipped before A is formed.  A is
    T S^-1 = T adj(S) / det S, with the integer adjugate of S formed once:
    a candidate is integral iff det S divides every entry of T adj(S), and
    the whole search stays in integers.

    The |det| of every n-subset of each side is computed once, in integers,
    before the search.  A unimodular A maps the n-subsets of one set one to
    one onto those of the other and keeps each |det|, so if the two sorted
    |det| multisets differ the germs are not equivalent and nothing is
    searched.  Before any of this, `CapExceeded` is raised if the search
    could try more than `PERMUTATION_BUDGET` ordered n-tuples.
    """
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"germ dimensions differ: {g1.dim} vs {g2.dim}")
    n = g1.dim
    if len(g1.covectors) != len(g2.covectors):
        return NotEquivalent(
            f"covector counts {len(g1.covectors)} != {len(g2.covectors)}"
        )
    if g1.constant != g2.constant:
        return NotEquivalent(f"constants differ: {g1.constant} != {g2.constant}")
    sources, targets = g1.sorted_covectors(), g2.sorted_covectors()
    rank1, rank2 = mat_rank(sources), mat_rank(targets)
    if rank1 != rank2:
        return NotEquivalent(f"covector ranks differ: {rank1} != {rank2}")
    if rank1 < n:
        return Indeterminate(
            f"covectors span a proper subspace (rank {rank1} < dim {n}); "
            "equivalence is not decided"
        )
    tuples = math.perm(len(targets), n)
    if tuples > PERMUTATION_BUDGET:
        raise CapExceeded(
            f"germs: {tuples} ordered {n}-tuples of covectors exceed "
            f"the permutation budget of {PERMUTATION_BUDGET}"
        )

    source_dets, abs_dets = _subset_abs_dets(sources, n), _subset_abs_dets(targets, n)
    if sorted(source_dets.values()) != sorted(abs_dets.values()):
        return NotEquivalent("no unimodular transform maps one covector set onto the other")
    # the first n-subset, in combinations order, that spans
    basis_subset = next(subset for subset, det in source_dets.items() if det)
    s_abs_det = source_dets[basis_subset]
    s_cols = transpose([sources[i] for i in basis_subset])
    s_det, s_adj = mat_det(s_cols), adjugate(s_cols)
    cov_set2 = g2.covectors
    for choice in itertools.permutations(range(len(targets)), n):
        if abs_dets[tuple(sorted(choice))] != s_abs_det:
            continue
        t_cols = transpose([targets[i] for i in choice])
        # |det A| = |det T| / |det S| = 1, so an integral A is unimodular
        scaled = mat_mul(t_cols, s_adj)
        if any(x % s_det for row in scaled for x in row):
            continue
        ints = tuple(tuple(x // s_det for x in row) for row in scaled)
        image = frozenset(mat_vec(ints, cov) for cov in g1.covectors)
        if image == cov_set2:
            return UnimodularWitness(transpose(ints))
    return NotEquivalent("no unimodular transform maps one covector set onto the other")


def _subset_abs_dets(covectors, n) -> dict[tuple[int, ...], int]:
    """|det| of every n-subset of the covectors, keyed by its indices in
    `itertools.combinations` order."""
    return {
        subset: abs(mat_det([covectors[i] for i in subset]))
        for subset in itertools.combinations(range(len(covectors)), n)
    }


# ---------------------------------------------------------------------------
# JSON


def germ_to_json(germ: Germ) -> dict:
    return {
        "dim": germ.dim,
        "constant": str(germ.constant),
        "covectors": [list(c) for c in germ.sorted_covectors()],
        "note": germ.note,
    }


def germ_from_json(data: dict) -> Germ:
    return Germ(
        dim=data["dim"],
        constant=Fraction(str(data["constant"])),
        covectors=data["covectors"],
        note=data.get("note"),
    )
