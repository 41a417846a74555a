"""Built-in data sets.

The `theta_s2xs2` preset is the two-dimensional twist torus inside the
product of two spheres of area 2: five holomorphic cycles give the
intersection rows, the Maslov row has target 2, and the five candidate
classes all carry a unique disc, so the potential is their plain sum.
A `PotentialPreset` is a table and an H0 homomorphism; it derives its
potential and its other two homomorphisms from the table by one rule each.
`product_bundle` builds the product tori theta^a x C^b from the theta table
and the table of the equator circle C in one sphere.  The germ presets are
the product-torus germ (four covectors), the twist-torus germ (three
covectors), and the germ of the displaceable nearby torus (one covector,
with an area offset parameter).
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .certificates import CertificateReport, certify_nondisplaceable
from .discs import ConstraintTable, HomologyBasis, enumerate_candidate_classes
from .germs import Germ
from .laurent import GF2, RATIONAL, RingHom
from .matrices import as_int, as_rational
from .pearl import Potential

THETA_RING_NAMES = ("R", "T", "S1", "S2")


def theta_basis() -> HomologyBasis:
    """Disc through the diagonal circle, disc through the rotation orbit,
    and the two sphere factors."""
    return HomologyBasis(
        names=("D_Gamma", "D_tau", "S1", "S2"),
        boundary_matrix=((1, 0, 0, 0), (0, 1, 0, 0)),
        n_torus_rank=2,
        ring_names=THETA_RING_NAMES,
    )


def theta_constraint_table() -> ConstraintTable:
    """Intersection rows against five holomorphic cycles avoiding the torus,
    plus the Maslov row."""
    return ConstraintTable(
        basis=theta_basis(),
        rows=(
            ("S2 x 0", (0, -1, 0, 1)),
            ("S2 x inf", (0, 0, 0, 1)),
            ("0 x S2", (0, 1, 1, 0)),
            ("inf x S2", (0, 0, 1, 0)),
            ("degree-2 curve", (1, 0, 1, 1)),
        ),
        maslov_vector=(2, 0, 4, 4),
        target_maslov=2,
    )


def theta_h0_hom() -> RingHom:
    """Collapse onto one variable that keeps the image ideal proper."""
    return RingHom.from_monomials(
        GF2, ("R",), {"R": (1,), "T": (1,), "S1": (0,), "S2": (1,)}
    )


class PotentialPreset(Value):
    """A torus given by its constraint table and its H0 homomorphism.

    The rest is derived from the table once, at construction:
    `potential` is the GF2 sum of the table's candidate classes (each
    carries one disc); `regularity_hom` sends the boundary-carrying
    generators to rational variables z1, z2, ... in order and the surface
    generators to 1 (the generic-monomial shape for regularity); and
    `collapse_hom` sends each generator to t^(Maslov index / 2).
    """

    _fields = ("name", "table", "h0_hom")
    __slots__ = _fields + ("potential", "regularity_hom", "collapse_hom")

    def __init__(self, name, table, h0_hom):
        basis = table.basis
        carriers = basis.boundary_indices
        classes = enumerate_candidate_classes(table)
        potential = Potential(GF2, basis, [(cls, 1) for cls in classes])
        regularity_hom = RingHom.from_monomials(
            RATIONAL,
            tuple(f"z{k}" for k in range(1, len(carriers) + 1)),
            {generator: tuple(int(j == c) for c in carriers)
             for j, generator in enumerate(basis.ring_names)},
        )
        collapse_hom = RingHom.from_monomials(
            GF2, ("t",),
            {generator: (m // 2,)
             for generator, m in zip(basis.ring_names, table.maslov_vector)},
        )
        self._init(name, table, h0_hom, potential, regularity_hom, collapse_hom)

    def certify(self) -> CertificateReport:
        return certify_nondisplaceable(
            self.potential, h0_hom=self.h0_hom, regularity_hom=self.regularity_hom
        )


def theta_bundle() -> PotentialPreset:
    return PotentialPreset("theta_s2xs2", theta_constraint_table(), theta_h0_hom())


def theta_potential() -> Potential:
    """Potential of the twist torus: the sum of its five candidate classes."""
    return theta_bundle().potential


def theta_maslov_collapse_hom() -> RingHom:
    """Collapse by half the Maslov index; too coarse: the image ideal
    becomes the whole ring, so this homomorphism certifies nothing."""
    return theta_bundle().collapse_hom


def theta_regularity_hom() -> RingHom:
    """R -> z1, T -> z2, S1 and S2 -> 1."""
    return theta_bundle().regularity_hom


def circle_constraint_table() -> ConstraintTable:
    """The equator C of a sphere of area 2: disc D (a hemisphere) and the
    sphere S, intersection rows against the two poles, plus the Maslov row.
    Its candidate classes are the two hemispheres, D and S - D."""
    return ConstraintTable(
        basis=HomologyBasis(
            names=("D", "S"), boundary_matrix=((1, 0),), n_torus_rank=1, ring_names=("R", "S")
        ),
        rows=(("0", (1, 1)), ("inf", (0, 1))),
        maslov_vector=(2, 4),
        target_maslov=2,
    )


def product_bundle(a: int, b: int) -> PotentialPreset:
    """The product torus theta^a x C^b in (S2 x S2)^a x (S2)^b.

    Factor i (theta factors first) contributes its table as one diagonal
    block: its generator, ring and row names get the suffix _i, and its
    rows and boundary rows are padded with zeros outside the block.  The
    candidate classes of this table are the padded factor classes.  The H0
    homomorphism is the identity; the rest is derived as for every preset.
    """
    a, b = as_int(a), as_int(b)
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError(f"theta^{a} x C^{b} needs nonnegative counts and one factor")
    factors = [theta_constraint_table()] * a + [circle_constraint_table()] * b
    width = sum(len(t.basis.names) for t in factors)
    names, ring_names, boundary, rows, maslov = [], [], [], [], []
    for i, t in enumerate(factors, start=1):
        before = len(names)
        after = width - before - len(t.basis.names)

        def pad(vec):
            return (0,) * before + tuple(vec) + (0,) * after

        names += [f"{name}_{i}" for name in t.basis.names]
        ring_names += [f"{name}_{i}" for name in t.basis.ring_names]
        boundary += [pad(row) for row in t.basis.boundary_matrix]
        rows += [(f"{label}_{i}", pad(vec)) for label, vec in t.rows]
        maslov += t.maslov_vector
    basis = HomologyBasis(
        names=tuple(names),
        boundary_matrix=tuple(boundary),
        n_torus_rank=len(boundary),
        ring_names=tuple(ring_names),
    )
    table = ConstraintTable(basis, tuple(rows), tuple(maslov), 2)
    return PotentialPreset(f"theta^{a} x C^{b}", table, RingHom.identity(GF2, basis.ring_names))


# ---------------------------------------------------------------------------
# germ presets


def clifford_germ() -> Germ:
    """Product torus: energy 1 + min(+-x, +-y) off the puncture."""
    return Germ(
        dim=2,
        constant=Fraction(1),
        covectors=frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}),
        note="minimum of four independent functionals",
    )


def theta_germ() -> Germ:
    """Twist torus: energy 1 + min(s, -s+t, -s-t) on a dense open set."""
    return Germ(
        dim=2,
        constant=Fraction(1),
        covectors=frozenset({(1, 0), (-1, 1), (-1, -1)}),
        note="minimum of three independent functionals; formula holds away from a line",
    )


def theta_s0_germ(s: Fraction = Fraction(-1, 4)) -> Germ:
    """Displaceable nearby torus with diagonal-disc area offset s (s < 0):
    energy (1+s) + (s' - t').  The offset is read by `as_rational`."""
    s = as_rational(s)
    return Germ(
        dim=2,
        constant=1 + s,
        covectors=frozenset({(1, -1)}),
        note=f"nearby displaceable torus, area offset s = {s}",
    )


CONSTRAINT_PRESETS = {"theta_s2xs2": theta_constraint_table}
POTENTIAL_PRESETS = {"theta_s2xs2": theta_bundle}
GERM_PRESETS = {
    "clifford_2": clifford_germ,
    "theta": theta_germ,
    "theta_s0": theta_s0_germ,
}
