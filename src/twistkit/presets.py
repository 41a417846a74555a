"""Built-in data sets.

The `theta_s2xs2` preset is the two-dimensional twist torus inside the
product of two spheres of area 2: five holomorphic cycles give the
intersection rows, the Maslov row has target 2, and the five candidate
classes all carry a unique disc, so the potential is their plain sum.
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
from .discs import ConstraintTable, DiscClass, HomologyBasis, enumerate_candidate_classes
from .germs import Germ
from .laurent import GF2, RATIONAL, RingHom
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


def theta_potential() -> Potential:
    """Potential of the twist torus: each of the five candidate classes is
    represented by exactly one disc (multiplicity one)."""
    classes = enumerate_candidate_classes(theta_constraint_table())
    return Potential(GF2, theta_basis(), [(cls, 1) for cls in classes])


def _regularity_hom(basis: HomologyBasis) -> RingHom:
    """Carrying generators to independent rational variables z1, z2, ... in
    order, surface generators to 1 (the generic-monomial shape for
    regularity)."""
    carriers = basis.boundary_indices
    return RingHom.from_monomials(
        RATIONAL,
        tuple(f"z{k}" for k in range(1, len(carriers) + 1)),
        {name: tuple(int(j == c) for c in carriers) for j, name in enumerate(basis.ring_names)},
    )


def _collapse_hom(table: ConstraintTable) -> RingHom:
    """Each generator to t^(Maslov index / 2)."""
    pairs = zip(table.basis.ring_names, table.maslov_vector)
    return RingHom.from_monomials(GF2, ("t",), {name: (m // 2,) for name, m in pairs})


def theta_h0_hom() -> RingHom:
    """Collapse onto one variable that keeps the image ideal proper."""
    return RingHom.from_monomials(
        GF2, ("R",), {"R": (1,), "T": (1,), "S1": (0,), "S2": (1,)}
    )


def theta_maslov_collapse_hom() -> RingHom:
    """Collapse by half the Maslov index; too coarse: the image ideal
    becomes the whole ring, so this homomorphism certifies nothing."""
    return _collapse_hom(theta_constraint_table())


def theta_regularity_hom() -> RingHom:
    """R -> z1, T -> z2, S1 and S2 -> 1."""
    return _regularity_hom(theta_basis())


class PotentialPreset(Value):
    __slots__ = _fields = (
        "name", "table", "potential", "h0_hom", "regularity_hom", "collapse_hom"
    )

    def __init__(self, name, table, potential, h0_hom, regularity_hom, collapse_hom):
        self._init(name, table, potential, h0_hom, regularity_hom, collapse_hom)

    @property
    def classes(self) -> tuple[DiscClass, ...]:
        """The disc classes whose monomials make up the potential."""
        return tuple(cls for cls, _ in self.potential.provenance)

    def certify(self) -> CertificateReport:
        return certify_nondisplaceable(
            self.potential, h0_hom=self.h0_hom, regularity_hom=self.regularity_hom
        )


def theta_bundle() -> PotentialPreset:
    table = theta_constraint_table()
    return PotentialPreset(
        name="theta_s2xs2",
        table=table,
        potential=theta_potential(),
        h0_hom=theta_h0_hom(),
        regularity_hom=_regularity_hom(table.basis),
        collapse_hom=_collapse_hom(table),
    )


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
    rows, boundary rows and candidate classes are padded with zeros outside
    the block.  The product's candidate classes are exactly the padded
    factor classes, each carrying one disc, so the potential is their sum.
    The H0 homomorphism is the identity; the regularity and collapse
    homomorphisms follow the same rules as theta's.
    """
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError(f"theta^{a} x C^{b} needs nonnegative counts and one factor")
    theta, circle = (
        (t, enumerate_candidate_classes(t))
        for t in (theta_constraint_table(), circle_constraint_table())
    )
    factors = [theta] * a + [circle] * b
    width = sum(len(t.basis.names) for t, _ in factors)
    names, ring_names, boundary, rows, maslov, classes = [], [], [], [], [], []
    for i, (t, factor_classes) in enumerate(factors, start=1):
        before = len(names)
        after = width - before - len(t.basis.names)

        def pad(vec):
            return (0,) * before + tuple(vec) + (0,) * after

        names += [f"{name}_{i}" for name in t.basis.names]
        ring_names += [f"{name}_{i}" for name in t.basis.ring_names]
        boundary += [pad(row) for row in t.basis.boundary_matrix]
        rows += [(f"{label}_{i}", pad(vec)) for label, vec in t.rows]
        maslov += t.maslov_vector
        classes += [pad(c.coefficients) for c in factor_classes]
    basis = HomologyBasis(
        names=tuple(names),
        boundary_matrix=tuple(boundary),
        n_torus_rank=len(boundary),
        ring_names=tuple(ring_names),
    )
    table = ConstraintTable(basis, tuple(rows), tuple(maslov), 2)
    return PotentialPreset(
        name=f"theta^{a} x C^{b}",
        table=table,
        potential=Potential(
            GF2, basis, [(DiscClass(c, basis.boundary_of(c)), 1) for c in classes]
        ),
        h0_hom=RingHom.identity(GF2, basis.ring_names),
        regularity_hom=_regularity_hom(basis),
        collapse_hom=_collapse_hom(table),
    )


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
    energy (1+s) + (s' - t')."""
    return Germ(
        dim=2,
        constant=Fraction(1) + Fraction(s),
        covectors=frozenset({(1, -1)}),
        note=f"nearby displaceable torus, area offset s = {Fraction(s)}",
    )


CONSTRAINT_PRESETS = {"theta_s2xs2": theta_constraint_table}
POTENTIAL_PRESETS = {"theta_s2xs2": theta_bundle}
GERM_PRESETS = {
    "clifford_2": clifford_germ,
    "theta": theta_germ,
    "theta_s0": theta_s0_germ,
}
