"""The value contract of twistkit's record types: frozen, compared and
hashed by their fields within one class, shown in the dataclass repr
format, and round-tripped by pickle and deepcopy."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from twistkit.certificates import (
    CertificateReport,
    H0Evidence,
    IdealMembershipResult,
    RegularityEvidence,
    RegularityResult,
    ideal_contains_one,
)
from twistkit.cli import RunConfig
from twistkit.discs import BoundednessResult, ConstraintTable, DiscClass, HomologyBasis
from twistkit.forests import LEAF, ProductSpec, RootedTree, TwistWord, bush
from twistkit.germs import Germ, Indeterminate, NotEquivalent, UnimodularWitness, _NoWitness
from twistkit.laurent import RATIONAL, LaurentPoly
from twistkit.presets import PotentialPreset, theta_bundle

BASIS = dict(
    names=("X", "Y", "Z"), boundary_matrix=((0, 1, 0),), n_torus_rank=1,
    ring_names=("S1", "R1", "S2"),
)


def _membership():
    x = LaurentPoly.var(RATIONAL, ("x", "y"), "x")
    result = ideal_contains_one([x, x + LaurentPoly.one(RATIONAL, ("x", "y"))])
    assert result.contains_one and result.cofactors is not None
    return dict(contains_one=True, method=result.method, generators=result.generators,
                cofactors=result.cofactors)


def _h0():
    return dict(hom_description="R -> R, T -> 1", hom_is_identity=False, contains_one=False,
                ideal_generators=("R^2 + R + 1",), method="gcd")


def _regularity():
    return dict(hom_description="R -> z1", regular=True, quotient_dimension=2,
                zero_directions=(), note="isolated")


def _preset():
    bundle = theta_bundle()
    names = ("name", "table", "potential", "h0_hom", "regularity_hom", "collapse_hom")
    return {name: getattr(bundle, name) for name in names}


# each type with the keyword arguments of one value, every field given in
# order and already in the form the constructor stores
SAMPLES = [
    (HomologyBasis, lambda: BASIS),
    (ConstraintTable, lambda: dict(
        basis=HomologyBasis(**BASIS), rows=(("D", (1, 0, 0)), ("E", (0, 0, 1))),
        maslov_vector=(2, 2, 0), target_maslov=2)),
    (DiscClass, lambda: dict(coefficients=(1, -1, 0), boundary_class=(-1,))),
    (BoundednessResult, lambda: dict(bounded=False, ray=(1, 0, -1))),
    (IdealMembershipResult, _membership),
    (RegularityResult, lambda: dict(regular=False, quotient_dimension=None,
                                    zero_directions=("T",), note="a note")),
    (H0Evidence, _h0),
    (RegularityEvidence, _regularity),
    (CertificateReport, lambda: dict(
        verdict="partially certified", token="partial", potential_str="R + R^-1",
        toric_differentials=(("R", "R - R^-1"),), h0=H0Evidence(**_h0()),
        regularity=RegularityEvidence(**_regularity()))),
    (RootedTree, lambda: dict(children=(bush(2), LEAF))),
    (TwistWord, lambda: dict(steps=((1, 1), (2, 2)))),
    (ProductSpec, lambda: dict(factors=(TwistWord(((1, 1),)), TwistWord(())))),
    (Germ, lambda: dict(dim=2, constant=Fraction(1, 2), covectors=frozenset({(1, 0)}),
                        note="one covector")),
    (UnimodularWitness, lambda: dict(matrix=((1, 1), (0, 1)))),
    (_NoWitness, lambda: dict(reason="why")),
    (NotEquivalent, lambda: dict(reason="covector counts 4 != 3")),
    (Indeterminate, lambda: dict(reason="covectors do not span")),
    (PotentialPreset, _preset),
    (RunConfig, lambda: dict(command="certify", params={"preset": "theta_s2xs2"},
                             format="json", seed=7, expect="certified", out=None)),
]


def same(a, b):
    """Equal values.  A preset's potential and homomorphisms define no `==`,
    so a copy of a preset is compared through their polynomials."""
    if not isinstance(a, PotentialPreset):
        return a == b
    homs = ("h0_hom", "regularity_hom", "collapse_hom")
    return (
        type(a) is type(b)
        and (a.name, a.table) == (b.name, b.table)
        and a.potential.poly == b.potential.poly
        and all(
            (getattr(a, h).ring, getattr(a, h).variables, getattr(a, h).images)
            == (getattr(b, h).ring, getattr(b, h).variables, getattr(b, h).images)
            for h in homs
        )
    )


@pytest.mark.parametrize("cls, make", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def test_value_contract(cls, make):
    kwargs = make()
    value, twin = cls(**kwargs), cls(**kwargs)

    # repr: the dataclass format over the constructor's fields, in order
    args = ", ".join(f"{name}={v!r}" for name, v in kwargs.items())
    assert repr(value) == f"{cls.__qualname__}({args})"

    # equality and hash over the fields, within the class only
    assert value == twin and not value != twin
    if cls is RunConfig:  # mutable, so unhashable, as a mutable dataclass is
        assert cls.__hash__ is None
    else:
        assert hash(value) == hash(twin)
    sub = type("Sub", (cls,), {"__slots__": ()})(**kwargs)
    assert value != sub and sub != value
    assert value != tuple(kwargs.values())
    assert value.__eq__(object()) is NotImplemented

    # frozen, except the mutable run configuration
    name = next(iter(kwargs))
    if cls is RunConfig:
        setattr(twin, name, "trees")
        assert twin.command == "trees" and twin != value
    else:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.not_a_field = 1
        assert getattr(value, name) == kwargs[name]

    # pickling (every protocol), copying and deep copying give an equal value
    copies = [pickle.loads(pickle.dumps(value, protocol=p))
              for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is cls and same(other, value)


def test_copies_keep_derived_fields_and_ring_identity():
    basis = HomologyBasis(**BASIS)
    for other in (pickle.loads(pickle.dumps(basis)), copy.deepcopy(basis)):
        assert other.boundary_indices == basis.boundary_indices == (1,)
    result = IdealMembershipResult(**_membership())
    for other in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert all(g.ring is RATIONAL for g in other.generators + other.cofactors)
    config = RunConfig(**SAMPLES[-1][1]())
    other = copy.deepcopy(config)
    other.params["preset"] = "other"
    assert config.params == {"preset": "theta_s2xs2"}
