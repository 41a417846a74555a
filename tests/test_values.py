"""The value contract of twistkit's record types: frozen, compared and
hashed by their fields within one class, shown in the dataclass repr
format unless they print their own, and round-tripped by pickle and
deepcopy."""

import ast
import copy
import dataclasses
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import twistkit
from twistkit.certificates import (
    CertificateReport,
    H0Evidence,
    IdealMembershipResult,
    RegularityResult,
    ideal_contains_one,
)
from twistkit.cli import RunConfig
from twistkit.discs import BoundednessResult, ConstraintTable, DiscClass, HomologyBasis
from twistkit.errors import CapExceeded, ParseError, UnboundedRegion
from twistkit.forests import LEAF, RootedForest, RootedTree, TwistWord, bush
from twistkit.germs import Germ, Indeterminate, NotEquivalent, UnimodularWitness, _NoWitness
from twistkit.laurent import GF2, RATIONAL, LaurentPoly, RingHom
from twistkit.pearl import PearlElement, Potential
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
    hom = RingHom.from_monomials(GF2, ("R",), {"R": (1,), "T": (0,)})
    return dict(hom=hom, hom_is_identity=False, contains_one=False,
                generators=(LaurentPoly(GF2, ("R",), {(2,): 1, (1,): 1, (0,): 1}),),
                method="gcd")


def _preset():
    bundle = theta_bundle()
    names = ("name", "table", "h0_hom")
    return {name: getattr(bundle, name) for name in names}


def _poly(ring, terms):
    return LaurentPoly(ring, ("x", "y"), terms)


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
                                    zero_directions=("T",))),
    (H0Evidence, _h0),
    (CertificateReport, lambda: dict(
        verdict="partially certified", token="partial",
        potential=Potential(**dict(SAMPLES)[Potential]()), h0=H0Evidence(**_h0()),
        regularity_hom=RingHom.from_monomials(RATIONAL, ("z1",), {"S1": (0,), "R1": (1,),
                                                                   "S2": (0,)}),
        regularity=RegularityResult(regular=True, quotient_dimension=2, zero_directions=()))),
    (RootedTree, lambda: dict(children=(bush(2), LEAF))),
    (TwistWord, lambda: dict(steps=((1, 1), (2, 2)))),
    (Germ, lambda: dict(dim=2, constant=Fraction(1, 2), covectors=frozenset({(1, 0)}),
                        note="one covector")),
    (UnimodularWitness, lambda: dict(matrix=((1, 1), (0, 1)))),
    (_NoWitness, lambda: dict(reason="why")),
    (NotEquivalent, lambda: dict(reason="covector counts 4 != 3")),
    (Indeterminate, lambda: dict(reason="covectors do not span")),
    (PotentialPreset, _preset),
    (RunConfig, lambda: dict(command="certify", params={"preset": "theta_s2xs2"},
                             format="json", seed=7, expect="certified", out=None)),
    (LaurentPoly, lambda: dict(ring=RATIONAL, variables=("x", "y"),
                               terms={(1, 0): Fraction(1, 2), (0, -1): Fraction(-3)})),
    (RingHom, lambda: dict(ring=GF2, variables=("x", "y"), images={
        "R": _poly(GF2, {(1, -1): 1}), "S": _poly(GF2, {(0, 0): 1})})),
    (Potential, lambda: dict(ring=GF2, basis=HomologyBasis(**BASIS), provenance=(
        (DiscClass((1, 0, 0), (0,)), 1), (DiscClass((0, -1, 1), (-1,)), 3)))),
    (PearlElement, lambda: dict(ring=RATIONAL, variables=("x", "y"), n=2,
                                components={(): _poly(RATIONAL, {(1, 0): 1, (0, -1): 1}),
                                            (0, 1): _poly(RATIONAL, {(2, 2): 5})})),
    (RootedForest, lambda: dict(trees=(bush(2), LEAF))),
]
# these print in their own formats, not the dataclass one
CUSTOM_REPR = (LaurentPoly, RingHom, Potential, PearlElement, RootedForest)


@pytest.mark.parametrize("cls, make", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def test_value_contract(cls, make):
    kwargs = make()
    value, twin = cls(**kwargs), cls(**kwargs)

    # repr: the dataclass format over the constructor's fields, in order
    if cls not in CUSTOM_REPR:
        args = ", ".join(f"{name}={v!r}" for name, v in kwargs.items())
        assert repr(value) == f"{cls.__qualname__}({args})"

    # equality and hash over the fields, within the class only
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)  # a dict field hashes by its items
    sub = type("Sub", (cls,), {"__slots__": ()})(**kwargs)
    assert value != sub and sub != value
    assert value != tuple(kwargs.values())
    assert value.__eq__(object()) is NotImplemented

    # frozen
    name = next(iter(kwargs))
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
        assert type(other) is cls and other == value and hash(other) == hash(value)


def _slot_values(value):
    """Each slot of `value`, in `__slots__` order down the MRO."""
    names = [name for klass in reversed(type(value).__mro__)
             for name in klass.__dict__.get("__slots__", ())]
    return {name: getattr(value, name) for name in names}


@pytest.mark.parametrize("cls, make", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def test_new_rebuilds_each_value_from_its_slots(cls, make):
    value = cls(**make())
    slots = _slot_values(value)
    assert tuple(slots)[:len(cls._fields)] == cls._fields
    rebuilt = cls._new(*slots.values())
    assert type(rebuilt) is cls and rebuilt == value
    assert _slot_values(rebuilt) == slots


def test_only_the_value_base_sets_slots_past_the_frozen_setattr():
    offenders = []
    for path in sorted(Path(twistkit.__file__).parent.glob("*.py")):
        if path.name == "_value.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_only_the_rational_reader_reads_a_rational():
    """`matrices.as_rational` is the one reader of rationals: no other
    module calls `Fraction` on one argument that is not a literal."""
    offenders = []
    for path in sorted(Path(twistkit.__file__).parent.glob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or len(node.args) + len(node.keywords) != 1:
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != "Fraction":
                continue
            try:
                ast.literal_eval(node.args[0] if node.args else node.keywords[0].value)
            except ValueError:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_the_compatibility_rule_compares_variables():
    """`laurent._require_ring` is the one compatibility rule: no other module
    compares a `.variables` attribute with `==` or `!=`."""
    offenders = []
    for path in sorted(Path(twistkit.__file__).parent.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ) and any(
                isinstance(side, ast.Attribute) and side.attr == "variables"
                for side in (node.left, *node.comparators)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_budget_refusal_is_built_from_its_count_and_budget():
    """`CapExceeded(layer, count, what, budget)` writes the package's one
    refusal text and keeps the count and the budget: every raise site
    passes those four, with its own module as the layer, and no text.  It
    and the other errors that carry values survive pickle and deepcopy with
    equal args, attributes and text."""
    refused = CapExceeded("groebner", 20001, "S-pairs", 20000)
    assert (refused.layer, refused.count, refused.what, refused.budget) == (
        "groebner", 20001, "S-pairs", 20000)
    errors = [
        (refused, ("groebner", 20001, "S-pairs", 20000),
         "groebner: 20001 S-pairs exceed the budget of 20000"),
        (ParseError("unexpected '*'", 5, ["L", "("]), ("unexpected '*'", 5, ("(", "L")),
         "unexpected '*' at offset 5 (expected (, L)"),
        (UnboundedRegion([1, 0]), ((1, 0),), "feasible region is unbounded along ray (1, 0)"),
    ]
    for error, args, text in errors:
        assert (error.args, str(error)) == (args, text)
        for copied in (pickle.loads(pickle.dumps(error)), copy.deepcopy(error)):
            assert type(copied) is type(error)
            assert (copied.args, vars(copied), str(copied)) == (args, vars(error), text)
    sites = []
    for path in sorted(Path(twistkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapExceeded":
                layer = node.args[0] if node.args else None
                assert len(node.args) == 4 and not node.keywords, f"{path.name}:{node.lineno}"
                assert isinstance(layer, ast.Constant) and layer.value == path.stem, path.name
                sites.append(path.stem)
    assert sorted(sites) == ["certificates", "discs", "forests", "forests", "forests",
                             "germs", "groebner", "groebner"]


def test_results_are_true_exactly_when_their_check_holds():
    member = IdealMembershipResult(**_membership())
    assert bool(member) is True
    assert bool(IdealMembershipResult(False, "gcd", ())) is False
    assert bool(RegularityResult(True, 2, ())) is True
    assert bool(RegularityResult(False, None, ("T",))) is False
    assert bool(BoundednessResult(True)) is True
    assert bool(BoundednessResult(False, (1, 0))) is False


def test_copies_keep_derived_fields_and_ring_identity():
    basis = HomologyBasis(**BASIS)
    for other in (pickle.loads(pickle.dumps(basis)), copy.deepcopy(basis)):
        assert other.boundary_indices == basis.boundary_indices == (1,)
    potential = Potential(**dict(SAMPLES)[Potential]())
    for other in (pickle.loads(pickle.dumps(potential)), copy.deepcopy(potential)):
        assert (other.variables, other.r_names, str(other.poly)) == (
            ("S1", "R1", "S2"), ("R1",), "S1 + R1^-1*S2")
    result = IdealMembershipResult(**_membership())
    for other in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert all(g.ring is RATIONAL for g in other.generators + other.cofactors)
    config = RunConfig(**dict(SAMPLES)[RunConfig]())
    other = copy.deepcopy(config)
    other.params["preset"] = "other"
    assert config.params == {"preset": "theta_s2xs2"}
