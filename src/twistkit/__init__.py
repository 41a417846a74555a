"""Exact computations for monotone Lagrangian twist tori.

Four pieces fit together:

* `forests`: twist words, rooted trees/forests, canonical forms, and the
  enumeration of ample trees (the shapes primitive twist tori realize);
* `discs`: candidate Maslov-2 disc classes from intersection positivity,
  via one exact Fourier-Motzkin cascade that decides boundedness and
  drives a prefix-pruned lattice enumeration;
* `pearl` / `certificates`: group-ring Laurent algebra, the quadratic pearl
  differential, and Groebner/gcd certificates that degree zero survives
  while positive degrees vanish (non-displaceability); one Buchberger core
  computes both, the gcd being the one-variable reduced basis;
* `germs`: displacement-energy germs as min-of-covectors formulas and their
  GL(n, Z) classification.
"""

from .certificates import (
    CertificateReport,
    IdealMembershipResult,
    RegularityResult,
    certify_nondisplaceable,
    ideal_contains_one,
    regular_sequence_check,
    regularity_via_hom,
    search_h0_hom,
)
from .discs import (
    BoundednessResult,
    ConstraintTable,
    DiscClass,
    HomologyBasis,
    enumerate_candidate_classes,
    feasible_region_bounded,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InconclusiveCertificate,
    InvalidLeafIndex,
    NonGenericHom,
    NonUnitImage,
    ParseError,
    TwistKitError,
    UnboundedRegion,
    UnsupportedRing,
    VariableMismatch,
)
from .forests import (
    RootedForest,
    RootedTree,
    TwistWord,
    canonical_form,
    count_ample_trees,
    forest_canonical_form,
    enumerate_ample_trees,
    is_ample,
    is_isomorphic,
    parse_forest,
    parse_word,
    print_forest,
    print_tree,
    print_word,
    word_to_tree,
)
from .germs import (
    UNDEFINED_AT_ORIGIN,
    Germ,
    Indeterminate,
    NotEquivalent,
    UnimodularWitness,
    germ_equivalent,
    germ_value,
    transform_germ,
)
from .laurent import GF2, RATIONAL, CoefficientRing, LaurentPoly, RingHom
from .pearl import (
    PearlElement,
    Potential,
    pearl_d2,
    pearl_d2_from_vs,
    toric_differential,
)

__version__ = "0.1.0"
