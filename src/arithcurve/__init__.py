"""Defining ideals and minimal graded free resolutions of affine monomial
curves given by arithmetic sequences, cross-validated against an independent
Groebner-basis/syzygy oracle."""

from .ring import (
    QQ,
    EliminationOrder,
    MonomialOutOfRange,
    Polynomial,
    PolyRing,
    PrimeField,
    Rationals,
    WeightedGrevlex,
    curve_ring,
    elimination_ring,
)
from .matrices import PolyMatrix
from .curve import (
    ArithmeticSequence,
    FirstTermTooSmall,
    GcdNotOne,
    GeneratorSet,
    SequenceError,
    expected_generator_count,
    validate_sequence,
)
from .complexes import (
    ComplexError,
    GradedComplex,
    InhomogeneousColumns,
    InhomogeneousMultiplier,
    NonMonomialEntry,
    WrongCase,
    mapping_cone,
    minor_complex,
    resolution_b1,
    resolution_bn,
    verify_complex,
)
from .closedform import (
    BettiTable,
    betti_b1,
    betti_bn,
    gor4_symmetry_point,
    shift_table_b1,
    shift_table_bn,
    shifts_gor4,
)
from .groebner import (
    Limits,
    ResourceLimitExceeded,
    groebner,
    ideal_member,
    module_groebner_basis,
    reduce_poly,
)
from .oracle import (
    artinian_table,
    ideal_contains,
    ideal_equal,
    minimal_resolution,
    toric_ideal,
    toric_ideal_of_weights,
    verify_exactness,
)

__version__ = "0.1.0"
