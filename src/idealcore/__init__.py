"""Ideal cores of bounded real sequences and core-preserving summability matrices.

The package computes cores [ideal-liminf, ideal-limsup] of bounded sequences
under a catalog of ideals on the naturals, represents infinite summability
matrices lazily, decides the classical matrix characterizations of core
preservation at configurable finite truncation (exactly, by symbolic level-set
decisions, on structured instances), and ships the explicit constructions that
realize core equality across distinct ideals.

Sequences, index maps and matrices cache what they compute, without locks:
library objects are not to be shared across threads.
"""

from .asymptotics import (
    ClusterSet,
    CoreConfig,
    CoreInterval,
    InconclusiveCellsError,
    cluster_points,
    core,
    cores,
    ideal_liminf,
    ideal_limsup,
)
from .constructions import (
    ExperimentReport,
    core_equality_experiment,
    core_equality_experiments,
    perturb_identity,
    transformed_sequence,
)
from .ideals import (
    ClassificationReport,
    Ideal,
    MembershipResult,
    countably_generated,
    density_zero,
    empirical_density,
    erdos_ulam,
    exact_density,
    fin,
    fin_oplus_full,
    fin_times_empty,
    membership,
    rk_below,
    summable,
)
from .maps import IndexMap, affine_map, enumeration_map, identity_map
from .matrices import (
    ComposeUnsupportedError,
    InfiniteMatrix,
    banded,
    cesaro,
    compose,
    diagonal,
    identity,
    matrix_sum,
    norm_estimate,
    rk_matrix,
    scalar_mul,
    transform,
    zero_matrix,
)
from .regularity import (
    CheckConfig,
    FamilyMisclassifiedError,
    NegativeEntryError,
    Status,
    TestFamily,
    Verdict,
    allen_check,
    cfo_check,
    default_family,
    leo_check,
    silverman_toeplitz_check,
)
from .sequences import BoundedSequence, OverlapError, affine, combine, corpus, corpus_entry, indicator, signed_indicator
from .sets import (
    ArithmeticProgression,
    Blocks,
    Cardinality,
    Complement,
    Difference,
    Explicit,
    GeometricBlocks,
    Intersection,
    Predicate,
    RootBlocks,
    SetDescription,
    Squares,
    Union,
)

__version__ = "0.1.0"
