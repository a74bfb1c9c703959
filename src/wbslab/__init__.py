"""Desk-scale constructions behind weak Banach-Saks failures.

The package realizes, with exact certificates wherever the mathematics
is exact, the chain of objects that defeats the weak Banach-Saks
property on infinite structures: the family of maximal Schreier sets
and its computable enumerations, the 0/1 sequence they index with its
Cesaro-mean witnesses, separated pair families on finite metric spaces,
Holder bump functions with sharp seminorm bounds, embedding operators
with certified two-sided norm estimates, and symbolic Cantor-Bendixson
classification of compact countable spaces.
"""

from .classify import (
    FiniteMeasurePartition,
    INFINITE_RANK,
    Ordinal,
    Verdict,
    cb_rank,
    classify_calpha,
    classify_cb,
    classify_c_of_ordinal,
    classify_linf,
    derived_set,
    parse_ordinal,
)
from .embed import (
    EmbeddingReport,
    FiniteSequence,
    HolderEmbedding,
    SandwichCheck,
    StepFunction,
    build_support_map,
    distortion_report,
    embed_cb,
    embed_holder,
    embed_linf,
    structured_vectors,
    verify_sandwich,
)
from .errors import (
    CertificateViolationError,
    InconsistentFamilyError,
    InvalidInputError,
    NeedsMoreDataError,
    PairSearchFailure,
    WbsLabError,
)
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, ExperimentResult, run_experiment
from .holder import (
    ScalarField,
    holder_norm,
    holder_seminorm,
    pair_bump,
    power_diff_check,
    sup_norm,
    tent_bump,
)
from .metric import (
    FiniteMetricSpace,
    MetricViolation,
    SeparatedPairFamily,
    ValidationReport,
    find_pair_family,
    load_space,
    validate_metric,
    verify_pair_family,
)
from .schreier import (
    ENUMERATION_NAMES,
    CanonicalEnumeration,
    ReversedGradeEnumeration,
    SchreierSet,
    count_max_at_most,
    get_enumeration,
    is_maximal_schreier,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .weaknull import (
    CesaroCertificate,
    SequenceOracle,
    Subsequence,
    WeakConvergenceChallenge,
    WeakWitness,
    certify_not_cesaro_null,
    find_weak_witness,
)

__version__ = "0.1.0"
