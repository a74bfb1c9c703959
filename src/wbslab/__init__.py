"""Desk-scale constructions behind weak Banach-Saks failures.

The package realizes, with exact certificates wherever the mathematics
is exact, the chain of objects that defeats the weak Banach-Saks
property on infinite structures: the family of maximal Schreier sets
and its computable enumerations, the 0/1 sequence they index with its
Cesaro-mean witnesses, separated pair families on finite metric spaces,
Holder bump functions with sharp seminorm bounds, embedding operators
with certified two-sided norm estimates, and symbolic Cantor-Bendixson
classification of compact countable spaces.

Names are imported on first use (PEP 562), so ``import wbslab`` loads no
submodule: the exact half (``schreier``, ``weaknull``, ``classify``)
never pays for numpy, which only the float half (``metric``, ``holder``,
``embed``, ``experiments``, ``samples``) needs.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each exported name.
_EXPORTS = {
    "classify": (
        "FiniteMeasurePartition",
        "INFINITE_RANK",
        "Ordinal",
        "Verdict",
        "cb_rank",
        "classify_calpha",
        "classify_cb",
        "classify_c_of_ordinal",
        "classify_linf",
        "parse_ordinal",
    ),
    "embed": (
        "EmbeddingReport",
        "FiniteSequence",
        "HolderEmbedding",
        "SandwichCheck",
        "StepFunction",
        "build_support_map",
        "distortion_report",
        "embed_cb",
        "embed_holder",
        "embed_linf",
        "structured_vectors",
        "verify_sandwich",
    ),
    "errors": (
        "CertificateViolationError",
        "InconsistentFamilyError",
        "InvalidInputError",
        "NeedsMoreDataError",
        "PairSearchFailure",
        "WbsLabError",
    ),
    "experiments": ("EXPERIMENT_NAMES", "ExperimentConfig", "ExperimentResult", "run_experiment"),
    "holder": (
        "ScalarField",
        "holder_norm",
        "holder_seminorm",
        "pair_bump",
        "sup_norm",
        "tent_bump",
    ),
    "metric": (
        "FiniteMetricSpace",
        "MetricViolation",
        "SeparatedPairFamily",
        "ValidationReport",
        "find_pair_family",
        "load_space",
        "validate_metric",
        "verify_pair_family",
    ),
    "schreier": (
        "ENUMERATION_NAMES",
        "CanonicalEnumeration",
        "ReversedGradeEnumeration",
        "SchreierSet",
        "count_max_at_most",
        "get_enumeration",
    ),
    "tolerances": ("DEFAULT_TOLERANCES", "Tolerances"),
    "weaknull": (
        "CesaroCertificate",
        "SequenceOracle",
        "Subsequence",
        "WeakConvergenceChallenge",
        "WeakWitness",
        "certify_not_cesaro_null",
        "find_weak_witness",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "inputs", "samples"}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
