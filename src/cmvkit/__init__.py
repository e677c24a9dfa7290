"""Schur functions of unitary operators and their factorizations.

Build block five-diagonal and Hessenberg unitaries from matrix
parameter sequences, compute operator-valued Schur functions of
subspaces from first-return amplitudes, construct overlapping
factorizations, and verify the resulting factorization formulas
against independent routes.
"""

from .cmv import (
    BlockOperatorSpec,
    build,
    build_unitary,
    standard_overlap,
    unitary_truncation,
)
from .khrushchev import (
    VerificationReport,
    compress_to_vector,
    hessenberg_superposition,
    scalar_superposition_schur,
    substitute_into_truncation,
    verify_hessenberg_formula,
    verify_path_count,
    verify_range_formula,
    verify_site_formula,
    verify_superposition,
)
from .linalg import Unitary, certify, is_unitary
from .overlap import (
    OverlapFactorization,
    SubspacePartition,
    abstract_khrushchev_check,
    check_overlap,
    construct_overlap,
    verify_gauge,
)
from .pathcount import oracle_first_return
from .schur import (
    SchurParameters,
    inverse_iterate,
    inverse_iterate_series,
    iterate,
    iterate_series,
    mobius_step,
    schur_forward,
    synthesize,
)
from .series import MatrixPowerSeries, coeff_distance
from .spectral import (
    first_return_amplitudes,
    return_statistics,
    schur_of_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperatorSpec",
    "MatrixPowerSeries",
    "OverlapFactorization",
    "SchurParameters",
    "SubspacePartition",
    "Unitary",
    "VerificationReport",
    "abstract_khrushchev_check",
    "build",
    "build_unitary",
    "certify",
    "check_overlap",
    "coeff_distance",
    "compress_to_vector",
    "construct_overlap",
    "first_return_amplitudes",
    "hessenberg_superposition",
    "inverse_iterate",
    "inverse_iterate_series",
    "is_unitary",
    "iterate",
    "iterate_series",
    "mobius_step",
    "oracle_first_return",
    "return_statistics",
    "scalar_superposition_schur",
    "schur_forward",
    "schur_of_subspace",
    "standard_overlap",
    "substitute_into_truncation",
    "synthesize",
    "unitary_truncation",
    "verify_gauge",
    "verify_hessenberg_formula",
    "verify_path_count",
    "verify_range_formula",
    "verify_site_formula",
    "verify_superposition",
]
