"""Exact Chow and augmented Chow polynomials of uniform matroids.

Closed-form expansions, their multivariate refinements, a chain-counting
oracle over the lattice of flats of small matroids, and an exhaustive census
of Schubert matroids classified by rank, loops, and cogirth.
"""

from .combinat import (
    delta_multinomial,
    derangement_poly,
    eulerian_poly,
    exact_descent_counts,
    runs_partition,
)
from .forms import (
    METHODS,
    MULTIVARIATE_BASES,
    closed_form,
    coefficient_formula,
    multivariate_closed_form,
)
from .matroid import (
    INFINITY,
    FlatLattice,
    Matroid,
    MatroidError,
    chain_chow,
    chain_chow_multivariate,
    flats_lattice,
    matroid_from_bases,
    matroid_from_json,
    matroid_to_json,
    uniform,
)
from .polynomial import (
    NonSquarefreeProductError,
    NotPalindromicError,
    SqfMultiPoly,
    UniPoly,
    gamma_reconstruct,
    gamma_reconstruct_multivariate,
    gamma_vector,
)
from .schubert import (
    CensusTable,
    CoefficientCheck,
    CoefficientCountReport,
    ResourceLimitError,
    SchubertInvariants,
    SchubertSpec,
    census,
    census_matches_formula,
    schubert_invariants_formula,
    schubert_matroid,
    sm_count,
    verify_coefficient_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CensusTable",
    "CoefficientCheck",
    "CoefficientCountReport",
    "FlatLattice",
    "INFINITY",
    "METHODS",
    "MULTIVARIATE_BASES",
    "Matroid",
    "MatroidError",
    "NonSquarefreeProductError",
    "NotPalindromicError",
    "ResourceLimitError",
    "SchubertInvariants",
    "SchubertSpec",
    "SqfMultiPoly",
    "UniPoly",
    "census",
    "census_matches_formula",
    "chain_chow",
    "chain_chow_multivariate",
    "closed_form",
    "coefficient_formula",
    "delta_multinomial",
    "derangement_poly",
    "eulerian_poly",
    "exact_descent_counts",
    "flats_lattice",
    "gamma_reconstruct",
    "gamma_reconstruct_multivariate",
    "gamma_vector",
    "matroid_from_bases",
    "matroid_from_json",
    "matroid_to_json",
    "multivariate_closed_form",
    "runs_partition",
    "schubert_invariants_formula",
    "schubert_matroid",
    "sm_count",
    "uniform",
    "verify_coefficient_counts",
]
