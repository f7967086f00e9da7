"""Limiting joint trace moments of patterned random matrices.

Five ensembles (Wigner, Toeplitz, Hankel, Reverse Circulant, Symmetric
Circulant), their pair-matched words and exact limit volumes, Monte Carlo
cross-validation against simulated matrices, spectral reports for sums,
and asymptotic-freeness diagnostics for Wigner against the rest.
"""

__version__ = "0.1.0"

from .algebra import (
    ColoredWord,
    Monomial,
    drop_indices,
    enumerate_pair_matched_words,
    is_catalan,
    match_pairs,
    parse_monomial,
    word_from_text,
)
from .freeness import (
    free_moment_prediction,
    freeness_report,
    sigma_gamma_cycles,
)
from .limits import (
    BudgetExceededError,
    VolumeEstimate,
    alpha,
    alpha_bound,
    alpha_estimate,
    build_cases,
    case_volume_mc,
    count_circuits_exact,
    p_limit,
    resolve_affine,
)
from .linkfns import DELTA, LinkKind
from .sampler import (
    InputDistribution,
    MomentEstimate,
    empirical_trace_moment,
    sample_matrix,
)
from .spectra import (
    Histogram,
    eigenvalues_symmetric,
    esd,
    sum_lsd_report,
)

__all__ = [
    "BudgetExceededError",
    "ColoredWord",
    "DELTA",
    "Histogram",
    "InputDistribution",
    "LinkKind",
    "MomentEstimate",
    "Monomial",
    "VolumeEstimate",
    "alpha",
    "alpha_bound",
    "alpha_estimate",
    "build_cases",
    "case_volume_mc",
    "count_circuits_exact",
    "drop_indices",
    "eigenvalues_symmetric",
    "empirical_trace_moment",
    "enumerate_pair_matched_words",
    "esd",
    "free_moment_prediction",
    "freeness_report",
    "is_catalan",
    "match_pairs",
    "p_limit",
    "parse_monomial",
    "resolve_affine",
    "sample_matrix",
    "sigma_gamma_cycles",
    "sum_lsd_report",
    "word_from_text",
]
