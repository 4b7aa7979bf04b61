"""Discrete-stable and casual-stable distribution families.

Probability generating functions that solve P(z) = P(Q_p(z))^n for a
semigroup of thinning maps Q_p, Laplace transforms that solve the
continuous analogue L(s) = L(-log g_n(s))^n, exact samplers for both,
a citation-network model built from Sibuya and geometric layers, and a
harness that measures convergence of normalized sums toward a Gamma
limit.  All identity checks run in complement form (tracking 1 - z
rather than z) so residuals sit at rounding level.
"""

from .citations import (
    FieldSim,
    RankingReport,
    SimSummary,
    author_rvs,
    empirical_mode,
    field_totals,
    lower_median,
    ranking_instability,
    simulate_author,
    simulate_field,
    tail_exponent,
    top_share,
)
from .convergence import (
    condition_a,
    condition_b,
    convergence_curve,
    g_inverse,
    matched_exponential,
    normalized_sum_transform,
)
from .errors import (
    InsufficientDataError,
    IterationCapError,
    ParameterError,
    PrecisionError,
    TableError,
    UnsupportedError,
)
from .extraction import PmfTable, ResidualReport, extract_pmf, radial_norm_defect, validate_pgf
from .families import (
    AuthorCitations,
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Gamma,
    Geometric,
    Sibuya,
    SvhStable,
    TemperedStable,
)
from .samplers import (
    Seed,
    geometric_rvs,
    inverse_gaussian_rvs,
    make_rng,
    sample_sibuya,
    sibuya_rvs,
    svh_rvs,
    ex1_rvs,
    thin_general,
)
from .stability import (
    casual_stability_residual,
    commutativity_residual,
    compose_thinning,
    discrete_stability_residual,
    solve_pn,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorCitations",
    "Bernoulli",
    "Example1",
    "Example1Thin",
    "Example2",
    "Example2Thin",
    "FieldCitations",
    "FieldSim",
    "Gamma",
    "Geometric",
    "InsufficientDataError",
    "IterationCapError",
    "ParameterError",
    "PmfTable",
    "PrecisionError",
    "RankingReport",
    "ResidualReport",
    "Seed",
    "Sibuya",
    "SimSummary",
    "SvhStable",
    "TableError",
    "TemperedStable",
    "UnsupportedError",
    "author_rvs",
    "casual_stability_residual",
    "commutativity_residual",
    "compose_thinning",
    "condition_a",
    "condition_b",
    "convergence_curve",
    "discrete_stability_residual",
    "empirical_mode",
    "ex1_rvs",
    "extract_pmf",
    "field_totals",
    "g_inverse",
    "geometric_rvs",
    "inverse_gaussian_rvs",
    "lower_median",
    "make_rng",
    "matched_exponential",
    "normalized_sum_transform",
    "radial_norm_defect",
    "ranking_instability",
    "sample_sibuya",
    "sibuya_rvs",
    "simulate_author",
    "simulate_field",
    "solve_pn",
    "svh_rvs",
    "tail_exponent",
    "thin_general",
    "top_share",
    "validate_pgf",
    "__version__",
]
