"""Exact-arithmetic feasibility and automorphism-constraint engine for
antipodal tight diameter-4 graphs with local eigenvalue parameters
(p, p+2), their local strongly regular graphs, and concrete small
witnesses."""

from .at4 import At4Params, IntersectionArray, PerP, feasible_r, intersection_array
from .higman import alpha1_candidates, chi_numerators
from .srg import SrgParams, Spectrum, local_family_params, srg_spectrum

__version__ = "0.1.0"

__all__ = [
    "At4Params",
    "IntersectionArray",
    "PerP",
    "SrgParams",
    "Spectrum",
    "alpha1_candidates",
    "chi_numerators",
    "feasible_r",
    "intersection_array",
    "local_family_params",
    "srg_spectrum",
]
