"""Prime-factor counting races twisted by Dirichlet characters.

The package computes, for f = omega (distinct prime factors) or
f = Omega (prime factors with multiplicity), the twisted summatory
function

    psi_f(x, chi) = sum_{n <= x} chi(n) f(n)

with an exact segmented sieve, evaluates Dirichlet L-functions and their
critical-line zeros numerically, assembles the conditional explicit-formula
prediction for psi_f (secular term from L(1/2, chi), L'(1/2, chi) plus a
truncated sum over zeros), and quantifies the sign bias of the race through
logarithmic-density estimates, both empirical and via a random-phase
Monte Carlo model.
"""

__version__ = "0.1.0"

import os

# The BLAS calls here are small, so OpenBLAS worker threads would only spin on
# other CPUs for ~0.1 s after numpy loads.  Acts only before numpy's first import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .characters import (
    DirichletCharacter,
    character,
    conjugate_character,
    enumerate_characters,
    evaluate,
    gauss_sum,
    root_number,
)
from .density import (
    LiModel,
    MonteCarloDraw,
    MonteCarloEstimates,
    build_model,
    disagrees,
    li_monte_carlo,
    windowed_density,
)
from .lfunction import LValue, completed_lambda, hurwitz_zeta, l_value, rotated_z
from .prediction import mean_square, predict, residual
from .sieve import (
    ClassSums,
    DensityTrace,
    SieveConfig,
    combined_run,
    density_scan,
    factor_counts,
    sieve_run,
    twist,
)
from .zeros import (
    CacheFormatError,
    MissedZeroError,
    ZeroCache,
    ZeroRecord,
    count_check,
    load_cache,
    scan_zeros,
    store_cache,
)

__all__ = [
    "__version__",
    "DirichletCharacter",
    "character",
    "conjugate_character",
    "enumerate_characters",
    "evaluate",
    "gauss_sum",
    "root_number",
    "LValue",
    "hurwitz_zeta",
    "l_value",
    "completed_lambda",
    "rotated_z",
    "SieveConfig",
    "ClassSums",
    "DensityTrace",
    "sieve_run",
    "density_scan",
    "combined_run",
    "factor_counts",
    "twist",
    "ZeroRecord",
    "ZeroCache",
    "scan_zeros",
    "count_check",
    "store_cache",
    "load_cache",
    "MissedZeroError",
    "CacheFormatError",
    "predict",
    "residual",
    "mean_square",
    "LiModel",
    "MonteCarloDraw",
    "MonteCarloEstimates",
    "build_model",
    "disagrees",
    "li_monte_carlo",
    "windowed_density",
]
