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

The package declares only `__version__`: each public name is in the
`__all__` of the one module that defines it, and is imported from there
(`from factorrace.lfunction import l_value`).
"""

__version__ = "0.1.0"

import os

# The BLAS calls here are small, so OpenBLAS worker threads would only spin on
# other CPUs for ~0.1 s after numpy loads.  Acts only before numpy's first import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
