"""Explicit-formula predictions for the twisted summatory functions.

For a non-principal character chi and f in {omega, Omega} the conditional
decomposition is

    psi_f(x, chi) = -+ a(chi) * { L(1/2) * sqrt(x)/log x
                                 + (2 L(1/2) - L'(1/2)) * sqrt(x)/log^2 x }
                    + sqrt(x)/log^2 x * { sum_{|gamma|<=T0} L'(rho) x^{i gamma} / (1/2 + i gamma)
                                          + Sigma(x, T0) },

with the secular block negative for omega and positive for Omega, and
a(chi) = 1 exactly when chi is real.  Everything is computed on the whole
checkpoint grid at once: `predict` returns the unsigned secular block and
the truncated zero sum as arrays over x, once per (chi, T0), and both kinds
share them; a kind's main term is SIGN[kind] times the secular block, with
SIGN the table of bias directions kept in `sieve`.

The truncation remainder Sigma is not computable in closed form; here it
is measured empirically as everything the explicit terms miss (which also
absorbs the O(sqrt(x)/log^3 x) blocks),

    Sigma_emp(x, T0) = (psi_f(x) - main - zero sum) * log^2 x / sqrt(x),

one array (`residual`) that fills the residual columns of the comparison
table and, through `mean_square`,

    M(Y, T0) = 1/(Y - y0) * integral_{y0}^{Y} |Sigma(e^y, T0)|^2 dy

on the checkpoint grid in y = log x (trapezoid rule, y0 = log 1e3 to skip
small-x noise).
"""

from __future__ import annotations

import math

import numpy as np

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter
from .lfunction import LValue
from .zeros import ZeroCache

__all__ = [
    "predict",
    "residual",
    "mean_square",
    "write_compare_csv",
    "write_meansq_csv",
]

Y_MIN = math.log(1.0e3)
# cap on checkpoints * zeros of one block of the zero sum, so memory stays bounded
_BLOCK_ELEMENTS = 1 << 16


def predict(
    xs, chi: DirichletCharacter, l_half: LValue, cache: ZeroCache, t0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(secular block, truncated zero sum) at every x of the grid `xs`.

    The zero sum runs over `cache.terms(chi, t0)`.  For a real character it
    pairs gamma with -gamma, taking twice the real part of the gamma > 0
    terms, so it is exactly real.  Each row of the (checkpoint x
    zero) block is summed by numpy's reduction, at most _BLOCK_ELEMENTS
    entries at a time; a row's sum depends only on that row, so the
    chunking does not change any bit of the result.
    """
    if chi.is_principal:
        raise ValueError("predictions are defined for non-principal characters")
    terms = cache.terms(chi, t0)
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(xs >= 2):
        raise ValueError("x must be >= 2")
    lx = np.log(xs)
    sx = np.sqrt(xs)
    a_chi = 1.0 if chi.is_real else 0.0
    secular = a_chi * (l_half.value * sx / lx + (2 * l_half.value - l_half.derivative) * sx / lx**2)

    gamma = np.array([g for g, _ in terms])
    coef = np.array([c for _, c in terms], dtype=np.complex128)
    zero_sum = np.empty(len(xs), dtype=np.complex128)
    step = max(1, _BLOCK_ELEMENTS // max(1, len(terms)))
    for lo in range(0, len(xs), step):
        rows = slice(lo, lo + step)
        terms = coef * np.exp(1j * np.outer(lx[rows], gamma))
        zero_sum[rows] = 2.0 * terms.real.sum(axis=1) if chi.is_real else terms.sum(axis=1)
    return secular, sx / lx**2 * zero_sum


def residual(xs, observed, full) -> np.ndarray:
    """Sigma_emp(x, T0) = (psi_f(x) - full) * log^2 x / sqrt(x) on the grid `xs`,
    where `full` is the main term plus the zero sum."""
    xs = np.asarray(xs, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.complex128)
    if not xs.shape == observed.shape == np.shape(full):
        raise ValueError("checkpoint grids do not match")
    return (observed - full) * (np.log(xs) ** 2 / np.sqrt(xs))


def mean_square(xs, sigma) -> tuple[float, float] | None:
    """(Y, M(Y, T0)) over the grid points with x >= 1e3, Y the last one's log;
    None when there are fewer than two such points."""
    y = np.log(np.asarray(xs, dtype=np.float64))
    keep = y >= Y_MIN - 1e-12
    y = y[keep]
    if len(y) < 2:
        return None
    return float(y[-1]), float(np.trapezoid(np.abs(np.asarray(sigma)[keep]) ** 2, y) / (y[-1] - y[0]))


def write_compare_csv(xs, observed, main, full, sigma, path: str, comment: str | None = None) -> None:
    """One row per checkpoint: x, then the real and imaginary parts of psi_f,
    the main term, main + zero sum and Sigma_emp."""
    cols = [part.tolist() for arr in (observed, main, full, sigma) for part in (np.real(arr), np.imag(arr))]
    template = "%d" + ",%.17g" * 8  # '%.17g' % v is fmt_float(v)
    lines = (template % row for row in zip(xs, *cols))
    header = "x,re_obs,im_obs,re_main,im_main,re_full,im_full,re_resid_norm,im_resid_norm"
    write_csv(path, header, lines, comment)


def write_meansq_csv(groups, path: str, comment: str | None = None) -> None:
    """groups: list of (label_comment, [(t0, Y, M), ...]) blocks."""
    lines = []
    for label, entries in groups:
        lines.append(f"# {label}")
        for t0, y_end, m in entries:
            lines.append(f"{fmt_float(t0)},{fmt_float(y_end)},{fmt_float(m)}")
    write_csv(path, "T0,Y,M", lines, comment)
