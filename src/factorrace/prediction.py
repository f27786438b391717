"""Explicit-formula predictions for the twisted summatory functions.

For a non-principal character chi and f in {omega, Omega} the conditional
decomposition is

    psi_f(x, chi) = -+ a(chi) * { L(1/2) * sqrt(x)/log x
                                 + (2 L(1/2) - L'(1/2)) * sqrt(x)/log^2 x }
                    + sqrt(x)/log^2 x * { sum_{|gamma|<=T0} L'(rho) x^{i gamma} / (1/2 + i gamma)
                                          + Sigma(x, T0) },

with the secular block negative for omega and positive for Omega, and
a(chi) = 1 exactly when chi is real.  The truncation remainder Sigma is not
computable in closed form; here it is measured empirically as everything
the explicit terms miss (which also absorbs the O(sqrt(x)/log^3 x) blocks),
and its size is tracked through the mean square

    M(Y, T0) = 1/(Y - y0) * integral_{y0}^{Y} |Sigma(e^y, T0)|^2 dy

on the checkpoint grid in y = log x (trapezoid rule, y0 = log 1e3 to skip
small-x noise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter
from .lfunction import LValue
from .zeros import ZeroCache

__all__ = [
    "KINDS",
    "Prediction",
    "ResidualSeries",
    "FigureRow",
    "predict",
    "zero_oscillation",
    "residual_series",
    "figure_table",
    "write_compare_csv",
    "write_meansq_csv",
]

KINDS = ("omega", "Omega")
Y_MIN = math.log(1.0e3)


@dataclass(frozen=True)
class Prediction:
    x: float
    kind: str
    a_chi: int
    main_deterministic: complex
    zero_sum: complex
    t0: float

    @property
    def total(self) -> complex:
        return self.main_deterministic + self.zero_sum


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def zero_oscillation(x: float, chi: DirichletCharacter, cache: ZeroCache, t0: float) -> complex:
    """sqrt(x)/log^2 x * sum over cached zeros with |gamma| <= t0.

    For real characters the terms are combined in (gamma, -gamma) pairs so
    the sum is exactly real before any float rounding.
    """
    if (cache.q, cache.chi_index) != (chi.modulus, chi.index):
        raise ValueError("zero cache does not belong to this character")
    lx = math.log(x)
    scale = math.sqrt(x) / lx**2
    if chi.is_real:
        acc = 0.0
        for rec in cache.select(t0):
            if rec.gamma <= 0:
                continue
            term = rec.l_prime * cmath.exp(1j * rec.gamma * lx) / complex(0.5, rec.gamma)
            acc += 2.0 * term.real
        return complex(scale * acc, 0.0)
    acc = 0j
    for rec in cache.select(t0):
        acc += rec.l_prime * cmath.exp(1j * rec.gamma * lx) / complex(0.5, rec.gamma)
    return scale * acc


def predict(
    x: float,
    chi: DirichletCharacter,
    kind: str,
    l_half: LValue,
    cache: ZeroCache,
    t0: float,
) -> Prediction:
    """Assemble the explicit terms (secular block + truncated zero sum) at x."""
    _check_kind(kind)
    if x < 2:
        raise ValueError("x must be >= 2")
    if chi.is_principal:
        raise ValueError("predictions are defined for non-principal characters")
    if t0 > cache.t_scanned:
        raise ValueError(f"T0={t0} exceeds scanned height {cache.t_scanned}")
    a_chi = 1 if chi.is_real else 0
    sign = -1.0 if kind == "omega" else 1.0
    lx = math.log(x)
    sx = math.sqrt(x)
    main = sign * a_chi * (
        l_half.value * sx / lx + (2 * l_half.value - l_half.derivative) * sx / lx**2
    )
    return Prediction(
        x=float(x),
        kind=kind,
        a_chi=a_chi,
        main_deterministic=main,
        zero_sum=zero_oscillation(x, chi, cache, t0),
        t0=float(t0),
    )


@dataclass(frozen=True)
class ResidualSeries:
    """Empirical truncation remainder on the y = log x grid."""

    y: np.ndarray  # strictly increasing
    sigma: np.ndarray  # complex, Sigma_emp(e^y, T0)
    t0: float

    @property
    def mean_square(self) -> float:
        if len(self.y) < 2:
            raise ValueError("mean square needs at least two grid points")
        span = self.y[-1] - self.y[0]
        return float(np.trapezoid(np.abs(self.sigma) ** 2, self.y) / span)


def residual_series(
    xs,
    observed,
    predictions: list[Prediction],
    y_min: float = Y_MIN,
) -> ResidualSeries:
    """Sigma_emp(x, T0) = (psi_f(x) - main - zero_sum) * log^2 x / sqrt(x).

    `xs`, `observed` and `predictions` must share one checkpoint grid.
    """
    xs = list(xs)
    observed = list(observed)
    if not (len(xs) == len(observed) == len(predictions)):
        raise ValueError("checkpoint grids do not match")
    t0 = predictions[0].t0 if predictions else 0.0
    ys = []
    sig = []
    for x, psi, pred in zip(xs, observed, predictions):
        if pred.x != float(x):
            raise ValueError(f"prediction grid mismatch at x={x} vs {pred.x}")
        if pred.t0 != t0:
            raise ValueError("predictions mix different T0 values")
        y = math.log(x)
        if y < y_min - 1e-12:
            continue
        ys.append(y)
        sig.append((complex(psi) - pred.total) * y**2 / math.sqrt(x))
    return ResidualSeries(np.array(ys), np.array(sig, dtype=complex), t0)


@dataclass(frozen=True)
class FigureRow:
    x: int
    observed: complex
    main: complex
    full: complex  # main + zero sum
    resid_norm: complex  # (observed - full) * log^2 x / sqrt(x)


def figure_table(xs, observed, predictions: list[Prediction]) -> list[FigureRow]:
    """Per-checkpoint comparison rows: the data behind the race plots."""
    if not (len(xs) == len(observed) == len(predictions)):
        raise ValueError("checkpoint grids do not match")
    rows = []
    for x, psi, pred in zip(xs, observed, predictions):
        if pred.x != float(x):
            raise ValueError(f"prediction grid mismatch at x={x} vs {pred.x}")
        norm = math.log(x) ** 2 / math.sqrt(x)
        psi = complex(psi)
        rows.append(
            FigureRow(
                x=int(x),
                observed=psi,
                main=pred.main_deterministic,
                full=pred.total,
                resid_norm=(psi - pred.total) * norm,
            )
        )
    return rows


def write_compare_csv(rows: list[FigureRow], path: str, comment: str | None = None) -> None:
    lines = (
        ",".join(
            [str(r.x)]
            + [
                fmt_float(v)
                for v in (
                    r.observed.real,
                    r.observed.imag,
                    r.main.real,
                    r.main.imag,
                    r.full.real,
                    r.full.imag,
                    r.resid_norm.real,
                    r.resid_norm.imag,
                )
            ]
        )
        for r in rows
    )
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
