"""Logarithmic-density estimation for the biased sign sets.

Empirically, the density of a threshold set S is estimated by

    delta_hat(S)(X) = (1/log X) * sum_{n <= X, n in S} 1/n,

with S the thresholds where the running twisted sum is negative (omega
race) or positive (Omega race); the sieve module supplies those harmonic
measures exactly.  A logarithmic density is a limit in X, so dropping any
fixed initial segment does not change it; the windowed estimate

    delta_hat(S)(x0, X) = (H_S(X) - H_S(x0)) / log(X / x0),

with H_S(x) = sum_{n <= x, n in S} 1/n, measures the same limit over the
range (x0, X] alone.  The full-range estimate carries the whole harmonic
mass of the small-n prefix, where the race has not yet settled, and so
approaches its limit only like 1 - C/log X.

The model-based estimate assumes the positive zero ordinates are linearly
independent over Q, so the phases (gamma * y mod 2pi) equidistribute: the
normalized oscillation is replaced by X = sum_gamma A_gamma * cos(U_gamma)
with iid uniform phases and amplitudes A_gamma = 2|L'(rho)/(1/2+i gamma)|,
truncated at T0 (a declared model error; the terms are `ZeroCache.terms`).
The model is built for real characters only.  In the log^2 x / sqrt(x)
normalization their secular part grows linearly in y = log x,

    drift(y) = L(1/2) * y + 2 L(1/2) - L'(1/2),

while the oscillation stays bounded, which is what drives the densities
toward 1.  The Monte Carlo estimates P[-drift(y) + X < 0] for the omega
race and the mirrored P[drift(y) + X > 0] for the Omega race, both as
P[SIGN * X > -drift(y)] with SIGN the race's side from `sieve.SIGN`, and
both from one draw of the phases.

`disagrees` compares like with like: the mean of the model's P(y) over its
y grid against the windowed empirical density of the same race over the
same range of x, x0 being the checkpoint at the grid's smallest y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter
from .lfunction import LValue
from .sieve import KINDS, SIGN, DensityTrace
from .zeros import ZeroCache

__all__ = [
    "LiModel",
    "MonteCarloDraw",
    "MonteCarloEstimates",
    "build_model",
    "disagrees",
    "li_monte_carlo",
    "windowed_density",
    "write_density_csv",
    "write_mc_csv",
]

MIN_TRIALS = 1000
MC_CHUNK = 1 << 10  # trials per draw of li_monte_carlo, a power of two
DISAGREE_TOL = 0.1


def windowed_density(trace: DensityTrace, x0: int) -> tuple[float, float]:
    """(delta_omega, delta_Omega), in KINDS order, over the window (x0, X],
    X = trace.x_max.

    Each is (H_f(X) - H_f(x0)) / log(X / x0); H_f(x0) comes from the trace
    row at x0 (delta times log x0), so x0 must be a checkpoint below X.
    """
    if not 1 <= x0 < trace.x_max:
        raise ValueError(f"window start must lie in [1, {trace.x_max}), got {x0}")
    row = next((r for r in trace.trace if r[0] == x0), None)
    if row is None:
        raise ValueError(f"window start {x0} is not a checkpoint of the trace")
    log_x0 = math.log(x0)
    span = math.log(trace.x_max / x0)
    return tuple((h - delta * log_x0) / span for h, delta in zip(trace.h, row[1:]))


@dataclass(frozen=True)
class LiModel:
    """Random-phase surrogate: amplitudes from zeros up to T0 plus linear drift."""

    amplitudes: tuple[float, ...]
    drift_slope: float
    drift_intercept: float
    seed: int

    def drift(self, y: float) -> float:
        return self.drift_slope * y + self.drift_intercept


def build_model(
    chi: DirichletCharacter,
    l_half: LValue,
    cache: ZeroCache,
    t0: float,
    seed: int,
) -> LiModel:
    if not chi.is_real:
        raise ValueError("the random-phase model requires a real character")
    amps = tuple(2.0 * abs(c) for _, c in cache.terms(chi, t0))
    slope = l_half.value.real
    intercept = (2 * l_half.value - l_half.derivative).real
    return LiModel(amps, slope, intercept, seed)


@dataclass(frozen=True)
class MonteCarloEstimates:
    kind: str
    points: tuple[tuple[float, float, float], ...]  # (y, p_hat, std_error)


@dataclass(frozen=True)
class MonteCarloDraw:
    """The estimates of both races, in `KINDS` order, from one draw of the phases."""

    trials: int
    seed: int
    estimates: tuple[MonteCarloEstimates, ...]


def li_monte_carlo(model: LiModel, y_grid, trials: int) -> MonteCarloDraw:
    """Bias probability of both races, in `KINDS` order, at each y, under
    the random-phase model.

    One set of phase samples is drawn per call and reused across the y grid
    and the two races, which differ only in the sign of the oscillation;
    each marginal estimate is unbiased and reproducible from the seed.  The
    phases are drawn from one `default_rng(seed)` stream MC_CHUNK trials at
    a time and counted into integer totals, so memory does not grow with
    `trials`.  Each trial gets the bits of one `trials`-row draw: MC_CHUNK
    is a power of two, so every chunk starts on a row block of the
    matrix-vector product.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    if not model.amplitudes and model.drift_slope == 0 and model.drift_intercept == 0:
        raise ValueError("degenerate model: no oscillation amplitudes and zero drift")
    ys = [float(y) for y in y_grid]
    bars = np.array([-model.drift(y) for y in ys])
    amps = np.asarray(model.amplitudes)
    rng = np.random.default_rng(model.seed)
    hits = np.zeros((len(KINDS), len(ys)), dtype=np.int64)
    for lo in range(0, trials, MC_CHUNK):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(min(MC_CHUNK, trials - lo), amps.size))
        osc = np.cos(phases, out=phases) @ amps  # zeros when there are no amplitudes
        for hit, kind in zip(hits, KINDS):
            lean = SIGN[kind] * osc  # exact: a sign flip or a copy
            hit += np.count_nonzero(lean[:, None] > bars, axis=0)
    estimates = []
    for kind, counts in zip(KINDS, hits.tolist()):
        ps = [hit / trials for hit in counts]
        points = tuple((y, p, math.sqrt(p * (1.0 - p) / trials)) for y, p in zip(ys, ps))
        estimates.append(MonteCarloEstimates(kind, points))
    return MonteCarloDraw(trials, model.seed, tuple(estimates))


def disagrees(trace: DensityTrace, mc: MonteCarloEstimates) -> bool:
    """Whether the model and the empirical density of the race `mc.kind`
    differ by more than DISAGREE_TOL over one range of x.

    The model side is the mean of P(y) over the grid points with y <= log X
    (all points if none); the empirical side is the windowed density from
    the last checkpoint at or below the smallest of those y.  Without such
    a checkpoint below X the window is empty and the full-range estimate
    is used.  A model with no grid point compares nothing.
    """
    if not mc.points:
        return False
    column = KINDS.index(mc.kind)
    y_max = math.log(trace.x_max) if trace.x_max > 1 else float("inf")
    grid = [(y, p) for y, p, _ in mc.points if y <= y_max + 1e-9]
    if not grid:
        grid = [(y, p) for y, p, _ in mc.points]
    model = sum(p for _, p in grid) / len(grid)
    y0 = min(y for y, _ in grid)
    starts = [x for x, _, _ in trace.trace if math.log(x) <= y0 + 1e-9]
    if starts and starts[-1] < trace.x_max:
        empirical = windowed_density(trace, starts[-1])[column]
    else:
        empirical = trace.delta[column]
    return abs(empirical - model) > DISAGREE_TOL


def write_density_csv(trace: DensityTrace, path: str, comment: str | None = None) -> None:
    rows = (f"{x},{fmt_float(dw)},{fmt_float(dW)}" for x, dw, dW in trace.trace)
    write_csv(path, "X,delta_omega,delta_Omega", rows, comment)


def write_mc_csv(draws: list[MonteCarloDraw], path: str, comment: str | None = None) -> None:
    rows = (
        f"{fmt_float(y)},{fmt_float(p)},{draw.trials},{draw.seed},{mc.kind}"
        for draw in draws
        for mc in draw.estimates
        for y, p, _ in mc.points
    )
    write_csv(path, "y,p_neg,trials,seed,kind", rows, comment)
