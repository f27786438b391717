"""The benchmark workloads and their seed-derived inputs.

BENCHMARK.json lists the first three; `q24_multichar` is run by hand (see
README.md for why it left the evaluated set).

Seed 0 runs exactly the reference configurations.  Any other seed sets the
Monte Carlo seed and shrinks `x_max` and the zero-scan height `T` by a
seed-drawn fraction below 1%, so the work changes by about 1% or less and
every zero in the stored reference list still bounds the expected count
from above (the height only ever moves down).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

DEFAULT_MC_SEED = 42  # the CLI's own default `--seed`
JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    q: int
    chi: str
    x_max: int | None  # None: the subcommand runs no sieve
    t_scan: float | None  # None: the subcommand scans no zeros
    t0: tuple[float, ...] | None  # None: T0 equals the scan height
    ratio: float | None = None
    threads: int = 1
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mod4_race", "all", 4, "1", 10**8, 200.0, (10.0, 50.0, 100.0),
            why="the paper's mod-4 race at 1e8: single-thread sieve kernel plus "
            "one-character density fold, small-q L-evals at large height",
        ),
        Workload(
            "q163_zeros", "zeros", 163, "81", None, 30.0, None,
            why="zero scan at q=163: 163 short Hurwitz calls per L-eval plus "
            "bisection refinement, no sieve",
        ),
        Workload(
            "wide_q_twists", "sieve", 1000, "all", 10**7, None, None, ratio=1.1,
            why="q=1000 sieve with all 400 characters: twists and the class fold "
            "dominate, real and complex twist paths",
        ),
        Workload(
            "q24_multichar", "all", 24, "all", 10**7, 50.0, None, threads=2,
            why="seven real characters (7 sieve passes) and two zero scans on the "
            "threaded two-pass path",
        ),
    )
}

# Sizes for the smoke mode: every code path of the full workload, in seconds.
SMOKE = {
    "mod4_race": dict(x_max=200_000, t_scan=40.0, t0=(10.0, 20.0)),
    "q163_zeros": dict(t_scan=4.0),
    "wide_q_twists": dict(q=60, x_max=100_000),
    "q24_multichar": dict(x_max=100_000, t_scan=10.0),
}


@dataclass(frozen=True)
class Instance:
    """One workload with its seed applied: what a sample actually runs."""

    workload: Workload
    seed: int
    mc_seed: int
    x_max: int | None
    t_scan: float | None
    t0: tuple[float, ...] | None

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def q(self) -> int:
        return self.workload.q

    def argv(self, out: str) -> list[str]:
        w = self.workload
        args = [w.command, "--q", str(w.q), "--chi", w.chi]
        if self.x_max is not None:
            args += ["--xmax", str(self.x_max)]
        if w.ratio is not None:
            args += ["--ratio", repr(w.ratio)]
        if self.t_scan is not None:
            args += ["--T", repr(self.t_scan)]
            for t0 in self.t0 or (self.t_scan,):
                args += ["--T0", repr(t0)]
        if w.threads != 1:
            args += ["--threads", str(w.threads)]
        args += ["--seed", str(self.mc_seed), "--out", out]
        return args


def instance(name: str, seed: int, smoke: bool = False) -> Instance:
    """The workload `name` with inputs drawn from `seed`."""
    w = WORKLOADS[name]
    if smoke:
        w = replace(w, **SMOKE[name])
    x_max, t_scan = w.x_max, w.t_scan
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        u, v = rng.random(), rng.random()
        if x_max is not None:
            x_max -= int(u * JITTER * x_max)
        if t_scan is not None:
            t_scan = round(t_scan * (1.0 - JITTER * v), 6)
    mc_seed = DEFAULT_MC_SEED if seed == 0 else seed
    return Instance(w, seed, mc_seed, x_max, t_scan, w.t0)
