"""Isolated layer probes, run in their own process after a warm-up.

    python3 benchmarks/probes.py WORKLOAD SEED [--smoke]

Prints one JSON object.  Each value is a probe of one layer, not a share of
a workload run:

- sieve.kernel_nps: n/s of `factor_counts` over [0, KERNEL_N], median of 3;
- sieve.density_fold_s: `combined_run` minus `sieve_run` on the workload's
  sieve configuration, with the first real non-principal character;
- sieve.class_fold_s: `sieve_run` at the workload's q minus `sieve_run` at
  q = 1, same x_max and checkpoints;
- lfunction.probe_us: median microseconds of one `l_value` at the
  workload's q over fixed seed-drawn heights on the critical line.

Probes run single-threaded, whatever the workload's thread count.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import instance  # noqa: E402

KERNEL_N = 1 << 22
SMOKE_KERNEL_N = 1 << 16
L_HEIGHTS = 16
DEFAULT_SIEVE_X = 10**6  # the CLI's default x_max, for workloads that run no sieve


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def run(name: str, seed: int, smoke: bool) -> dict[str, float]:
    from factorrace.characters import enumerate_characters
    from factorrace.lfunction import l_value
    from factorrace.sieve import SieveConfig, combined_run, factor_counts, sieve_run

    inst = instance(name, seed, smoke)
    q = inst.q
    chars = enumerate_characters(q)
    real = next(c for c in chars if c.is_real and not c.is_principal)
    primitive = next(c for c in chars if c.is_primitive and not c.is_principal)
    if inst.workload.chi != "all":
        primitive = chars[int(inst.workload.chi)]

    x_max = inst.x_max or (SMOKE_KERNEL_N if smoke else DEFAULT_SIEVE_X)
    ratio = inst.workload.ratio or 1.02
    cfg = SieveConfig(x_max=x_max, q=q, ratio=ratio)
    cfg_q1 = SieveConfig(x_max=x_max, q=1, checkpoints=cfg.checkpoints)
    tiny = SieveConfig(x_max=SMOKE_KERNEL_N, q=q)
    kernel_n = SMOKE_KERNEL_N if smoke else KERNEL_N

    # warm-up: first calls pay imports, allocator growth and lazy tables
    factor_counts(SMOKE_KERNEL_N)
    combined_run(tiny, real)
    sieve_run(tiny)
    l_value(primitive, complex(0.5, 1.0))

    kernel = statistics.median(_timed(factor_counts, kernel_n) for _ in range(3))
    t_combined = _timed(combined_run, cfg, real)
    t_sieve = _timed(sieve_run, cfg)
    t_sieve_q1 = _timed(sieve_run, cfg_q1)

    height = inst.t_scan or 50.0
    rng = random.Random(f"probe:{name}:{seed}")
    heights = sorted(rng.uniform(1.0, height) for _ in range(L_HEIGHTS))
    l_us = statistics.median(1e6 * _timed(l_value, primitive, complex(0.5, t)) for t in heights)
    return {
        "sieve.kernel_nps": (kernel_n + 1) / kernel,
        "sieve.density_fold_s": t_combined - t_sieve,
        "sieve.class_fold_s": t_sieve - t_sieve_q1,
        "lfunction.probe_us": l_us,
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    print(json.dumps(run(args[0], int(args[1]), "--smoke" in args)))
