"""Sign-set densities of the mod-4 race beyond the benchmark's 1e8.

Runs `factorrace.sieve.density_scan` for q = 4, chi index 1 up to
`--xmax` (default 1e9) and writes one JSON file with the full-range
densities delta(P_omega), delta(P_Omega), the C implied by the
extrapolation delta = 1 - C / log X, the windowed densities over
(10^k, X] for every power of ten 10^k >= 1000 below X, the final
psi_f and the wall time.  It is offline and slow (about a minute per
1e9 on one core); `tests/test_reach_density.py` runs it once at 1e5.

    PYTHONPATH=src python scripts/reach_density.py --xmax 1000000000 --out reach_density.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time

import numpy as np

from factorrace.characters import enumerate_characters
from factorrace.density import windowed_density
from factorrace.sieve import SieveConfig, default_checkpoints, density_scan


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--xmax", type=float, default=1e9)
    ap.add_argument("--out", default="reach_density.json")
    args = ap.parse_args(argv)
    x_max = int(args.xmax)
    decades = [10**k for k in range(3, 13) if 10**k < x_max]
    cfg = SieveConfig(x_max=x_max, q=4, checkpoints=tuple(sorted(set(default_checkpoints(x_max)) | set(decades))))
    chi = enumerate_characters(4)[1]
    t0 = time.perf_counter()
    trace = density_scan(cfg, chi)
    wall = time.perf_counter() - t0
    log_x = math.log(x_max)
    delta_w, delta_W = trace.delta
    psi_w, psi_W = trace.psi_final
    result = {
        "q": 4,
        "chi_index": chi.index,
        "x_max": x_max,
        "delta_omega": delta_w,
        "delta_Omega": delta_W,
        "C_omega": (1 - delta_w) * log_x,
        "C_Omega": (1 - delta_W) * log_x,
        "windowed": {str(x0): list(windowed_density(trace, x0)) for x0 in decades},
        "psi_omega_final": psi_w,
        "psi_Omega_final": psi_W,
        "wall_s": wall,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
