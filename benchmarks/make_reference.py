"""Regenerate benchmarks/reference.json from the program at the default seed.

    python3 benchmarks/make_reference.py

The reference zero ordinates are what the zero scan writes for the three
workloads that scan zeros, at their full heights.  Each positive ordinate is
accepted only if mpmath puts |L(1/2 + i gamma, chi)| below 1e-9, and each
list only if its length is the zero count recorded for the seed code
(244 for mod 4, 56 for q = 163, 68 and 68 for q = 24).  Run it again only
when a change moves the zeros on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpmath  # noqa: E402

import oracle  # noqa: E402

ZERO_RUNS = {
    "mod4_race": (["zeros", "--q", "4", "--chi", "1", "--T", "200", "--T0", "100"], {"1": 244}),
    "q163_zeros": (["zeros", "--q", "163", "--chi", "81", "--T", "30", "--T0", "30"], {"81": 56}),
    "q24_multichar": (["zeros", "--q", "24", "--chi", "all", "--T", "50", "--T0", "50"], {"3": 68, "7": 68}),
}
# delta(P_omega), delta(P_Omega) at x = 1e8 for the mod-4 race, as density.csv spells them
DENSITY_AT_X_MAX = {
    "mod4_race": {"x": 100000000, "delta_omega": "0.86400076743427301", "delta_Omega": "0.76627006648929441"}
}


def main() -> int:
    from factorrace import cli

    zeros = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, (argv, counts) in ZERO_RUNS.items():
            out = os.path.join(tmp, name)
            if cli.main(argv + ["--out", out]) != 0:
                raise SystemExit(f"{name}: zero scan failed")
            q = int(argv[2])
            chars = oracle.characters(q)
            for idx, count in counts.items():
                recs = oracle.read_zeros(os.path.join(out, f"zeros_q{q}_chi{idx}.csv"))
                if len(recs) != count:
                    raise SystemExit(f"{name} chi={idx}: {len(recs)} zeros, expected {count}")
                vals = chars[int(idx)].values()
                with mpmath.workdps(25):
                    for g, _, _ in recs:
                        if g > 0 and abs(mpmath.dirichlet(mpmath.mpc(0.5, g), vals)) > 1e-9:
                            raise SystemExit(f"{name} chi={idx}: no zero at {g!r} by mpmath")
                zeros[f"{q}:{idx}"] = [g for g, _, _ in recs]
    ref = {"zeros": zeros, "density_at_x_max": DENSITY_AT_X_MAX}
    with open(oracle.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
