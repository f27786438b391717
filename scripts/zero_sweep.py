"""Completeness sweep of the zero scan against a grid sixteen times finer.

For every character of a set, takes its zero cache as `factorrace zeros
--chi all` does: `conjugate_cache` of its conjugate's, if that was scanned
earlier in the set, else `scan_zeros(chi, T)`.  It then checks each sign
change of `zeros.rotated_z`, the scan's own Z, on a reference grid of
step pi / (16 log(q (|t| + 10) / (2 pi) + e)), 1/16 of the scan's grid
step: a reference step [a, b] with a sign change (or a grid point where
Z vanishes) must hold a zero of the cache, or it counts as missed.  Real
characters are compared on [0, T] (the gamma >= 0 half of their mirrored
caches), complex ones on [-T, T].  The reference grid is the cost of the
sweep, about sixteen times the scan's own grid.

The sets, at T = 60:
  small: every primitive non-principal character with q <= 30 (167);
  large: 4 evenly spread primitive non-principal characters for each q
         in LARGE_MODULI (36).

Prints one JSON object with, per set, the characters, the zeros found,
the reference sign changes, the missed ones (with their brackets), the
L-evals of the scans (counted at `zeros.l_value`), the histogram
`refine_evals` {L-evals: refinements} of the L-evals each refinement took,
its largest key `max_refine_evals` (against `zeros.MAX_REFINE_STEPS`), and
the scans that warned or raised.  It is offline; `tests/test_zero_sweep.py`
runs `sweep` once at a tiny size.

    PYTHONPATH=src python scripts/zero_sweep.py
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter

from factorrace import zeros
from factorrace.characters import conjugate_index, enumerate_characters

T = 60.0
QMAX = 30  # largest modulus of the small set
LARGE_MODULI = (64, 81, 97, 101, 125, 163, 199, 300, 401)
PER_Q = 4  # characters per modulus of the large set
REFERENCE_FINENESS = 16  # reference steps per scan grid step


def _primitive(q: int) -> list:
    return [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]


def small_set(q_max: int) -> list:
    return [c for q in range(3, q_max + 1) for c in _primitive(q)]


def large_set() -> list:
    chosen = []
    for q in LARGE_MODULI:
        prims = _primitive(q)
        chosen += [prims[k * len(prims) // PER_Q] for k in range(min(PER_Q, len(prims)))]
    return chosen


def _reference_brackets(chi, t_lo: float, t_hi: float) -> list[tuple[float, float]]:
    """[a, b] of each sign change of Z on the reference grid, and
    [t, t] of each grid point where it vanishes."""
    q = chi.modulus
    t, z = t_lo, zeros.rotated_z(chi, t_lo)
    brackets = []
    while t < t_hi:
        step = math.pi / (REFERENCE_FINENESS * math.log(q * (abs(t) + 10) / (2 * math.pi) + math.e))
        t_next = min(t_hi, t + step)
        z_next = zeros.rotated_z(chi, t_next)
        if z == 0.0:
            brackets.append((t, t))
        elif z_next != 0.0 and (z < 0) != (z_next < 0):
            brackets.append((t, t_next))
        t, z = t_next, z_next
    if z == 0.0:
        brackets.append((t, t))
    return brackets


def _scan_counted(chi, t_max: float) -> dict:
    """scan_zeros(chi, t_max) (None if it raised) with its L-evals, the
    L-evals of each refinement, its warnings and its error, if any."""
    evals, refines = [0], []
    l_value, refine = zeros.l_value, zeros._refine

    def counted_l_value(*args):
        evals[0] += 1
        return l_value(*args)

    def counted_refine(*args):  # the L-evals of this refinement alone, not of the rescans after it
        before = evals[0]
        try:
            return refine(*args)
        finally:
            refines.append(evals[0] - before)

    zeros.l_value, zeros._refine = counted_l_value, counted_refine
    cache, error = None, None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                cache = zeros.scan_zeros(chi, t_max)
            except zeros.MissedZeroError as exc:
                error = str(exc)
    finally:
        zeros.l_value, zeros._refine = l_value, refine
    return {
        "cache": cache,
        "evals": evals[0],
        "refines": refines,
        "warnings": [str(w.message) for w in caught],
        "error": error,
    }


def sweep(chars: list, t_max: float) -> dict:
    """The totals of the set `chars` at height t_max."""
    totals = {"characters": len(chars), "found": 0, "reference": 0, "missed": [], "l_evals": 0,
              "warned": [], "raised": []}
    refine_evals = Counter()
    t0 = time.perf_counter()
    caches = {}  # (q, index) -> the cache of each character met so far
    for chi in chars:
        mate = caches.get((chi.modulus, conjugate_index(chi)))
        if mate is None:
            scan = _scan_counted(chi, t_max)
        else:
            scan = {"cache": zeros.conjugate_cache(mate), "evals": 0, "refines": [], "warnings": [], "error": None}
        cache = caches[chi.modulus, chi.index] = scan["cache"]
        gammas = [] if cache is None else [g for g in cache.gammas() if g >= 0 or not chi.is_real]
        brackets = _reference_brackets(chi, 0.0 if chi.is_real else -t_max, t_max)
        name = f"{chi.modulus}:{chi.index}"
        totals["found"] += len(gammas)
        totals["reference"] += len(brackets)
        totals["missed"] += [[name, a, b] for a, b in brackets if not any(a <= g <= b for g in gammas)]
        totals["l_evals"] += scan["evals"]
        refine_evals.update(scan["refines"])
        if scan["warnings"]:
            totals["warned"].append([name, *scan["warnings"]])
        if scan["error"]:
            totals["raised"].append([name, scan["error"]])
    totals["refine_evals"] = dict(sorted(refine_evals.items()))
    totals["max_refine_evals"] = max(refine_evals, default=0)
    totals["seconds"] = time.perf_counter() - t0
    return totals


def main() -> None:
    result = {"t_max": T, "reference_fineness": REFERENCE_FINENESS,
              "small": sweep(small_set(QMAX), T), "large": sweep(large_set(), T)}
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
