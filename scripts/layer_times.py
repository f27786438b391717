"""Per-layer sieve timings on one fixed in-memory segment.

Sieves the segment [lo, lo + SEGMENT) of a run to `--xmax` once, at the
width `factorrace.sieve.SEGMENT` (2^20) of every segment of a pass, and
times, `--repeat` times each, the three layers a pass runs per segment:
the kernel `_sieve_segment`, the class fold `_fold_classes` (the omega
and the Omega call together) and the sign fold `_SignFold.add` of one
real character.  Each sign-fold call starts from a fresh fold whose
running psi_f is the exact psi_f(lo - 1), so the fold sees the same sign
runs as inside a full pass.  The kernel's stages are also timed one by
one on one scratch word array ("kernel_stages_ms"): the dense sub-block
passes, the strided adds of the primes above the sub-block cut, the
powers outside the pattern, and the split into omega and Omega (the
stages after the first add into the same array again, whose values do
not change their time).  One L-evaluation `l_value(chi, 1/2 + it)` is
timed at q = 4 (chi 1, t = 200) and q = 163 (chi 81, t = 30), points of
the two zero-scan workloads, and at q = 13 (chi 1, t = 100), a point of
the small-moduli zero tables, with the Euler-Maclaurin head length N
there and the complex exponentials one evaluation takes, one per prime
up to (N + 1) q ("l_value_us", "head_length", "exps").  "scan" splits one
zero scan (q = 163, chi 81, T = `--scan-t`, the `q163_zeros` point at the
default T = 30) into its grid, its rescans of the dips and its refinement:
the L-evals and seconds of each, and L-evals per zero found.  "pipeline_ms" gives the two sides
of a pass per segment: the producer, which is the kernel with its split
as the forked helper runs it (into a preallocated slot), and the
consumer, which is the class fold plus the sign fold, and says which of
the two bounds the pipelined pass.  Prints one JSON object with the
median milliseconds of each layer and, per kind, how many BLOCK-wide blocks of
the segment are biased throughout, unbiased throughout or mixed, and how
many of them the fold settled by its 64-wide row sums ("row") and how
many took the exact block prefix ("exact").  It is offline;
`tests/test_layer_times.py` runs it once at tiny sizes.

    PYTHONPATH=src python scripts/layer_times.py --xmax 100000000 --q 4 --lo 50331648
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from factorrace.characters import character, enumerate_characters, real_sign_table
from factorrace import lfunction, zeros
from factorrace.lfunction import _truncation, l_value
from factorrace.sieve import (
    BLOCK,
    SEGMENT,
    SIGN,
    SieveConfig,
    _add_strided,
    _dense_passes,
    _fold_classes,
    _sieve_segment,
    _SignFold,
    _sparse_powers,
    _split,
    _tables,
    sieve_run,
    twist,
)

L_POINTS = {"q4_t200": (4, 1, 200.0), "q163_t30": (163, 81, 30.0), "q13_t100": (13, 1, 100.0)}  # name: (q, chi index, t)


def _median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _block_kinds(run: int, steps: np.ndarray) -> dict[str, int]:
    """How many blocks have every, no, or some n with run + cumsum > 0."""
    walk = run + np.cumsum(steps, dtype=np.int64)
    pad = -len(walk) % BLOCK
    rows = np.concatenate([walk, np.full(pad, walk[-1])]).reshape(-1, BLOCK)
    biased = (rows.min(axis=1) > 0).sum()
    unbiased = (rows.max(axis=1) <= 0).sum()
    return {"biased": int(biased), "unbiased": int(unbiased), "mixed": len(rows) - int(biased + unbiased)}


def _l_value_layer(repeat: int) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Median microseconds of one l_value call, the head length N and the
    complex exponentials of one call, per L_POINTS entry."""
    us, head, exps = {}, {}, {}
    for name, (q, index, t) in L_POINTS.items():
        chi, s = character(q, index), complex(0.5, t)
        l_value(chi, s)  # caches the character's weights and grows the factor ladder outside the timing
        us[name] = 1e3 * _median_ms(lambda: l_value(chi, s), repeat)
        head[name] = _truncation(s)[0]
        exps[name] = lfunction._LADDER.exponentials((head[name] + 1) * q)
    return us, head, exps


def _scan_layer(t_max: float) -> dict:
    """L-evals and seconds of the grid, the dip rescans and the refinement of
    scan_zeros(chi 81 mod 163, t_max), counted at `zeros.l_value`."""
    evals = dict.fromkeys(("grid", "rescan", "refine"), 0)
    seconds = dict.fromkeys(evals, 0.0)
    phase = []  # the layer running now: a grid at step scale 1, a finer one, or _refine
    originals = {name: getattr(zeros, name) for name in ("l_value", "_scan_grid", "_refine")}

    def timed(layer, fn, *args):
        phase.append(layer)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[layer] += time.perf_counter() - t0
            phase.pop()

    def counted_l_value(*args):
        evals[phase[-1]] += 1
        return originals["l_value"](*args)

    def scan_grid(chi, t_lo, t_hi, step_scale=1.0):
        return timed("grid" if step_scale == 1.0 else "rescan", originals["_scan_grid"], chi, t_lo, t_hi, step_scale)

    zeros.l_value = counted_l_value
    zeros._scan_grid = scan_grid
    zeros._refine = lambda *args: timed("refine", originals["_refine"], *args)
    try:
        t0 = time.perf_counter()
        found = zeros.scan_zeros(character(163, 81), t_max).count
        total_s = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(zeros, name, fn)
    return {
        "q": 163,
        "chi_index": 81,
        "t_max": t_max,
        "zeros": found,
        "evals": evals,
        "evals_per_zero": sum(evals.values()) / found if found else 0.0,
        "seconds": {**seconds, "total": total_s},
    }


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--xmax", type=int, default=100_000_000)
    ap.add_argument("--q", type=int, default=4)
    ap.add_argument(
        "--chi", type=int, help="index of a real non-principal character mod q (default: the first one)"
    )
    ap.add_argument("--lo", type=int, default=48 * SEGMENT, help="segment start, a multiple of 2^16")
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--scan-t", type=float, default=30.0, help="height T of the q=163 zero scan")
    args = ap.parse_args(argv)
    x_max, q, lo = args.xmax, args.q, args.lo
    if lo % BLOCK or not 0 <= lo <= x_max:
        ap.error("--lo must be a multiple of 2^16 in [0, xmax]")
    real = {c.index: c for c in enumerate_characters(q) if c.is_real and not c.is_principal}
    chi = real.get(min(real, default=None) if args.chi is None else args.chi)
    if chi is None:
        ap.error(f"--chi must index a real non-principal character mod {q}, one of {list(real)}")
    hi = min(lo + SEGMENT, x_max + 1)
    cfg = SieveConfig(x_max=x_max, q=q)
    tables = _tables(x_max)
    omega, bomega = _sieve_segment(lo, hi, tables)
    psi = [0, 0]
    if lo > 0:
        before = sieve_run(SieveConfig(x_max=lo - 1, q=q, checkpoints=(lo - 1,)))
        psi = [int(p.real) for p in twist(before, chi, lo - 1)]
    start = [sign * p for sign, p in zip(SIGN.values(), psi)]  # the fold's running SIGN[f] * psi_f

    folds = []  # a fresh fold per call, set up outside the timed region
    for _ in range(args.repeat):
        folds.append(_SignFold(cfg, chi))
        folds[-1].run = list(start)
    unused = iter(folds)

    def class_fold():
        _fold_classes(omega, lo, q)
        _fold_classes(bomega, lo, q)

    word = np.empty(hi - lo, dtype=np.int32)
    sparse, sparse_words = tables.primes[tables.dense :], tables.words[tables.dense :]
    kernel_stages = {
        "dense": _median_ms(lambda: _dense_passes(word, lo, tables), args.repeat),
        "sparse_primes": _median_ms(lambda: _add_strided(word, lo, sparse, sparse_words), args.repeat),
        "sparse_powers": _median_ms(lambda: _sparse_powers(word, lo, tables), args.repeat),
        "split": _median_ms(lambda: _split(word), args.repeat),
    }
    del word

    l_value_us, head_length, exps = _l_value_layer(args.repeat)
    table = np.roll(real_sign_table(chi), -lo)
    chi_n = np.tile(table, -(-(hi - lo) // q))[: hi - lo].astype(np.int64)
    slot = np.empty((2, hi - lo), dtype=np.int8)
    producer = _median_ms(lambda: _sieve_segment(lo, hi, tables, slot), args.repeat)
    fold_classes_ms = _median_ms(class_fold, args.repeat)
    sign_fold_ms = _median_ms(lambda: next(unused).add(lo, omega, bomega), args.repeat)
    consumer = fold_classes_ms + sign_fold_ms
    result = {
        "x_max": x_max,
        "q": q,
        "chi_index": chi.index,
        "lo": lo,
        "length": hi - lo,
        "repeat": args.repeat,
        "sieve_segment_ms": producer,
        "kernel_stages_ms": kernel_stages,
        "fold_classes_ms": fold_classes_ms,
        "sign_fold_ms": sign_fold_ms,
        "pipeline_ms": {
            "producer": producer,
            "consumer": consumer,
            "bound": "producer" if producer >= consumer else "consumer",
        },
        "blocks": {
            kind: _block_kinds(run, sign * chi_n * values)
            for (kind, sign), run, values in zip(SIGN.items(), start, (omega, bomega))
        },
        "paths": {
            kind: {"row": row, "exact": exact}
            for kind, row, exact in zip(SIGN, folds[0].row_blocks, folds[0].exact_blocks)
        },
        "l_value_us": l_value_us,
        "head_length": head_length,
        "exps": exps,
        "scan": _scan_layer(args.scan_t),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
