"""Segmented sieve for omega(n) / Omega(n) with residue-class accumulators.

One pass over n <= x_max serves every character mod q: the sieve only
accumulates exact integer sums

    S_f(x; a) = sum_{n <= x, n = a mod q} f(n),    f in {omega, Omega},

at the configured checkpoints; twisting by a character is a closing
root-of-unity combination done afterwards.  Per segment the kernel keeps
one int32 word per n: a fixed-point log residual in its low 16 bits,
omega in bits 16-23 and Omega - omega in bits 24-31.  Every prime p <=
sqrt(x_max) and every power p^k <= x_max adds one word to its multiples
that bumps its count and takes LOG_SCALE * log p from the residual; two
tiled patterns hold the densest words (the wheel of the primes up to 13,
and the powers dividing POWER_PERIOD).  A carry offset makes the log of
the single prime factor > sqrt(x_max), if any, carry one into omega.

A pass (`_segments`) runs the kernel in one forked helper process, which
sieves the next segment into a two-slot shared ring while the caller
folds the current one; each segment it yields is a pair of int8 views
that are valid only until the next step.

The same pass can feed the sign fold of one real character (`_SignFold`):
the exact running SIGN[f] * psi_f(n), psi_f(n) = sum_{m<=n} chi(m) f(m),
and the harmonic measures H_f = sum 1/n over the n where it is positive,
summed one BLOCK = 2^16 block of absolute n at a time, so the floating
results are bit-identical for every segment size.

SIGN states each race's bias direction once: the omega race leans to
psi_omega < 0 and the Omega race to psi_Omega > 0.  Its key order, KINDS,
fixes the order of every (omega, Omega) pair in the package.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._csvio import write_csv
from .characters import DirichletCharacter, _root_of_unity, real_sign_table

__all__ = [
    "KINDS",
    "SIGN",
    "BLOCK",
    "SEGMENT",
    "MAX_X",
    "SieveConfig",
    "ClassSums",
    "DensityTrace",
    "default_checkpoints",
    "sieve_run",
    "density_scan",
    "combined_run",
    "twist",
    "write_checkpoints_csv",
    "write_twists_csv",
]

SIGN = {"omega": -1, "Omega": 1}  # the side each race leans to
KINDS = tuple(SIGN)
BLOCK = 1 << 16  # harmonic-accumulation granularity, aligned to absolute n
SEGMENT = 1 << 20  # the width of every segment of a pass, a multiple of BLOCK
ROW = 64  # row width of the sign fold's row test
MAX_X = 1 << 40  # design ceiling; keeps all int64 accumulators far from overflow
TWIST_ELEMENTS = 1 << 18  # class sums per block of write_twists_csv: 2 MB per int64 copy
FOLD_WIDTH = 4096  # row width of the class fold, rounded to a multiple of q
WHEEL_MAX = 13  # primes up to here are tiled from one pattern of period <= 30030
POWER_PERIOD = 7200  # 2^5 3^2 5^2: the powers 4, 8, 16, 32, 9 and 25 are tiled from one pattern
DENSE_MAX = 128  # primes in (WHEEL_MAX, DENSE_MAX) are added per sub-block
SUB_BLOCK = 1 << 18  # words per pass of the dense stages: 1 MB, inside a core's L2
LOG_SCALE = 512  # kernel residual units per unit of log
PRIME_WORD = 1 << 16  # one more omega, before the log
POWER_WORD = 1 << 24  # one more Omega - omega, before the log
# byte offsets of omega and of Omega - omega within the int32 word
_OMEGA, _EXCESS = (2, 3) if sys.byteorder == "little" else (1, 0)


def default_checkpoints(x_max: int, ratio: float = 1.02) -> tuple[int, ...]:
    """Geometric grid round(1000 * ratio^k) within [1000, x_max], plus x_max."""
    if x_max < 1:
        return ()
    pts = {x_max}
    k = 0
    while True:
        x = round(1000 * ratio**k)
        if x > x_max:
            break
        pts.add(x)
        k += 1
    return tuple(sorted(pts))


@dataclass(frozen=True)
class SieveConfig:
    x_max: int
    q: int
    checkpoints: tuple[int, ...] | None = None  # None: default geometric grid
    ratio: float = 1.02

    def __post_init__(self):
        if not isinstance(self.x_max, int) or self.x_max < 0:
            raise ValueError(f"x_max must be a non-negative integer, got {self.x_max!r}")
        if self.x_max > MAX_X:
            raise ValueError(f"x_max exceeds the design ceiling 2^40 ({MAX_X})")
        if not isinstance(self.q, int) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q!r}")
        if not 1.0 < self.ratio <= 2.0:
            raise ValueError("checkpoint ratio must be in (1, 2]")
        if self.checkpoints is None:
            object.__setattr__(self, "checkpoints", default_checkpoints(self.x_max, self.ratio))
        else:
            cps = tuple(int(x) for x in self.checkpoints)
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            if cps and (cps[0] < 1 or cps[-1] > self.x_max):
                raise ValueError("checkpoints must lie in [1, x_max]")
            object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class ClassSums:
    """Exact integer sums of omega/Omega per residue class at each checkpoint."""

    q: int
    x_max: int
    checkpoints: tuple[int, ...]
    omega: np.ndarray  # (n_checkpoints, q) int64
    big_omega: np.ndarray  # (n_checkpoints, q) int64

    def row(self, x: int) -> int:
        try:
            return self.checkpoints.index(x)
        except ValueError:
            raise ValueError(f"x={x} is not a stored checkpoint") from None


@dataclass(frozen=True)
class DensityTrace:
    """Harmonic sign-set measures for one real character.

    delta values are H_f / log X with H_omega = sum 1/n over thresholds
    where running psi_omega(n) < 0, and H_Omega over psi_Omega(n) > 0.
    These full-range estimates count n from 1.  The windowed density over
    (x0, X] for a checkpoint x0 is (H_f(X) - H_f(x0)) / log(X / x0), with
    H_f(x0) = delta(x0) * log x0 read from `trace`; see
    `factorrace.density.windowed_density`.
    """

    q: int
    chi_index: int
    x_max: int
    h_omega: float
    h_big_omega: float
    delta_omega: float
    delta_big_omega: float
    trace: tuple[tuple[int, float, float], ...]  # (x, delta_omega, delta_Omega)
    psi_omega_final: int
    psi_big_omega_final: int


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


class _Tables(NamedTuple):
    """What the segment kernel needs to know of x_max, built once per run."""

    wheel: np.ndarray  # int32 over two periods: the carry offset plus the wheel primes' words
    pattern: np.ndarray  # int32 over two POWER_PERIODs: the words of the powers <= x_max dividing it
    primes: np.ndarray  # int64: the primes in (WHEEL_MAX, isqrt(x_max)], ascending
    words: np.ndarray  # int32 PRIME_WORD - round(LOG_SCALE * log p) for each of them
    dense: int  # how many of `primes` lie below DENSE_MAX
    powers: np.ndarray  # int64: every other p^k <= x_max with k >= 2, ascending
    power_words: np.ndarray  # int32 POWER_WORD - round(LOG_SCALE * log p) for each power


def _scaled_log(p: int) -> int:
    return round(LOG_SCALE * math.log(p))


def _tables(x_max: int) -> _Tables:
    root = math.isqrt(x_max)
    primes = _primes_upto(root)
    wheel_primes = [p for p in primes if p <= WHEEL_MAX]
    period = math.prod(wheel_primes)
    cut = round(LOG_SCALE * 0.5 * math.log(root + 1))  # the large-prime test: residual > cut
    wheel = np.full(2 * period, (1 << 16) - 1 - cut, dtype=np.int32)
    for p in wheel_primes:
        wheel[::p] += PRIME_WORD - _scaled_log(p)
    pattern = np.zeros(2 * POWER_PERIOD, dtype=np.int32)
    powers = []
    for p in primes:
        pk = p * p
        while pk <= x_max:
            if POWER_PERIOD % pk:
                powers.append((pk, p))
            else:
                pattern[::pk] += POWER_WORD - _scaled_log(p)
            pk *= p
    powers.sort()
    rest = primes[len(wheel_primes) :]
    return _Tables(
        wheel=wheel,
        pattern=pattern,
        primes=np.array(rest, dtype=np.int64),
        words=np.array([PRIME_WORD - _scaled_log(p) for p in rest], dtype=np.int32),
        dense=bisect_left(rest, DENSE_MAX),
        powers=np.array([pk for pk, _ in powers], dtype=np.int64),
        power_words=np.array([POWER_WORD - _scaled_log(p) for _, p in powers], dtype=np.int32),
    )


def _scaled_logs(lo: int, hi: int) -> np.ndarray:
    """round(LOG_SCALE * log n) as int32 for n in [lo, hi), n = 0 read as 1.

    A step function: value k runs from its edge ceil(exp((k - 1/2) /
    LOG_SCALE)) up to the next one, so there are about LOG_SCALE *
    log(hi / lo) steps and no log of each n.  The float64 edges are off by
    one only where LOG_SCALE * log n lies within about 1e-9 of a
    half-integer, so every value is within 0.5 + 1e-9 of LOG_SCALE * log n.
    """
    k0 = _scaled_log(max(lo, 1))
    k1 = _scaled_log(max(hi - 1, 1))
    ks = np.arange(max(k0 - 1, 0), k1 + 2)  # a spare step each side takes an edge off by one
    edges = np.ceil(np.exp((ks[1:] - 0.5) / LOG_SCALE))
    counts = np.diff(np.clip(edges, lo, hi).astype(np.int64), prepend=lo, append=hi)
    return np.repeat(ks.astype(np.int32), counts)


def _tile(out: np.ndarray, table: np.ndarray, n0: int, base: np.ndarray | None = None) -> None:
    """out = base (default: out) plus the periodic `table`, which holds two
    periods, read from absolute n0 on."""
    period = len(table) // 2
    off = n0 % period
    full = len(out) - len(out) % period
    base = out if base is None else base
    rows = out[:full].reshape(-1, period)
    np.add(base[:full].reshape(-1, period), table[off : off + period], out=rows)
    np.add(base[full:], table[off : off + len(out) - full], out=out[full:])


def _add_strided(word: np.ndarray, n0: int, steps: np.ndarray, adds: np.ndarray) -> None:
    """Add adds[i] to the words of the multiples m >= steps[i] of steps[i];
    word[0] is n = n0."""
    starts = np.maximum(steps, -(-n0 // steps) * steps) - n0
    for step, i0, add in zip(steps.tolist(), starts.tolist(), adds.tolist()):
        view = word[i0::step]
        np.add(view, add, out=view)


def _dense_passes(word: np.ndarray, lo: int, t: _Tables) -> None:
    """The starting words: the scaled log, both patterns and the primes
    below DENSE_MAX, one SUB_BLOCK of the segment at a time."""
    dense, dense_words = t.primes[: t.dense], t.words[: t.dense]
    for a in range(0, len(word), SUB_BLOCK):
        n0, sub = lo + a, word[a : a + SUB_BLOCK]
        _tile(sub, t.wheel, n0, base=_scaled_logs(n0, n0 + len(sub)))
        _tile(sub, t.pattern, n0)
        _add_strided(sub, n0, dense, dense_words)
    if lo == 0:
        word[0] = t.wheel[1]  # the patterns mark n = 0, which every p divides


def _sparse_powers(word: np.ndarray, lo: int, t: _Tables) -> None:
    """The powers outside the pattern, over the whole segment."""
    short = int(np.searchsorted(t.powers, len(word)))  # powers that may have several multiples
    _add_strided(word, lo, t.powers[:short], t.power_words[:short])
    powers = t.powers[short:]  # at most one multiple each
    first = np.maximum(powers, -(-lo // powers) * powers)
    hit = first < lo + len(word)
    np.add.at(word, first[hit] - lo, t.power_words[short:][hit])


def _split(word: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(omega, Omega) from the final words: omega's byte, and it plus the
    top byte; written into the two int8 rows of `out` when it is given."""
    counts = word.view(np.int8)
    omega, bomega = np.empty((2, len(word)), dtype=np.int8) if out is None else out
    np.copyto(omega, counts[_OMEGA::4])
    np.add(omega, counts[_EXCESS::4], out=bomega)
    return omega, bomega


def _sieve_segment(
    lo: int, hi: int, t: _Tables, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(omega, Omega) as int8 arrays for n in [lo, hi), the two rows of `out`
    when it is given.

    The residual starts at LOG_SCALE * log n and loses LOG_SCALE * log p
    wherever p or a power p^k <= x_max divides n.  Then it is r = LOG_SCALE
    * log R, with R the part of n made of primes > s = isqrt(x_max); since
    n <= x_max < (s+1)^2, R is 1 or a single prime >= s+1.  Each word and
    the starting value are rounded by at most 0.5 (plus 1e-9 for the
    start), and below 2^40 at most 40 words meet one n, so r is off by
    under 21 units, 0.04 in log units, far from the midpoint test r > cut
    = round(LOG_SCALE * 0.5 * log(s+1)), which is at least 177 units (0.5
    * log 2 = 0.35) once x_max >= 1.  Every word starts at 2^16 - 1 - cut
    (the wheel holds it), so the low 16 bits end at 2^16 - 1 - cut + r:
    below 2^16 when R = 1, and in [2^16, 2^17) when R > 1, as r < 14,221
    below 2^40.  That carries exactly the large prime's one into omega's
    byte (omega <= 11), so the split copies that byte and adds the top
    one, Omega - omega <= 39, to it for Omega: no mask and no compare.
    Every add is positive and no int32 total reaches 2^31, and integer
    adds commute, so the order of the adds is free.

    The patterns and the primes below DENSE_MAX are added one SUB_BLOCK at
    a time, while it sits in cache; call overhead dominates the larger
    primes and the other powers, so each takes one add over the segment.
    """
    word = np.empty(hi - lo, dtype=np.int32)
    _dense_passes(word, lo, t)
    _add_strided(word, lo, t.primes[t.dense :], t.words[t.dense :])
    _sparse_powers(word, lo, t)
    return _split(word, out)


def _fold_classes(piece: np.ndarray, u: int, q: int) -> np.ndarray:
    """Per-class int64 sums of `piece`, whose first entry is n = u.

    The piece is folded as rows of a width that is a multiple of q near
    FOLD_WIDTH (a plain `reshape(-1, q)` is several times slower at small
    q), the row sums and the short tail are folded to q columns, and the
    roll puts n = u at residue u mod q.  The column sums over the rows are
    int32, widened to int64 after: each is at most 40 * nrows, and a piece
    of a segment is at most SEGMENT = 2^20 long with width >= 2731, so
    nrows < 384 and every column stays below 2^14.
    """
    width = q * max(1, round(FOLD_WIDTH / q))
    nrows = len(piece) // width
    acc = piece[: nrows * width].reshape(nrows, width).sum(axis=0, dtype=np.int32).astype(np.int64)
    tail = piece[nrows * width :]
    acc[: len(tail)] += tail
    return np.roll(acc.reshape(-1, q).sum(axis=0), u % q)


_ONES = np.ones(ROW, dtype=np.float32)


def _row_sums(steps: np.ndarray) -> np.ndarray:
    """The int64 sums of the ROW-wide rows of int8 `steps`, as one float32
    matrix-vector product.  Every partial sum, in whatever order the
    product takes them, is an integer of size at most 40 * ROW = 2560, far
    below 2^24, so each is exact."""
    return (steps.astype(np.float32).reshape(-1, ROW) @ _ONES).astype(np.int64)


def _row_bounds(run: int, steps: np.ndarray, spread: np.ndarray) -> tuple[int, int, int] | None:
    """(low, high, total) for the block-local prefix of `steps`, from ROW-wide
    row sums alone, or None when they cannot settle the block.

    Before row i the prefix is a_i, the exclusive cumsum of the row sums,
    and within the row it stays within spread[i] of a_i, as spread[i] is
    at least the row's sum of |steps|; so low = min(a_i - spread[i]) and
    high = max(a_i + spread[i]) bound the prefix, and total is exact.
    They are returned only when every n is biased (run + low > 0) or none
    is (run + high <= 0).  Every comparison is in int64 or Python ints.
    """
    rows = _row_sums(steps)
    ahead = np.cumsum(rows)
    total = int(ahead[-1])
    ahead -= rows
    low, high = int((ahead - spread).min()), int((ahead + spread).max())
    if run + low > 0 or run + high <= 0:
        return low, high, total
    return None


def _neumaier(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


def _delta(h: float, x: int) -> float:
    return h / math.log(x) if x > 1 else 0.0


class _SignFold:
    """Running psi_f(n) = sum_{m<=n} chi(m) f(m) and the harmonic measures
    H_f for one real non-principal character, fed one segment at a time.

    The fold carries SIGN[f] * psi_f, and H_f sums 1/n over the n where that
    is positive (psi_omega(n) < 0, psi_Omega(n) > 0).  The 1/n terms are
    pairwise-summed per BLOCK-aligned block of absolute n and the block
    sums Neumaier-added in order, so no bit depends on the segment size.
    H at a mark x is the running sum before x's block plus the pairwise
    sum of that block up to x; the marks are the checkpoints and x_max.

    Per block and kind, the run before the block stays a Python int.  The
    block is first tried by `_row_bounds`: the spread of a ROW-wide row is
    its sum of |chi(n)| Omega(n), which bounds |SIGN[f] chi(n) f(n)| for
    both kinds, and the row sums of the steps (`_row_sums`, one exact
    float32 matrix-vector product) give the exact run before each row.  Rows are tried only when the block is a whole number
    of rows and the run before it already settles the first row (run >
    that row's spread, or run <= -spread).  A block they leave open takes
    the int32 prefix sum of its steps, never above 40 * BLOCK in size, and
    its extremes.  A block whose bounds keep the run positive takes the
    plain 1/n sum, one whose bounds keep it <= 0 adds 0.0, and only a
    mixed block multiplies 1/n by its mask; every term is the one a whole-range
    mask gives (x * 1.0 == x), so every sum has the same bits.
    `row_blocks` and `exact_blocks` count per kind which way each block
    went.
    """

    def __init__(self, cfg: SieveConfig, chi: DirichletCharacter):
        if chi.modulus != cfg.q:
            raise ValueError(f"character modulus {chi.modulus} does not match sieve q={cfg.q}")
        if not chi.is_real:
            raise ValueError("density scan requires a real character (sign test undefined otherwise)")
        if chi.is_principal:
            raise ValueError("density scan requires a non-principal character")
        self.cfg = cfg
        self.chi = chi
        table = real_sign_table(chi)
        self.signs = [sign * table for sign in SIGN.values()]  # SIGN[f] * chi(n) per f
        self.marks = sorted(set(cfg.checkpoints) | {cfg.x_max})
        self.run = [0, 0]  # SIGN[f] * psi_f at the end of the folded range
        self.acc = [(0.0, 0.0), (0.0, 0.0)]  # Neumaier (sum, comp) per f
        self.h = {x: [0.0, 0.0] for x in self.marks}  # mark -> [H_omega, H_Omega]
        self.row_blocks = [0, 0]  # blocks per f settled by `_row_bounds`
        self.exact_blocks = [0, 0]  # blocks per f that took the exact prefix
        span = BLOCK // cfg.q + 2  # periods that cover a block from any offset below q
        self.periodic = [np.tile(signs, span) for signs in self.signs]  # SIGN[f] chi(n) from n = 0
        self.reach = np.abs(self.periodic[0])  # |chi(n)| from n = 0
        self.ramp = np.arange(BLOCK, dtype=np.float64)  # n - first over a block
        self.inv = np.empty(BLOCK, dtype=np.float64)  # 1/n over the current block
        self.steps = np.empty(BLOCK, dtype=np.int8)
        self.prefix = np.empty(BLOCK, dtype=np.int32)

    def add(self, lo: int, omega: np.ndarray, bomega: np.ndarray) -> None:
        """Fold the segment [lo, lo + len(omega)); lo is a multiple of BLOCK."""
        q, periodic, reach = self.cfg.q, self.periodic, self.reach
        for start in range(0, len(omega), BLOCK):
            first, end = lo + start, min(start + BLOCK, len(omega))
            block, prefix = self.steps[: end - start], self.prefix[: end - start]
            marks = self.marks[bisect_left(self.marks, first) : bisect_left(self.marks, lo + end)]
            off = first % q
            head = None  # sum of |chi(n)| Omega(n) over the first row; None for a partial row
            if len(block) % ROW == 0:
                head = int((reach[off : off + ROW] * bomega[start : start + ROW]).sum(dtype=np.int32))
            spread = None  # the same sum per row, formed once for both kinds
            inv = None  # 1/n over the block and its pairwise sum, formed once for both kinds
            for f, values in enumerate((omega, bomega)):
                run = self.run[f]  # SIGN[f] * psi_f(first - 1)
                settles = head is not None and not -head < run <= head  # the first row is settled
                if settles and spread is None:
                    np.multiply(reach[off : off + len(block)], bomega[start:end], out=block)
                    spread = _row_sums(block)
                np.multiply(periodic[f][off : off + len(block)], values[start:end], out=block)
                bounds = _row_bounds(run, block, spread) if settles else None
                if bounds is None:  # the exact block-local prefix, |prefix| <= 40 * BLOCK
                    self.exact_blocks[f] += 1
                    np.cumsum(block, dtype=np.int32, out=prefix)
                    bounds = int(prefix.min()), int(prefix.max()), int(prefix[-1])
                else:
                    self.row_blocks[f] += 1
                low, high, total = bounds
                if run + high <= 0:  # no n of the block is biased
                    terms, block_sum = None, 0.0
                else:
                    if inv is None:
                        inv = np.add(self.ramp[: end - start], first, out=self.inv[: end - start])
                        if first == 0:
                            inv[0] = np.inf  # n = 0 adds nothing
                        np.divide(1.0, inv, out=inv)
                        whole = float(inv.sum())
                    if run + low > 0:  # every n is biased
                        terms, block_sum = inv, whole
                    else:  # only the exact path leaves a block mixed; -run fits int32 there
                        terms = inv * (prefix > -run)
                        block_sum = float(terms.sum())
                s, c = self.acc[f]
                for x in marks:
                    part = 0.0 if terms is None else float(terms[: x - first + 1].sum())
                    self.h[x][f] = (s + c) + part
                self.acc[f] = _neumaier(s, c, block_sum)
                self.run[f] = run + total

    def result(self) -> DensityTrace:
        x_max, h = self.cfg.x_max, self.h
        h_w, h_W = h[x_max]
        psi_w, psi_W = (sign * run for sign, run in zip(SIGN.values(), self.run))
        return DensityTrace(
            q=self.cfg.q,
            chi_index=self.chi.index,
            x_max=x_max,
            h_omega=h_w,
            h_big_omega=h_W,
            delta_omega=_delta(h_w, x_max),
            delta_big_omega=_delta(h_W, x_max),
            trace=tuple((x, _delta(h[x][0], x), _delta(h[x][1], x)) for x in self.cfg.checkpoints),
            psi_omega_final=psi_w,
            psi_big_omega_final=psi_W,
        )


def _sieve_pass(x_max: int, size: int, slots: np.ndarray):
    """(lo, hi, omega, Omega) for consecutive segments [lo, hi) covering
    [0, x_max], segment i written into the two rows of slots[i % 2].  The
    helper of `_segments` runs it, or the caller where there is no fork."""
    tables = _tables(x_max)
    for i, lo in enumerate(range(0, x_max + 1, size)):
        hi = min(lo + size, x_max + 1)
        yield lo, hi, *_sieve_segment(lo, hi, tables, slots[i % 2, :, : hi - lo])


def _helper(segments, count: int, ready: int, free: int) -> None:
    """The forked side of `_segments`: step the pass, write b"+" to `ready`
    after each segment, and before each segment from the third on read
    the token that frees its slot from `free`; EOF there means the parent
    is gone.  An error goes to `ready` as b"!" and its text, then on."""
    try:
        for i, _ in enumerate(segments):
            os.write(ready, b"+")
            if 1 <= i < count - 1 and not os.read(free, 1):
                return
    except BaseException as exc:
        os.write(ready, b"!" + f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        raise


def _segments(x_max: int, size: int):
    """(lo, hi, omega, Omega) for consecutive segments [lo, hi) covering
    [0, x_max].  omega and Omega are int8 views that are valid only until
    the next step of the generator.

    The kernel runs ahead in one forked helper process per pass, which
    writes each segment into one of two slots of an anonymous shared
    mmap, so it sieves segment i + 1 while the caller folds segment i.
    One pipe says "slot ready" (or carries the helper's error), the other
    "slot free".  The helper leaves only through os._exit, and the
    generator's exit, normal or not, kills and reaps it.  Where os.fork
    does not exist, `_sieve_pass` runs in-process over private slots.
    """
    width = min(size, x_max + 1)
    if not hasattr(os, "fork"):
        yield from _sieve_pass(x_max, size, np.empty((2, 2, width), dtype=np.int8))
        return
    slots = np.frombuffer(mmap.mmap(-1, 4 * width), dtype=np.int8).reshape(2, 2, width)
    starts = range(0, x_max + 1, size)
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(ready_r)
            os.close(free_w)
            _helper(_sieve_pass(x_max, size, slots), len(starts), ready_w, free_r)
            code = 0
        finally:
            os._exit(code)
    os.close(ready_w)
    os.close(free_r)
    try:
        for i, lo in enumerate(starts):
            hi = min(lo + size, x_max + 1)
            status = os.read(ready_r, 1)
            if status != b"+":
                detail = b"".join(iter(lambda: os.read(ready_r, 4096), b""))
                reason = detail.decode(errors="replace") if status else "the helper exited"
                raise RuntimeError(f"sieve helper failed at segment {i} [{lo}, {hi}): {reason}")
            yield lo, hi, slots[i % 2, 0, : hi - lo], slots[i % 2, 1, : hi - lo]
            if i + 2 < len(starts):
                try:
                    os.write(free_w, b"+")
                except BrokenPipeError:  # the helper is gone; the next read says why
                    pass
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def combined_run(
    cfg: SieveConfig, chi: DirichletCharacter | None = None
) -> tuple[ClassSums, DensityTrace | None]:
    """Class sums plus (optionally) the density scan of one real character,
    in one sieve pass (`_segments`).  The segment views are folded before
    the next step of the pass, the only time they are valid."""
    fold = None if chi is None else _SignFold(cfg, chi)
    q = cfg.q
    cps = cfg.checkpoints
    sums = np.zeros((2, len(cps), q), dtype=np.int64)  # omega, Omega at each checkpoint
    running = np.zeros((2, q), dtype=np.int64)
    k = 0  # the next checkpoint
    with closing(_segments(cfg.x_max, SEGMENT)) as segments:
        for lo, hi, omega, bomega in segments:
            u = lo
            while u < hi:  # class sums piece by piece, split after each checkpoint
                at_cp = k < len(cps) and cps[k] < hi
                v = cps[k] + 1 if at_cp else hi
                running[0] += _fold_classes(omega[u - lo : v - lo], u, q)
                running[1] += _fold_classes(bomega[u - lo : v - lo], u, q)
                if at_cp:
                    sums[:, k] = running
                    k += 1
                u = v
            if fold is not None:
                fold.add(lo, omega, bomega)
    return ClassSums(q, cfg.x_max, cps, *sums), (None if fold is None else fold.result())


def factor_counts(x_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(omega(n), Omega(n)) as int8 arrays indexed by n for 0 <= n <= x_max.

    Same segmented algorithm as the class-sum pass; n = 0 and n = 1 count 0.
    """
    if x_max < 0 or x_max > MAX_X:
        raise ValueError("x_max out of range")
    omega = np.zeros(x_max + 1, dtype=np.int8)
    bomega = np.zeros(x_max + 1, dtype=np.int8)
    with closing(_segments(x_max, SEGMENT)) as segments:
        for lo, hi, w, b in segments:
            omega[lo:hi] = w
            bomega[lo:hi] = b
    return omega, bomega


# Views of `combined_run` under their own names, which benchmarks/tracer.py
# and benchmarks/probes.py look up to count and time sieve passes.
def sieve_run(cfg: SieveConfig) -> ClassSums:
    """Run the sieve and return exact per-class sums at every checkpoint."""
    return combined_run(cfg)[0]


def density_scan(cfg: SieveConfig, chi: DirichletCharacter) -> DensityTrace:
    """Sign-bias measurement for a real non-principal character."""
    return combined_run(cfg, chi)[1]


@cache
def _roots(d: int) -> tuple[complex, ...]:
    """exp(2 pi i e / d) for e < d, from the scalar `_root_of_unity`."""
    return tuple(_root_of_unity(e, d) for e in range(d))


def _twist_block(rows: np.ndarray, chis: list[DirichletCharacter]):
    """psi(chi) = sum_a chi(a) rows[:, a] for every row of int64 class sums
    and every character of `chis`, yielded one kernel group at a time as
    (positions in `chis`, complex array with one column per position).

    Characters with one kernel are powers of each other: each is chi0^k for
    the group's first character chi0, its order d and some k prime to d,
    so k = e_chi(g) at any unit g with e_chi0(g) = 1.  The exact exponent
    counts of chi, acc[:, e] (the sum over units a with e_chi(a) = e), are
    therefore chi0's counts at e * k^-1 mod d, and chi0's come from one
    `reduceat` over the unit columns sorted by exponent; chi0 maps the
    units onto all d-th roots of unity, so every exponent below d starts a
    run.  Real characters stay exact integers; otherwise psi is the
    e-ascending left fold of acc[:, e] * exp(2 pi i e / d), one step per
    exponent for the whole group, and every element takes the operations
    of its own counts, so no bit depends on the grouping.  The roots come
    from the scalar `_root_of_unity` (`np.cos` may differ in the last bit),
    built once per order d for the life of the process (`_roots`).
    """
    groups: dict[bytes, list[int]] = {}  # positions in `chis` by kernel {a : chi(a) = 1}
    for j, chi in enumerate(chis):
        if chi.modulus != rows.shape[1]:
            raise ValueError(f"character modulus {chi.modulus} does not match sums q={rows.shape[1]}")
        groups.setdefault((chi.value_exponents == 0).tobytes(), []).append(j)
    for group in groups.values():
        first = chis[group[0]]
        d = first.order
        exps = first.value_exponents
        units = np.flatnonzero(exps >= 0)
        by_exp = units[np.argsort(exps[units])]
        starts = np.flatnonzero(np.diff(exps[by_exp], prepend=-1))
        acc = np.add.reduceat(rows[:, by_exp], starts, axis=1)  # column e: exponent e of chi0
        if first.is_real:  # alone in its group, as k = 1 is the only unit mod d <= 2
            psi = acc[:, 0] - acc[:, 1] if d == 2 else acc[:, 0]
            yield group, psi.astype(np.complex128)[:, None]
            continue
        g = by_exp[starts[1]]  # a unit with e_chi0(g) = 1
        inv = np.array([pow(int(chis[j].value_exponents[g]), -1, d) for j in group])
        psi = np.zeros((len(rows), len(group)), dtype=np.complex128)
        for e, root in enumerate(_roots(d)):
            psi += acc[:, e * inv % d] * root
        yield group, psi


def twist(sums: ClassSums, chi: DirichletCharacter, x: int) -> tuple[complex, complex]:
    """psi_f(x, chi) = sum_a chi(a) S_f(x; a) for f = omega and Omega.

    Integer arithmetic up to the final root-of-unity combination; for real
    characters the results are exact integers.  The one-checkpoint,
    one-character case of the batched routine behind `write_twists_csv`.
    """
    k = sums.row(x)
    [(_, psi)] = _twist_block(np.stack([sums.omega[k], sums.big_omega[k]]), [chi])
    pw, pW = psi[:, 0].tolist()
    return pw, pW


def write_checkpoints_csv(sums: ClassSums, path: str, comment: str | None = None) -> None:
    rows = (
        f"{x},{a},{w},{b}"
        for x, ws, bs in zip(sums.checkpoints, sums.omega, sums.big_omega)
        for a, (w, b) in enumerate(zip(ws.tolist(), bs.tolist()))
    )
    write_csv(path, "x,a,S_omega,S_Omega", rows, comment)


def write_twists_csv(
    sums: ClassSums, chis: list[DirichletCharacter], path: str, comment: str | None = None
) -> None:
    """One row per (checkpoint, character), checkpoint-major.

    The checkpoints are twisted a block at a time, at most TWIST_ELEMENTS
    class sums (omega and Omega rows times q) per block, and each block's
    rows reach the file before the next block is twisted, so memory stays
    bounded at any checkpoint count and q.  In a block, `_twist_block`
    gives every psi one kernel group of characters at a time: one
    `reduceat` of exact exponent counts per group and one fold step per
    exponent for all its characters.  Each character's rows are formatted
    from `.tolist()` with one %-template (`'%.17g' % v` is `fmt_float(v)`).
    Every element is twisted alone, so no bit depends on the block.
    """
    step = max(1, TWIST_ELEMENTS // (2 * sums.q))

    def rows():
        for lo in range(0, len(sums.checkpoints), step):
            xs = sums.checkpoints[lo : lo + step]
            n = len(xs)
            both = np.concatenate([sums.omega[lo : lo + n], sums.big_omega[lo : lo + n]])
            by_chi = [None] * len(chis)  # per character: its row at every checkpoint of the block
            for group, psi in _twist_block(both, chis):
                for j, col in zip(group, psi.T):
                    re, im = col.real.tolist(), col.imag.tolist()
                    template = f"%d,{sums.q},{chis[j].index},%.17g,%.17g,%.17g,%.17g"
                    by_chi[j] = [template % row for row in zip(xs, re[:n], im[:n], re[n:], im[n:])]
            yield from (chi_rows[k] for k in range(n) for chi_rows in by_chi)

    header = "x,q,chi_index,re_psi_omega,im_psi_omega,re_psi_Omega,im_psi_Omega"
    write_csv(path, header, rows(), comment)
