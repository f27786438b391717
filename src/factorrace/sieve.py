"""Segmented sieve for omega(n) / Omega(n) with residue-class accumulators.

One pass over n <= x_max serves every character mod q: the sieve only
accumulates exact integer sums

    S_f(x; a) = sum_{n <= x, n = a mod q} f(n),    f in {omega, Omega},

at the configured checkpoints; twisting by the characters is a closing
matrix product of those sums with the character values (`_twist`),
sliced so that no summation order shows.  Per segment the kernel keeps
one int32 word per n: a fixed-point log residual in its low 16 bits,
omega in bits 16-23 and Omega - omega in bits 24-31.  Every prime p <=
sqrt(x_max) and every power p^k <= x_max adds one word to its multiples
that bumps its count and takes LOG_SCALE * log p from the residual; two
tiled patterns hold the densest words (the wheel of the primes up to 13,
and the powers dividing POWER_PERIOD).  A carry offset makes the log of
the single prime factor > sqrt(x_max), if any, carry one into omega.

A pass (`_segments`) runs the kernel in one forked helper process, which
sieves the next segment into a two-slot shared ring while the caller
folds the current one; each segment it yields is one (omega, Omega)
int8 view of shape (len(KINDS), n) that is valid only until the next step.

The same pass can feed the sign fold of one real character (`_SignFold`):
the exact running SIGN[f] * psi_f(n), psi_f(n) = sum_{m<=n} chi(m) f(m),
and the harmonic measures H_f = sum 1/n over the n where it is positive,
summed one BLOCK = 2^16 block of absolute n at a time, so the floating
results are bit-identical for every segment size.

SIGN states each race's bias direction once: the omega race leans to
psi_omega < 0 and the Omega race to psi_Omega > 0.  Its key order, KINDS,
fixes the order of every (omega, Omega) pair in the package: the leading
axis of the segment counts, of `ClassSums.counts` and of the pairs of
`DensityTrace`.
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
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._csvio import write_csv
from .characters import (
    DirichletCharacter,
    character,
    conjugate_index,
    real_sign_table,
    roots_of_unity,
)

__all__ = [
    "KINDS",
    "SIGN",
    "BLOCK",
    "SEGMENT",
    "MAX_X",
    "RATIO",
    "SieveConfig",
    "ClassSums",
    "DensityTrace",
    "default_checkpoints",
    "sieve_run",
    "density_scan",
    "combined_run",
    "factor_counts",
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
RATIO = 1.02  # the default ratio of the geometric checkpoint grid
# Terms of the default grid, at most: about four times the 1,052 of RATIO at MAX_X,
# and 64 KiB of int64 class sums (two kinds) per residue class.
MAX_CHECKPOINTS = 4096
TWIST_ELEMENTS = 1 << 18  # class sums per block of write_twists_csv: 2 MB per int64 copy
TWIST_CHARACTERS = 16  # characters per product of `_twist`, whose scratch takes ~140 bytes per unit and character
VALUE_BITS = 20  # bits per slice of a character value in `_twist`
VALUE_SLICES = 3  # slices per value: each value to within 2^-61
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


def default_checkpoints(x_max: int, ratio: float = RATIO) -> tuple[int, ...]:
    """Geometric grid round(1000 * ratio^k) within [1000, x_max], plus x_max.
    A grid of more than MAX_CHECKPOINTS terms k is refused before its first
    point: near ratio 1 the terms far outnumber the distinct points, and at
    ratio 1 they never end."""
    if x_max < 1:
        return ()
    if math.log(x_max / 1000) >= MAX_CHECKPOINTS * math.log(ratio):
        raise ValueError(f"ratio {ratio!r} gives more than {MAX_CHECKPOINTS} checkpoints up to x_max={x_max}")
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
    ratio: float = RATIO

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
    counts: np.ndarray  # (len(KINDS), n_checkpoints, q) int64

    def row(self, x: int) -> int:
        try:
            return self.checkpoints.index(x)
        except ValueError:
            raise ValueError(f"x={x} is not a stored checkpoint") from None


@dataclass(frozen=True)
class DensityTrace:
    """Harmonic sign-set measures for one real character, each pair in
    KINDS order.

    H_omega = sum 1/n over the thresholds n <= X = x_max where the running
    psi_omega(n) < 0, and H_Omega over psi_Omega(n) > 0; `delta` is H_f /
    log X.  These full-range estimates count n from 1.  The windowed
    density over (x0, X] for a checkpoint x0 is (H_f(X) - H_f(x0)) /
    log(X / x0), with H_f(x0) = delta(x0) * log x0 read from `trace`; see
    `factorrace.density.windowed_density`.
    """

    q: int
    chi_index: int
    x_max: int
    h: tuple[float, float]  # H_f at x_max
    trace: tuple[tuple[int, float, float], ...]  # (x, delta_omega, delta_Omega)
    psi_final: tuple[int, int]  # psi_f(x_max)

    @property
    def delta(self) -> tuple[float, float]:
        return tuple(_delta(h, self.x_max) for h in self.h)


def _primes_upto(n: int) -> list[int]:
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


def _split(word: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The int8 (omega, Omega) rows of the final words: omega's byte, and it
    plus the top byte; written into `out` when it is given."""
    counts = word.view(np.int8)
    out = np.empty((len(KINDS), len(word)), dtype=np.int8) if out is None else out
    np.copyto(out[0], counts[_OMEGA::4])
    np.add(out[0], counts[_EXCESS::4], out=out[1])
    return out


def _sieve_segment(lo: int, hi: int, t: _Tables, out: np.ndarray | None = None) -> np.ndarray:
    """(omega, Omega) as the two int8 rows of one array for n in [lo, hi),
    written into `out` when it is given.

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
    """Per-class int64 sums along the last axis of `piece`, whose first
    column is n = u: shape (..., q), one row per leading index.

    The piece is folded as rows of a width that is a multiple of q near
    FOLD_WIDTH (a plain `reshape(-1, q)` is several times slower at small
    q), the row sums and the short tail are folded to q columns, and the
    roll puts n = u at residue u mod q.  The column sums over the rows are
    int32, widened to int64 after: each is at most 40 * nrows, and a piece
    of a segment is at most SEGMENT = 2^20 long with width >= 2731, so
    nrows < 384 and every column stays below 2^14.
    """
    lead, width = piece.shape[:-1], q * max(1, round(FOLD_WIDTH / q))
    nrows = piece.shape[-1] // width
    rows = piece[..., : nrows * width].reshape(*lead, nrows, width)
    acc = rows.sum(axis=-2, dtype=np.int32).astype(np.int64)
    tail = piece[..., nrows * width :]
    acc[..., : tail.shape[-1]] += tail
    return np.roll(acc.reshape(*lead, -1, q).sum(axis=-2), u % q, axis=-1)


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
    float32 matrix-vector product) give the exact run before each row.
    Rows are tried only when the block is a whole number of rows and the
    run before it already settles the first row (run > that row's spread,
    or run <= -spread).  A block they leave open takes the int32 prefix
    sum of its steps, never above 40 * BLOCK in size, and its extremes.  A
    block whose bounds keep the run positive takes the plain 1/n sum, one
    whose bounds keep it <= 0 adds 0.0, and only a mixed block multiplies
    1/n by its mask; every term is the one a whole-range mask gives (x *
    1.0 == x), so every sum has the same bits.  `row_blocks` and
    `exact_blocks` count per kind which way each block went.
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

    def add(self, lo: int, counts: np.ndarray) -> None:
        """Fold the (omega, Omega) rows `counts` of the segment [lo, lo +
        counts.shape[1]); lo is a multiple of BLOCK."""
        q, periodic, reach = self.cfg.q, self.periodic, self.reach
        bomega = counts[1]  # Omega(n), which bounds |f(n)| for both kinds
        for start in range(0, counts.shape[1], BLOCK):
            first, end = lo + start, min(start + BLOCK, counts.shape[1])
            block, prefix = self.steps[: end - start], self.prefix[: end - start]
            marks = self.marks[bisect_left(self.marks, first) : bisect_left(self.marks, lo + end)]
            off = first % q
            head = None  # sum of |chi(n)| Omega(n) over the first row; None for a partial row
            if len(block) % ROW == 0:
                head = int((reach[off : off + ROW] * bomega[start : start + ROW]).sum(dtype=np.int32))
            spread = None  # the same sum per row, formed once for both kinds
            inv = None  # 1/n over the block and its pairwise sum, formed once for both kinds
            for f, values in enumerate(counts):
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
        h = self.h
        return DensityTrace(
            q=self.cfg.q,
            chi_index=self.chi.index,
            x_max=self.cfg.x_max,
            h=tuple(h[self.cfg.x_max]),
            trace=tuple((x, *(_delta(v, x) for v in h[x])) for x in self.cfg.checkpoints),
            psi_final=tuple(sign * run for sign, run in zip(SIGN.values(), self.run)),
        )


def _sieve_pass(x_max: int, size: int, slots: np.ndarray):
    """(lo, hi, counts) for consecutive segments [lo, hi) covering [0, x_max],
    the (omega, Omega) rows of segment i written into slots[i % 2].  The
    helper of `_segments` runs it, or the caller where there is no fork."""
    tables = _tables(x_max)
    for i, lo in enumerate(range(0, x_max + 1, size)):
        hi = min(lo + size, x_max + 1)
        yield lo, hi, _sieve_segment(lo, hi, tables, slots[i % 2, :, : hi - lo])


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
    """(lo, hi, counts) for consecutive segments [lo, hi) covering [0,
    x_max].  counts holds the (omega, Omega) rows, an int8 view of shape
    (len(KINDS), hi - lo) that is valid only until the next step of the
    generator.

    The kernel runs ahead in one forked helper process per pass, which
    writes each segment into one of two slots of an anonymous shared
    mmap, so it sieves segment i + 1 while the caller folds segment i.
    One pipe says "slot ready" (or carries the helper's error), the other
    "slot free".  The helper leaves only through os._exit, and the
    generator's exit, normal or not, kills and reaps it.  Where os.fork
    does not exist, `_sieve_pass` runs in-process over private slots.
    """
    shape = (2, len(KINDS), min(size, x_max + 1))  # two slots
    if not hasattr(os, "fork"):
        yield from _sieve_pass(x_max, size, np.empty(shape, dtype=np.int8))
        return
    slots = np.frombuffer(mmap.mmap(-1, math.prod(shape)), dtype=np.int8).reshape(shape)
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
            yield lo, hi, slots[i % 2, :, : hi - lo]
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
    sums = np.zeros((len(KINDS), len(cps), q), dtype=np.int64)
    running = np.zeros((len(KINDS), q), dtype=np.int64)
    k = 0  # the next checkpoint
    with closing(_segments(cfg.x_max, SEGMENT)) as segments:
        for lo, hi, counts in segments:
            u = lo
            while u < hi:  # class sums piece by piece, split after each checkpoint
                at_cp = k < len(cps) and cps[k] < hi
                v = cps[k] + 1 if at_cp else hi
                running += _fold_classes(counts[:, u - lo : v - lo], u, q)
                if at_cp:
                    sums[:, k] = running
                    k += 1
                u = v
            if fold is not None:
                fold.add(lo, counts)
    return ClassSums(q, cfg.x_max, cps, sums), (None if fold is None else fold.result())


def factor_counts(x_max: int) -> np.ndarray:
    """(omega(n), Omega(n)) as the two int8 rows of one array, indexed by n
    for 0 <= n <= x_max: `w, W = factor_counts(x_max)`.

    Same segmented algorithm as the class-sum pass; n = 0 and n = 1 count 0.
    """
    if x_max < 0 or x_max > MAX_X:
        raise ValueError("x_max out of range")
    counts = np.zeros((len(KINDS), x_max + 1), dtype=np.int8)
    with closing(_segments(x_max, SEGMENT)) as segments:
        for lo, hi, segment in segments:
            counts[:, lo:hi] = segment
    return counts


# Views of `combined_run` under their own names, which benchmarks/tracer.py
# and benchmarks/probes.py look up to count and time sieve passes.
def sieve_run(cfg: SieveConfig) -> ClassSums:
    """Run the sieve and return exact per-class sums at every checkpoint."""
    return combined_run(cfg)[0]


def density_scan(cfg: SieveConfig, chi: DirichletCharacter) -> DensityTrace:
    """Sign-bias measurement for a real non-principal character."""
    return combined_run(cfg, chi)[1]


def _twist(rows: np.ndarray, chis: list[DirichletCharacter]) -> np.ndarray:
    """psi(chi) = sum_a chi(a) rows[:, a] for every row of class sums (int64,
    never negative) and every character of `chis`, as one complex array
    with a column per character.

    A float64 matrix product of the rows at the units with the values
    chi(a) = `roots_of_unity(d)`[e(a)], the bits of `values(chi)` without
    filling its per-character cache, TWIST_CHARACTERS characters at a
    time.  It is made exact: the class sums are cut into slices of `bits`
    bits, and each value into VALUE_SLICES slices, slice t the multiple of
    2^-(t + 1) VALUE_BITS nearest to what the slices before it leave.
    Every partial sum of a slice pair's product is then an integer
    multiple of its grid below 2^53, so no order of the adds shows; the
    pairs' products are added in a fixed order, each value's least slice
    first.  So every psi depends on its own row and character only, not
    on the block, the chunk or the BLAS kernel: real characters give exact
    integers with +0.0 imaginary parts, complex ones the exact sum with
    the values cut at 2^-60, rounded a few times at the last bit.
    """
    n, q = rows.shape
    for chi in chis:
        if chi.modulus != q:
            raise ValueError(f"character modulus {chi.modulus} does not match sums q={q}")
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    bits = 53 - VALUE_BITS - (len(units) - 1).bit_length()  # per slice of the class sums
    cuts = max(1, -(-int(rows.max(initial=0)).bit_length() // bits))  # slices of the class sums
    block = np.empty((cuts, n, len(units)))
    block[0] = rows[:, units]  # exact: class sums stay below 2^53
    for s in range(1, cuts):  # slice s: the bits from s * bits up
        np.floor(np.multiply(block[s - 1], 2.0**-bits, out=block[s]), out=block[s])
        block[s - 1] -= block[s] * 2.0**bits
    block = block.reshape(-1, len(units))
    roots = {d: np.array(roots_of_unity(d)) for d in {chi.order for chi in chis}}
    psi = np.empty((n, len(chis)), dtype=np.complex128)
    for lo in range(0, len(chis), TWIST_CHARACTERS):
        chunk = chis[lo : lo + TWIST_CHARACTERS]
        rest = np.stack([roots[chi.order][chi.value_exponents[units]] for chi in chunk], axis=1).view(np.float64)
        parts = np.empty((len(units), VALUE_SLICES, 2 * len(chunk)))  # (re, im) per character
        for t in range(VALUE_SLICES):
            scale = 2.0 ** ((t + 1) * VALUE_BITS)
            parts[:, t] = np.round(rest * scale) / scale
            rest -= parts[:, t]
        products = (block @ parts.reshape(len(units), -1)).reshape(cuts, n, VALUE_SLICES, 2 * len(chunk))
        total = np.zeros((n, 2 * len(chunk)))
        for s, product in enumerate(products):
            for t in reversed(range(VALUE_SLICES)):
                total += product[:, t] * 2.0 ** (s * bits)
        psi[:, lo : lo + len(chunk)] = total.view(np.complex128)
    return psi


def twist(sums: ClassSums, chi: DirichletCharacter, x: int) -> tuple[complex, complex]:
    """psi_f(x, chi) = sum_a chi(a) S_f(x; a) for f = omega and Omega.

    The one-checkpoint, one-character case of `_twist`, the product behind
    `write_twists_csv`, so it is bit for bit the value written there; for
    real characters the results are exact integers.  A mirrored character
    (its conjugate of lower index) is not twisted: it gets the conjugate's
    psi with each imaginary part's sign flipped, as in `twists.csv`.
    """
    mate = conjugate_index(chi)
    low = chi if chi.index <= mate else character(chi.modulus, mate)
    pw, pW = _twist(sums.counts[:, sums.row(x)], [low])[:, 0].tolist()
    return (pw, pW) if low is chi else (pw.conjugate(), pW.conjugate())


def write_checkpoints_csv(sums: ClassSums, path: str, comment: str | None = None) -> None:
    template = "\n".join(f"%d,{a},%d,%d" for a in range(sums.q))
    args = np.empty((sums.q, 3), dtype=np.int64)  # (x, S_omega, S_Omega) per residue

    def rows():
        for x, counts in zip(sums.checkpoints, sums.counts.transpose(1, 2, 0)):
            args[:, 0] = x
            args[:, 1:] = counts
            yield template % tuple(args.ravel().tolist())

    write_csv(path, "x,a,S_omega,S_Omega", rows(), comment)


def write_twists_csv(
    sums: ClassSums, chis: list[DirichletCharacter], path: str, comment: str | None = None
) -> None:
    """One row per (checkpoint, character), checkpoint-major.

    A mirrored character (complex, its conjugate of lower index) is not
    twisted: its conjugate is, taken from `chis` or else built, and its row
    is the conjugate's with each imaginary part's sign flipped, `twist`'s
    value, as `'%.17g' % -v` flips the sign of `'%.17g' % v` for
    every finite v, +-0 included.  The checkpoints are twisted a block at
    a time, at most TWIST_ELEMENTS class sums (omega and Omega rows times
    q) per block, by one `_twist` into a (2n, twisted characters) complex
    array, whose bits do not depend on the block.  A checkpoint's rows are
    two `%` calls: one formats its values with `'%.17g'` (`fmt_float`),
    one places them, and the sign-flipped imaginary parts, into a template
    of len(chis) lines.  They go to the file one checkpoint at a time, so
    memory stays bounded at any checkpoint count, q and character count.
    """
    q = sums.q
    given = {chi.index: chi for chi in chis}
    mates = [conjugate_index(chi) for chi in chis]
    lows = dict.fromkeys(min(chi.index, mate) for chi, mate in zip(chis, mates))  # indices of the characters twisted
    twisted = [given[low] if low in given else character(q, low) for low in lows]
    column = {chi.index: c for c, chi in enumerate(twisted)}
    # values: x, (re, im) of each twisted psi_omega, then psi_Omega, then -im
    width = 1 + 4 * len(twisted)
    picks = []
    for chi, mate in zip(chis, mates):
        w = 1 + 2 * column[min(chi.index, mate)]  # re psi_omega
        W = w + 2 * len(twisted)  # re psi_Omega
        im = (width + w // 2, width + W // 2) if mate < chi.index else (w + 1, W + 1)
        picks += [0, w, im[0], W, im[1]]
    template = "\n".join(f"%s,{q},{chi.index},%s,%s,%s,%s" for chi in chis)
    fields = "%d" + ",%.17g" * (width - 1)
    step = max(1, TWIST_ELEMENTS // (2 * q))

    def rows():
        if not chis:
            return
        pick = itemgetter(*picks)
        for lo in range(0, len(sums.checkpoints), step):
            xs = sums.checkpoints[lo : lo + step]
            n = len(xs)
            both = sums.counts[:, lo : lo + n].reshape(2 * n, q)  # a view when n covers every checkpoint
            psi = _twist(both, twisted)  # omega rows, then Omega rows
            for k, x in enumerate(xs):
                w, W = psi[k].view(np.float64).tolist(), psi[n + k].view(np.float64).tolist()
                strings = (fields % (x, *w, *W)).split(",")
                strings += ("-" + ",-".join(strings[2::2])).replace("--", "").split(",")  # "--": no sign
                yield template % pick(strings)

    header = "x,q,chi_index,re_psi_omega,im_psi_omega,re_psi_Omega,im_psi_Omega"
    write_csv(path, header, rows(), comment)
