"""Locate critical-line zeros of primitive Dirichlet L-functions.

Zeros rho = 1/2 + i*gamma are detected as sign changes of the rotated
real-valued function Z_chi(t) on a grid whose step tracks the local mean
zero gap, h(t) = 0.25 * 2*pi / log(q*(|t|+10)/(2*pi) + e), then refined by
Illinois regula falsi until the bracket is narrower than 1e-14 * max(1, |t|).
L'(rho, chi) is evaluated analytically at the refined point, in the same
L-evaluation that located it.

A pair of zeros inside one grid step leaves Z one sign at both ends of
the step while |Z| dips toward 0 and turns back.  So each dip of the grid,
a point where Z keeps its sign and |Z| is below its neighbours (an end
point has one), is rescanned at a quarter step over the steps beside it;
a rescan that finds no sign change rescans its own dips once more, at a
quarter of its step.  A dip where neither finds one, with |Z| below 1e-6
of the grid's median, would be a zero of even order: it is reported as a
warning, never absorbed (simple zeros are the working assumption).

`count_check` then decides once, against the smooth counting function

    N_hat(T) = (T/pi) * log(q*T / (2*pi*e))        (zeros with |gamma| <= T):

a total off N_hat by more than 2 + log(qT), or a unit window crowded
above 2 log(qT) zeros, raises MissedZeroError rather than returning a
silently incomplete cache.  A window is [n, n+1) in |gamma| for a real
character, whose zeros are mirrored, and [m, m+1) in gamma for a complex
one, so the zeros at +gamma and -gamma never share it.

Real characters are scanned on [0, T] only and mirrored, since their zeros
come in conjugate pairs with L'(conj rho) = conj L'(rho); complex
characters are scanned over the full [-T, T].
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter, character
from .lfunction import _rotation_phase, l_value

__all__ = [
    "FORMAT_VERSION",
    "MAX_SCAN_HEIGHT",
    "ZeroRecord",
    "ZeroCache",
    "CountReport",
    "MissedZeroError",
    "CacheFormatError",
    "smooth_zero_count",
    "scan_zeros",
    "count_check",
    "store_cache",
    "load_cache",
    "cache_filename",
]

FORMAT_VERSION = "3"  # "1": the fixed-rule Euler-Maclaurin kernel; "2": the Hurwitz block kernel
MAX_SCAN_HEIGHT = 1.0e3
MAX_REFINE_STEPS = 64
MIN_ZERO_GAP = 1e-6


class MissedZeroError(RuntimeError):
    """The zero count is inconsistent with the smooth count; `windows` are the crowded ones."""

    def __init__(self, message: str, windows: list[int]):
        super().__init__(message)
        self.windows = windows


class CacheFormatError(ValueError):
    """A zero-cache file failed structural validation."""


@dataclass(frozen=True)
class ZeroRecord:
    gamma: float
    l_prime: complex
    residual: float  # |L(1/2 + i*gamma)| after refinement


@dataclass(frozen=True)
class ZeroCache:
    q: int
    chi_index: int
    t_scanned: float
    version: str
    records: tuple[ZeroRecord, ...]

    @property
    def count(self) -> int:
        return len(self.records)

    def gammas(self) -> list[float]:
        return [r.gamma for r in self.records]

    def terms(self, chi: DirichletCharacter, t0: float) -> list[tuple[float, complex]]:
        """(gamma, L'(rho)/rho) for the zeros of the sum truncated at t0.

        A real character gives the gamma > 0 half of its conjugate pairs,
        a complex one every zero with |gamma| <= t0.
        """
        if (self.q, self.chi_index) != (chi.modulus, chi.index):
            raise ValueError("zero cache does not belong to this character")
        if t0 > self.t_scanned:
            raise ValueError(f"T0={t0} exceeds scanned height {self.t_scanned}")
        return [
            (r.gamma, r.l_prime / complex(0.5, r.gamma))
            for r in self.records
            if abs(r.gamma) <= t0 and (r.gamma > 0 or not chi.is_real)
        ]


def smooth_zero_count(t: float, q: int) -> float:
    """Expected number of zeros with |gamma| <= t for a primitive character mod q."""
    if t <= 0:
        return 0.0
    return max(0.0, (t / math.pi) * math.log(q * t / (2 * math.pi * math.e)))


def _grid_step(t: float, q: int) -> float:
    return 0.5 * math.pi / math.log(q * (abs(t) + 10) / (2 * math.pi) + math.e)


def _z_and_l(chi, t):
    lv = l_value(chi, complex(0.5, t))
    z = (_rotation_phase(chi, t) * lv.value).real
    return z, lv


def _scan_grid(chi, t_lo, t_hi, step_scale=1.0):
    """The grid points of [t_lo, t_hi], their Z values and their LValues."""
    ts = [t_lo]
    t = t_lo
    while t < t_hi:
        t = min(t_hi, t + step_scale * _grid_step(t, chi.modulus))
        ts.append(t)
    zs, lvs = zip(*(_z_and_l(chi, t) for t in ts))
    return ts, zs, lvs


def _refine(chi, a, b, za, zb):
    """Illinois regula falsi on a sign-change bracket; returns (gamma, LValue).

    Each step evaluates the false-position point of [a, b], kept at least
    half the stopping width inside it, and keeps the sub-bracket with the
    sign change.  When the same end survives twice in a row, its Z value is
    halved, so both ends converge.  Stops once the bracket is narrower
    than 1e-14 * max(1, |t|) or Z vanishes exactly, and returns the
    evaluated end with the smaller |L| together with its LValue.
    """
    ends = {}
    side = 0
    for _ in range(MAX_REFINE_STEPS):
        tol = 1e-14 * max(1.0, abs(0.5 * (a + b)))
        if ends and b - a < tol:
            break
        m = b - zb * (b - a) / (zb - za)
        # at least tol/2 inside, so a root next to an end closes the bracket
        m = min(max(m, a + 0.5 * tol), b - 0.5 * tol)
        if not a < m < b:
            m = 0.5 * (a + b)
        zm, lv = _z_and_l(chi, m)
        if zm == 0.0:
            return m, lv
        if (zm < 0) == (zb < 0):
            b, zb = m, zm
            ends["b"] = (m, lv)
            if side == -1:
                za *= 0.5
            side = -1
        else:
            a, za = m, zm
            ends["a"] = (m, lv)
            if side == 1:
                zb *= 0.5
            side = 1
    return min(ends.values(), key=lambda end: abs(end[1].value))


def _sign_changes(chi, ts, zs, lvs):
    """(gamma, LValue) of each grid point where Z vanishes and each refined sign change."""
    found = []
    for a, b, za, zb, lva in zip(ts, ts[1:], zs, zs[1:], lvs):
        if za == 0.0:
            found.append((a, lva))
        elif (za < 0) != (zb < 0):
            found.append(_refine(chi, a, b, za, zb))
    return found


def _dips(ts, zs):
    """(lo, hi, t, z) for each grid point (t, z) where Z keeps its sign and |Z|
    is below its neighbours; [lo, hi] spans the steps beside it."""
    last = len(zs) - 1
    for i, z in enumerate(zs):
        lo, hi = max(i - 1, 0), min(i + 1, last)
        if all((zs[j] < 0) == (z < 0) and abs(zs[j]) > abs(z) for j in {lo, hi} - {i}):
            yield ts[lo], ts[hi], ts[i], z


def _find_side_zeros(chi, t_lo, t_hi, step_scale=1.0):
    """Every sign change of Z on [t_lo, t_hi], its dips rescanned as above."""
    ts, zs, lvs = _scan_grid(chi, t_lo, t_hi, step_scale)
    found = _sign_changes(chi, ts, zs, lvs)
    mags = sorted(abs(z) for z in zs)
    tol = 1e-6 * max(1.0, mags[len(mags) // 2])
    for lo, hi, t, z in _dips(ts, zs):
        sub_ts, sub_zs, sub_lvs = _scan_grid(chi, lo, hi, step_scale / 4)
        more = _sign_changes(chi, sub_ts, sub_zs, sub_lvs)
        for sub_lo, sub_hi, _, _ in [] if more else _dips(sub_ts, sub_zs):
            more += _sign_changes(chi, *_scan_grid(chi, sub_lo, sub_hi, step_scale / 16))
        found += [(g, lv) for g, lv in more if all(abs(g - g0) > MIN_ZERO_GAP for g0, _ in found)]
        if not more and abs(z) < tol:
            warnings.warn(
                f"possible multiple/even-order zero near t={t:.6f}: |Z| dips to "
                f"{abs(z):.3g} without a sign change",
                RuntimeWarning,
                stacklevel=3,
            )
    return found


def _cache(chi: DirichletCharacter, t_max: float, found) -> ZeroCache:
    """The sorted cache of the (gamma, LValue) pairs `found`; a real
    character's are the gamma >= 0 half, mirrored here."""
    records = [ZeroRecord(g, lv.derivative, abs(lv.value)) for g, lv in sorted(found, key=lambda p: p[0])]
    if chi.is_real:
        records = [ZeroRecord(-r.gamma, r.l_prime.conjugate(), r.residual) for r in reversed(records)] + records
    return ZeroCache(chi.modulus, chi.index, float(t_max), FORMAT_VERSION, tuple(records))


def scan_zeros(chi: DirichletCharacter, t_max: float) -> ZeroCache:
    """All zeros with |gamma| <= t_max for a primitive non-principal character."""
    if not chi.is_primitive:
        raise ValueError("zero scan requires a primitive character")
    if chi.is_principal:
        raise ValueError("zero scan requires a non-principal character")
    if not 0 < t_max <= MAX_SCAN_HEIGHT:
        raise ValueError(f"T must be in (0, {MAX_SCAN_HEIGHT}]")

    t_lo = 0.0 if chi.is_real else -t_max
    cache = _cache(chi, t_max, _find_side_zeros(chi, t_lo, t_max))
    rep = count_check(cache)
    if not rep.passed:
        raise MissedZeroError(
            f"possible missed zeros for q={cache.q} chi={chi.index} T={t_max}: count={rep.count} "
            f"expected={rep.expected:.2f} deviation={rep.deviation:.2f} allowed={rep.allowed:.2f}; "
            f"crowded windows {list(rep.bad_windows)}",
            windows=list(rep.bad_windows),
        )
    return cache


@dataclass(frozen=True)
class CountReport:
    t_scanned: float
    count: int
    expected: float
    deviation: float
    allowed: float
    bad_windows: tuple[int, ...]  # crowded (more than 2 log(qT) zeros), by count_check's keys
    passed: bool


def count_check(cache: ZeroCache) -> CountReport:
    """Compare the cache against the smooth zero count: the total, and the
    crowded unit windows, [n, n+1) in |gamma| for a real character (whose
    zeros come in mirrored pairs) and [m, m+1) in gamma for a complex one,
    so the limit applies to each side of the real axis on its own."""
    t = cache.t_scanned
    q = cache.q
    expected = smooth_zero_count(t, q)
    deviation = abs(cache.count - expected)
    allowed = 2 + math.log(max(q * t, 1.0))
    if character(q, cache.chi_index).is_real:  # zeros mirrored: window n holds |gamma| in [n, n+1)
        occ = Counter(int(abs(r.gamma)) for r in cache.records)
    else:  # one side per window: window m holds gamma in [m, m+1)
        occ = Counter(math.floor(r.gamma) for r in cache.records)
    limit = 2 * math.log(max(q * t, math.e))
    bad = tuple(w for w, c in sorted(occ.items()) if c > limit)
    passed = deviation <= allowed and not bad
    return CountReport(t, cache.count, expected, deviation, allowed, bad, passed)


def cache_filename(q: int, chi_index: int) -> str:
    return f"zeros_q{q}_chi{chi_index}.csv"


def store_cache(cache: ZeroCache, path: str) -> None:
    rows = (
        f"{fmt_float(r.gamma)},{fmt_float(r.l_prime.real)},"
        f"{fmt_float(r.l_prime.imag)},{fmt_float(r.residual)}"
        for r in cache.records
    )
    comment = (
        f"q={cache.q} chi={cache.chi_index} T={fmt_float(cache.t_scanned)} "
        f"count={cache.count} version={cache.version}"
    )
    write_csv(path, "gamma,re_lprime,im_lprime,residual", rows, comment)


_HEADER_RE = re.compile(
    r"^# q=(\d+) chi=(\d+) T=(\d+(?:\.\d*)?(?:[eE][+\-]?\d+)?) count=(\d+) version=(\S+)\s*$"
)


def load_cache(path: str) -> ZeroCache:
    # undecodable bytes become U+FFFD and then fail the header or a row
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise CacheFormatError(f"{path}: empty cache file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise CacheFormatError(f"{path}: malformed header line {lines[0]!r}")
    q, chi_index, t_scanned, count = int(m.group(1)), int(m.group(2)), float(m.group(3)), int(m.group(4))
    version = m.group(5)
    if version != FORMAT_VERSION:
        raise CacheFormatError(f"{path}: version {version!r} != supported {FORMAT_VERSION!r}")
    if len(lines) < 2 or lines[1] != "gamma,re_lprime,im_lprime,residual":
        raise CacheFormatError(f"{path}: missing column header")
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) != count:
        raise CacheFormatError(f"{path}: header count {count} but {len(rows)} rows (truncated file?)")
    records = []
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != 4:
            raise CacheFormatError(f"{path}: bad row {ln!r}")
        try:
            g, re_lp, im_lp, resid = (float(p) for p in parts)
        except ValueError as exc:
            raise CacheFormatError(f"{path}: bad row {ln!r}") from exc
        records.append(ZeroRecord(g, complex(re_lp, im_lp), resid))
    for r0, r1 in zip(records, records[1:]):
        if not r1.gamma > r0.gamma:
            raise CacheFormatError(f"{path}: gamma values not strictly increasing")
    return ZeroCache(q, chi_index, t_scanned, version, tuple(records))
