"""Locate critical-line zeros of primitive Dirichlet L-functions.

Zeros rho = 1/2 + i*gamma are detected as sign changes of the rotated
real-valued function Z_chi(t) on a grid whose step is half the local mean
zero gap, h(t) = 0.5 * 2*pi / log(q*(|t|+10)/(2*pi) + e), then refined by
safeguarded Hermite-cubic steps on Z.  `rotated_z` is the scan's own Z:
it returns the Z of the one evaluation, `_z_and_l`, that the grid and the
refinement take, so every caller of Z shares the scan's bits.

The slope costs no further evaluation.  Every L-evaluation returns
L'(1/2 + it) with the value, and as phase(t) * L(1/2 + it) is real on the
critical line, the phase's own derivative i theta'(t) phase(t) adds only
i theta'(t) Z(t), an imaginary term, so

    Z'(t) = -Im(phase(t) * L'(1/2 + it))

for real and complex primitive characters alike.  So both ends of a
sign-change bracket carry Z and Z' (grid points at first, evaluated
points after), and every point refinement evaluates is the root of the
cubic that matches both, taken by two Newton steps on that cubic from the
end with the smaller |Z| (the first of them is the Newton step on Z
itself).  A point outside the open bracket, or NaN, is replaced by the
bracket's midpoint, so the bracket shrinks at every step and convergence
never rests on the slope.  Refinement stops once the Newton correction
|Z/Z'| at the evaluated point is below epsilon * max(1, |t|)
(epsilon = 2^-52, under two ulps of t: a further step could move t by
rounding only), the bracket is narrower than 1e-14 * max(1, |t|), or Z
vanishes; the point evaluated last is the zero, and its L-evaluation
gives both the stored residual |L(rho)| and L'(rho, chi).  At q=163,
T=30 the scan takes 152 L-evals for its 56 zeros: 63 on the grid and 89
in refinement for the 28 above 0.

A pair of zeros inside one grid step leaves Z one sign at both ends of
the step while |Z| dips toward 0 and turns back.  So each dip of the grid,
a step where Z keeps its sign while sign(Z) Z' < 0 at its left end and
> 0 at its right (|Z| falls into the step and rises out of it, so it has
a minimum inside), is rescanned alone at a quarter step, and each dip of
that rescan at a sixteenth; a rescan takes its two ends, already
evaluated, from the level above.  A zero slope at a step's left end counts
as falling there: a real character's scan starts at t = 0, where its Z
is even and Z'(0) = 0.  A dip where neither finds a sign change,
with |Z| below 1e-6 of the grid's median at a point of its quarter-step
rescan, would be a zero of even order: it is reported as a warning, never
absorbed (simple zeros are the working assumption).

`count_check` then decides once, against the smooth counting function

    N_hat(T) = (T/pi) * log(q*T / (2*pi*e))        (zeros with |gamma| <= T):

a total off N_hat by more than 2 + log(qT), or a unit window crowded
above 2 log(qT) zeros, raises MissedZeroError rather than returning a
silently incomplete cache.  A window is [n, n+1) in |gamma| for a real
character, whose zeros are mirrored, and [m, m+1) in gamma for a complex
one, so the zeros at +gamma and -gamma never share it.

Every scan covers 0 <= gamma <= T of one character, its upper half.  As
L(conj s, conj chi) = conj L(s, chi), the zeros of chi below the real
axis are those of its conjugate above it, mirrored: gamma -> -gamma,
L' -> conj L', residual kept.  So a cache is the conjugate's upper half
mirrored, then its own; a real character is its own conjugate, and the
cache of a conjugate character is `conjugate_cache` of this one, with no
scan.

A scan counts its own work: the cache it returns carries a `ScanReport`
as `ZeroCache.report` (and a `MissedZeroError` the same report), with the
L-evals and seconds of the grid, the rescans and the refinement, and the
L-evals of each refinement.  The grid takes one L-eval per point, a
rescan one per point between its two ends, a refinement one per step.
A loaded or mirrored cache has no report.
"""

from __future__ import annotations

import math
import re
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter, character, conjugate_character, conjugate_index
from .lfunction import _reserve_height, _rotation_phase, l_value

__all__ = [
    "FORMAT_VERSION",
    "MAX_SCAN_HEIGHT",
    "ZeroRecord",
    "ScanReport",
    "ZeroCache",
    "CountReport",
    "MissedZeroError",
    "CacheFormatError",
    "smooth_zero_count",
    "rotated_z",
    "scan_zeros",
    "conjugate_cache",
    "count_check",
    "store_cache",
    "load_cache",
    "cache_filename",
]

FORMAT_VERSION = "5"  # the Dirichlet series kernel; Hermite-cubic points at every step, at half the mean gap
MAX_SCAN_HEIGHT = 1.0e3
MAX_REFINE_STEPS = 64
NEWTON_STOP = sys.float_info.epsilon  # refinement stops at |Z/Z'| < NEWTON_STOP * max(1, |t|)


class MissedZeroError(RuntimeError):
    """The zero count is inconsistent with the smooth count; `windows` are the
    crowded ones, and `report` the ScanReport of the scan that raised."""

    def __init__(self, message: str, windows: list[int], report: ScanReport | None = None):
        super().__init__(message)
        self.windows = windows
        self.report = report


class CacheFormatError(ValueError):
    """A zero-cache file failed structural validation."""


@dataclass(frozen=True)
class ZeroRecord:
    gamma: float
    l_prime: complex
    residual: float  # |L(1/2 + i*gamma)| after refinement


@dataclass(frozen=True)
class ScanReport:
    """The work of one scan, both halves of a complex character: the L-evals
    and seconds of each phase, "grid", "rescan" (of the dips) and "refine",
    and the L-evals of each refinement in the order the scan took them.  The
    sign-change and dip tests between the phases are timed in none."""

    evals: dict[str, int]
    seconds: dict[str, float]
    refines: tuple[int, ...]


@dataclass(frozen=True)
class ZeroCache:
    q: int
    chi_index: int
    t_scanned: float
    records: tuple[ZeroRecord, ...]
    report: ScanReport | None = field(default=None, compare=False)  # None where no scan ran

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
    return math.pi / math.log(q * (abs(t) + 10) / (2 * math.pi) + math.e)


def _slope(phase, lv):
    """Z'(t) = -Im(phase(t) L'(1/2 + it)): the phase's own derivative adds
    i theta'(t) Z(t) to the derivative of phase * L, imaginary on the line."""
    return -(phase * lv.derivative).imag


def _z_and_l(chi, t):
    """Z(t), Z'(t) and the LValue at 1/2 + it.  A real character's Z is
    even, so its Z'(0) is 0, not the rounding noise the formula leaves."""
    lv = l_value(chi, complex(0.5, t))
    phase = _rotation_phase(chi, t)
    dz = 0.0 if chi.is_real and t == 0.0 else _slope(phase, lv)
    return (phase * lv.value).real, dz, lv


def rotated_z(chi: DirichletCharacter, t: float) -> float:
    """Z(t), the real rotation of L(1/2 + it, chi) that the scan evaluates;
    it vanishes exactly at the zeros.  The rotated value's imaginary part is
    a numerical residual, dropped."""
    if not chi.is_primitive:
        raise ValueError("rotated Z-function requires a primitive character")
    return _z_and_l(chi, t)[0]


def _point(chi, t):
    """The record (t, Z(t), Z'(t), LValue) of one evaluated point."""
    return (t, *_z_and_l(chi, t))


def _scan_grid(chi, lo, hi, step_scale=1.0):
    """The points of the grid from point `lo` to point `hi`, ends included:
    the two ends are already evaluated, so only the points between are."""
    points = [lo]
    t = lo[0] + step_scale * _grid_step(lo[0], chi.modulus)
    while t < hi[0]:
        points.append(_point(chi, t))
        t += step_scale * _grid_step(t, chi.modulus)
    points.append(hi)
    return points


def _rescan(chi, lo, hi, step_scale, work):
    """`_scan_grid` of a dip between its evaluated ends, its work added to `work`."""
    start = time.perf_counter()
    points = _scan_grid(chi, lo, hi, step_scale)
    work.append(("rescan", len(points) - 2, time.perf_counter() - start))
    return points


def _cubic_point(lo, hi):
    """Where refinement evaluates Z next: two Newton steps, from the end
    with the smaller |Z|, on the cubic Hermite interpolant of Z through the
    bracket ends (t, Z, Z', LValue).  The first of the two is the Newton
    step on Z itself; the second, on the cubic, saves about one L-eval per
    zero.  NaN where the cubic is flat."""
    (a, za, dza, _), (b, zb, dzb, _) = lo, hi
    h = b - a
    c1, c2, c3 = h * dza, 3 * (zb - za) - h * (2 * dza + dzb), 2 * (za - zb) + h * (dza + dzb)
    u = 0.0 if abs(za) <= abs(zb) else 1.0
    for _ in range(2):
        slope = c1 + u * (2 * c2 + 3 * u * c3)
        if not slope:
            return math.nan
        u -= (za + u * (c1 + u * (c2 + u * c3))) / slope
    return a + u * h


def _refine(chi, lo, hi):
    """Safeguarded Hermite-cubic steps on Z over a sign-change bracket;
    returns (gamma, LValue, steps), one L-eval per step.

    `lo` and `hi` are the bracket's ends as (t, Z, Z', LValue): grid points
    at first, and each evaluated point replaces the end whose Z has its
    sign, so every point is `_cubic_point`'s on the current bracket, or
    the bracket's midpoint where that point leaves the open bracket or is
    NaN.  The bracket keeps the sign change and shrinks at every step.  Stops
    once the Newton correction |Z/Z'| at the evaluated point is below
    NEWTON_STOP * max(1, |t|), the bracket is narrower than
    1e-14 * max(1, |t|), or Z vanishes exactly, and returns the point
    evaluated last together with its LValue.
    """
    for step in range(1, MAX_REFINE_STEPS + 1):
        a, b = lo[0], hi[0]
        tol = 1e-14 * max(1.0, abs(0.5 * (a + b)))
        t = _cubic_point(lo, hi)
        if not a < t < b:
            t = 0.5 * (a + b)
        z, dz, lv = _z_and_l(chi, t)
        if z == 0.0:
            break
        if (z < 0) == (hi[1] < 0):
            hi = (t, z, dz, lv)
        else:
            lo = (t, z, dz, lv)
        if abs(z) < NEWTON_STOP * max(1.0, abs(t)) * abs(dz) or hi[0] - lo[0] < tol:
            break
    return t, lv, step


def _sign_changes(chi, points, work):
    """(gamma, LValue) of each grid point where Z vanishes and each refined
    sign change; each refinement's work is added to `work`."""
    found = []
    for lo, hi in zip(points, points[1:]):
        t, z, _, lv = lo
        if z == 0.0:
            found.append((t, lv))
        elif (z < 0) != (hi[1] < 0):
            start = time.perf_counter()
            t, lv, steps = _refine(chi, lo, hi)
            work.append(("refine", steps, time.perf_counter() - start))
            found.append((t, lv))
    return found


def _dips(points):
    """(lo, hi) for each pair of neighbouring points where Z keeps its sign
    while |Z| falls at the left end and rises at the right, sign(Z) Z' < 0
    at lo and > 0 at hi, so |Z| has a minimum between them.  A zero slope
    at the left end counts as falling: a real character's scan starts at
    t = 0, where Z' = 0."""
    for lo, hi in zip(points, points[1:]):
        falls = lo[1] * lo[2] < 0 or lo[2] == 0.0
        if (lo[1] < 0) == (hi[1] < 0) and falls and hi[1] * hi[2] > 0:
            yield lo, hi


def _upper_half(chi, t_max, work):
    """The records of every sign change of Z on [0, t_max], ascending, its
    dips rescanned as above between their known ends.  Appends to `work`
    (phase, L-evals, seconds) of its grid, each rescan and each refinement."""
    start = time.perf_counter()
    points = _scan_grid(chi, _point(chi, 0.0), _point(chi, t_max))
    work.append(("grid", len(points), time.perf_counter() - start))
    found = _sign_changes(chi, points, work)
    mags = sorted(abs(p[1]) for p in points)
    tol = 1e-6 * max(1.0, mags[len(mags) // 2])
    for lo, hi in _dips(points):
        sub = _rescan(chi, lo, hi, 1 / 4, work)
        more = _sign_changes(chi, sub, work)
        for sub_lo, sub_hi in _dips(sub):
            more += _sign_changes(chi, _rescan(chi, sub_lo, sub_hi, 1 / 16, work), work)
        found += more
        if not more:
            t, z = min((p[:2] for p in sub), key=lambda p: abs(p[1]))
            if abs(z) < tol:
                warnings.warn(
                    f"possible multiple/even-order zero near t={t:.6f}: |Z| dips to "
                    f"{abs(z):.3g} without a sign change",
                    RuntimeWarning,
                    stacklevel=3,
                )
    return tuple(ZeroRecord(g, lv.derivative, abs(lv.value)) for g, lv in sorted(found, key=lambda p: p[0]))


def _mirrored(records):
    """The conjugate character's zeros: gamma -> -gamma, L' -> conj L', in ascending order."""
    return tuple(ZeroRecord(-r.gamma, r.l_prime.conjugate(), r.residual) for r in reversed(records))


def conjugate_cache(cache: ZeroCache) -> ZeroCache:
    """The cache of the conjugate character, from this one without a scan."""
    mate = conjugate_index(character(cache.q, cache.chi_index))
    return ZeroCache(cache.q, mate, cache.t_scanned, _mirrored(cache.records))


def _report(work):
    """The ScanReport of the (phase, L-evals, seconds) entries of a scan."""
    phases = ("grid", "rescan", "refine")
    evals, seconds = dict.fromkeys(phases, 0), dict.fromkeys(phases, 0.0)
    for phase, n, s in work:
        evals[phase] += n
        seconds[phase] += s
    return ScanReport(evals, seconds, tuple(n for phase, n, _ in work if phase == "refine"))


def scan_zeros(chi: DirichletCharacter, t_max: float) -> ZeroCache:
    """All zeros with |gamma| <= t_max for a primitive non-principal character:
    the upper halves of chi and of its conjugate (chi itself, if real), with
    the ScanReport of the scan as the cache's `report`."""
    if not chi.is_primitive:
        raise ValueError("zero scan requires a primitive character")
    if chi.is_principal:
        raise ValueError("zero scan requires a non-principal character")
    if not 0 < t_max <= MAX_SCAN_HEIGHT:
        raise ValueError(f"T must be in (0, {MAX_SCAN_HEIGHT}]")

    _reserve_height(chi.modulus, t_max)
    work = []
    upper = _upper_half(chi, t_max, work)
    lower = upper if chi.is_real else _upper_half(conjugate_character(chi), t_max, work)
    cache = ZeroCache(chi.modulus, chi.index, float(t_max), _mirrored(lower) + upper, _report(work))
    rep = count_check(cache)
    if not rep.passed:
        raise MissedZeroError(
            f"possible missed zeros for q={cache.q} chi={chi.index} T={t_max}: count={rep.count} "
            f"expected={rep.expected:.2f} deviation={rep.deviation:.2f} allowed={rep.allowed:.2f}; "
            f"crowded windows {list(rep.bad_windows)}",
            windows=list(rep.bad_windows),
            report=cache.report,
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
        f"count={cache.count} version={FORMAT_VERSION}"
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
    return ZeroCache(q, chi_index, t_scanned, tuple(records))
