"""Segmented sieve for omega(n) / Omega(n) with residue-class accumulators.

One pass over n <= x_max serves every character mod q: the sieve only
accumulates exact integer sums

    S_f(x; a) = sum_{n <= x, n = a mod q} f(n),    f in {omega, Omega},

at the configured checkpoints; twisting by a character is a closing
root-of-unity combination done afterwards.  Per segment the sieve keeps an
additive omega counter, an additive Omega counter and a residual cofactor:
each prime p <= sqrt(x_max) bumps omega once on its multiples and Omega
once per power level (peeling p from the cofactor), and whatever cofactor
stays > 1 at the end is the single prime factor > sqrt(x_max), adding one
to both counters.

The same pass can drive the sign-bias measurement for one real character:
running psi_f(n) = sum_{m<=n} chi(m) f(m) is carried as an exact integer,
and the harmonically weighted measures H_f = sum 1/n over the biased
thresholds are accumulated in fixed 2^16-aligned blocks (pairwise-summed
per block, Neumaier-compensated across blocks).  Because the block
structure is anchored to absolute n, the floating results are bit-identical
for every segment size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import fmt_float, write_csv
from .characters import DirichletCharacter, _root_of_unity, real_sign_table

__all__ = [
    "BLOCK",
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

BLOCK = 1 << 16  # harmonic-accumulation granularity, aligned to absolute n
MAX_X = 1 << 40  # design ceiling; keeps all int64 accumulators far from overflow
DEFAULT_SEGMENT = 1 << 20
FOLD_WIDTH = 4096  # row width of the class fold, rounded to a multiple of q


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
    segment_size: int = DEFAULT_SEGMENT
    checkpoints: tuple[int, ...] | None = None  # None: default geometric grid
    ratio: float = 1.02

    def __post_init__(self):
        if not isinstance(self.x_max, int) or self.x_max < 0:
            raise ValueError(f"x_max must be a non-negative integer, got {self.x_max!r}")
        if self.x_max > MAX_X:
            raise ValueError(f"x_max exceeds the design ceiling 2^40 ({MAX_X})")
        if not isinstance(self.q, int) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q!r}")
        if self.segment_size < 2:
            raise ValueError("segment_size must be >= 2")
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


def _sieve_segment(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(omega, Omega) as int8 arrays for n in [lo, hi)."""
    length = hi - lo
    omega = np.zeros(length, dtype=np.int8)
    bomega = np.zeros(length, dtype=np.int8)
    cof = np.arange(lo, hi, dtype=np.int64)
    for p in primes:
        start = max(p, -(-lo // p) * p)
        if start < hi:
            i0 = start - lo
            omega[i0::p] += 1
            bomega[i0::p] += 1
            view = cof[i0::p]
            np.floor_divide(view, p, out=view)
        pk = p * p
        while pk < hi:
            start = max(pk, -(-lo // pk) * pk)
            if start < hi:
                i0 = start - lo
                bomega[i0::pk] += 1
                view = cof[i0::pk]
                np.floor_divide(view, p, out=view)
            pk *= p
    big = cof > 1  # exactly the n with one prime factor > sqrt(x_max)
    omega[big] += 1
    bomega[big] += 1
    return omega, bomega


def _fold_classes(piece: np.ndarray, u: int, q: int) -> np.ndarray:
    """Per-class int64 sums of `piece`, whose first entry is n = u.

    The piece is folded as rows of a width that is a multiple of q near
    FOLD_WIDTH (a plain `reshape(-1, q)` is several times slower at small
    q), the row sums and the short tail are folded to q columns, and the
    roll puts n = u at residue u mod q.
    """
    width = q * max(1, round(FOLD_WIDTH / q))
    nrows = len(piece) // width
    acc = piece[: nrows * width].reshape(nrows, width).sum(axis=0, dtype=np.int64)
    tail = piece[nrows * width :]
    acc[: len(tail)] += tail
    return np.roll(acc.reshape(-1, q).sum(axis=0), u % q)


def _class_range_sums(omega, bomega, lo, u, v, q):
    """Per-class integer sums over n in [u, v) inside a segment starting at lo."""
    return (
        _fold_classes(omega[u - lo : v - lo], u, q),
        _fold_classes(bomega[u - lo : v - lo], u, q),
    )


def _class_pieces(omega, bomega, lo, hi, q, cps_inside):
    """Split [lo, hi) at checkpoints; yield (checkpoint-or-None, dw, dW) pieces."""
    out = []
    prev = lo
    for x in cps_inside:
        out.append((x, *_class_range_sums(omega, bomega, lo, prev, x + 1, q)))
        prev = x + 1
    if prev < hi:
        out.append((None, *_class_range_sums(omega, bomega, lo, prev, hi, q)))
    return out


def _signed_values(omega, bomega, lo, hi, q, sgn_tab):
    r = np.remainder(np.arange(lo, hi, dtype=np.int64), q)
    sgn = sgn_tab[r].astype(np.int64)
    return sgn * omega, sgn * bomega


def _density_segment(omega, bomega, lo, hi, q, sgn_tab, entry_w, entry_W, cps_inside):
    """Block sums of masked 1/n plus checkpoint partials for one segment.

    Returns (block_sums_w, block_sums_W, checkpoint_rows, exit_w, exit_W)
    where checkpoint_rows are (x, local_complete_blocks, partial_w, partial_W).
    """
    dw, dW = _signed_values(omega, bomega, lo, hi, q, sgn_tab)
    cw = np.cumsum(dw)
    cw += entry_w
    cW = np.cumsum(dW)
    cW += entry_W
    inv = np.zeros(hi - lo, dtype=np.float64)
    ns = np.arange(lo, hi, dtype=np.float64)
    if lo == 0:
        inv[1:] = 1.0 / ns[1:]
    else:
        inv[:] = 1.0 / ns
    terms_w = inv * (cw < 0)
    terms_W = inv * (cW > 0)

    length = hi - lo
    nfull = length // BLOCK
    bw = terms_w[: nfull * BLOCK].reshape(nfull, BLOCK).sum(axis=1).tolist()
    bW = terms_W[: nfull * BLOCK].reshape(nfull, BLOCK).sum(axis=1).tolist()
    if nfull * BLOCK < length:
        bw.append(float(terms_w[nfull * BLOCK :].sum()))
        bW.append(float(terms_W[nfull * BLOCK :].sum()))

    rows = []
    base_block = lo // BLOCK
    for x in cps_inside:
        local = x // BLOCK - base_block
        start = local * BLOCK
        rows.append(
            (
                x,
                local,
                float(terms_w[start : x - lo + 1].sum()),
                float(terms_W[start : x - lo + 1].sum()),
            )
        )
    exit_w = int(cw[-1]) if length else entry_w
    exit_W = int(cW[-1]) if length else entry_W
    return bw, bW, rows, exit_w, exit_W


def _neumaier(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


class _DensityFold:
    """Folds per-segment block sums in order; evaluates H(x) at checkpoints."""

    def __init__(self):
        self.sw = self.cw = 0.0
        self.sW = self.cW = 0.0
        self.trace = []  # (x, H_w, H_W)

    def fold_segment(self, bw, bW, rows):
        ptr = 0
        for x, local, pw, pW in rows:
            while ptr < local:
                self.sw, self.cw = _neumaier(self.sw, self.cw, bw[ptr])
                self.sW, self.cW = _neumaier(self.sW, self.cW, bW[ptr])
                ptr += 1
            self.trace.append((x, (self.sw + self.cw) + pw, (self.sW + self.cW) + pW))
        while ptr < len(bw):
            self.sw, self.cw = _neumaier(self.sw, self.cw, bw[ptr])
            self.sW, self.cW = _neumaier(self.sW, self.cW, bW[ptr])
            ptr += 1


def _delta(h: float, x: int) -> float:
    return h / math.log(x) if x > 1 else 0.0


def _execute(cfg: SieveConfig, density_chi: DirichletCharacter | None):
    """Shared driver: one serial sieve pass filling class sums and, optionally,
    the density accumulator for one real character."""
    sgn_tab = None
    if density_chi is not None:
        if density_chi.modulus != cfg.q:
            raise ValueError(
                f"character modulus {density_chi.modulus} does not match sieve q={cfg.q}"
            )
        if not density_chi.is_real:
            raise ValueError("density scan requires a real character (sign test undefined otherwise)")
        if density_chi.is_principal:
            raise ValueError("density scan requires a non-principal character")
        sgn_tab = real_sign_table(density_chi)

    q = cfg.q
    x_max = cfg.x_max
    cps = cfg.checkpoints
    n_cp = len(cps)
    s_omega = np.zeros((n_cp, q), dtype=np.int64)
    s_big = np.zeros((n_cp, q), dtype=np.int64)

    if x_max == 0:
        sums = ClassSums(q, 0, cps, s_omega, s_big)
        return sums, (None if density_chi is None else _empty_trace(cfg, density_chi))

    eff = max(BLOCK, (cfg.segment_size // BLOCK) * BLOCK)
    primes = _primes_upto(math.isqrt(x_max))

    density_cps = tuple(sorted(set(cps) | {x_max})) if density_chi is not None else ()

    def inside(seq, lo, hi):
        return [x for x in seq if lo <= x < hi]

    running_w = np.zeros(q, dtype=np.int64)
    running_W = np.zeros(q, dtype=np.int64)
    cp_pos = {x: i for i, x in enumerate(cps)}
    fold = _DensityFold()
    psi_w = psi_W = 0

    for lo in range(0, x_max + 1, eff):
        hi = min(lo + eff, x_max + 1)
        omega, bomega = _sieve_segment(lo, hi, primes)
        for marker, dw, dW in _class_pieces(omega, bomega, lo, hi, q, inside(cps, lo, hi)):
            np.add(running_w, dw, out=running_w)
            np.add(running_W, dW, out=running_W)
            if marker is not None:
                i = cp_pos[marker]
                s_omega[i] = running_w
                s_big[i] = running_W
        if sgn_tab is not None:
            bw, bW, rows, psi_w, psi_W = _density_segment(
                omega, bomega, lo, hi, q, sgn_tab, psi_w, psi_W,
                inside(density_cps, lo, hi),
            )
            fold.fold_segment(bw, bW, rows)

    sums = ClassSums(q, x_max, cps, s_omega, s_big)
    if density_chi is None:
        return sums, None

    h_by_x = {x: (hw, hW) for x, hw, hW in fold.trace}
    h_w, h_W = h_by_x[x_max]
    trace = tuple((x, _delta(h_by_x[x][0], x), _delta(h_by_x[x][1], x)) for x in cps)
    dens = DensityTrace(
        q=q,
        chi_index=density_chi.index,
        x_max=x_max,
        h_omega=h_w,
        h_big_omega=h_W,
        delta_omega=_delta(h_w, x_max),
        delta_big_omega=_delta(h_W, x_max),
        trace=trace,
        psi_omega_final=psi_w,
        psi_big_omega_final=psi_W,
    )
    return sums, dens


def _empty_trace(cfg: SieveConfig, chi: DirichletCharacter) -> DensityTrace:
    return DensityTrace(
        q=cfg.q,
        chi_index=chi.index,
        x_max=0,
        h_omega=0.0,
        h_big_omega=0.0,
        delta_omega=0.0,
        delta_big_omega=0.0,
        trace=(),
        psi_omega_final=0,
        psi_big_omega_final=0,
    )


def factor_counts(x_max: int, segment_size: int = DEFAULT_SEGMENT) -> tuple[np.ndarray, np.ndarray]:
    """(omega(n), Omega(n)) as int8 arrays indexed by n for 0 <= n <= x_max.

    Same segmented algorithm as the class-sum pass; n = 0 and n = 1 count 0.
    """
    if x_max < 0 or x_max > MAX_X:
        raise ValueError("x_max out of range")
    primes = _primes_upto(math.isqrt(x_max)) if x_max >= 4 else []
    omega = np.zeros(x_max + 1, dtype=np.int8)
    bomega = np.zeros(x_max + 1, dtype=np.int8)
    step = max(2, segment_size)
    for lo in range(0, x_max + 1, step):
        hi = min(lo + step, x_max + 1)
        w, b = _sieve_segment(lo, hi, primes)
        omega[lo:hi] = w
        bomega[lo:hi] = b
    return omega, bomega


def sieve_run(cfg: SieveConfig) -> ClassSums:
    """Run the sieve and return exact per-class sums at every checkpoint."""
    return _execute(cfg, None)[0]


def density_scan(cfg: SieveConfig, chi: DirichletCharacter) -> DensityTrace:
    """Sign-bias measurement for a real non-principal character."""
    return _execute(cfg, chi)[1]


def combined_run(
    cfg: SieveConfig, chi: DirichletCharacter | None = None
) -> tuple[ClassSums, DensityTrace | None]:
    """Class sums plus (optionally) the density scan, in a single sieve pass."""
    return _execute(cfg, chi)


def _twist_block(
    rows: np.ndarray, chi: DirichletCharacter, roots: dict[int, list[complex]]
) -> np.ndarray:
    """psi(chi) = sum_a chi(a) rows[:, a] for every row of int64 class sums.

    The exact exponent counts acc[:, e] (the sum over units a with
    e(a) = e) come from one `reduceat` over the unit columns sorted by
    exponent; chi maps the units onto all d-th roots of unity, so every
    exponent below d starts a run.  Real characters stay exact integers;
    otherwise psi is the e-ascending left fold of acc[:, e] * exp(2 pi i
    e / d).  The roots come from the scalar `_root_of_unity` (`np.cos` may
    differ in the last bit), built once per order d into `roots`.
    """
    if chi.modulus != rows.shape[1]:
        raise ValueError(f"character modulus {chi.modulus} does not match sums q={rows.shape[1]}")
    d = chi.order
    exps = chi.value_exponents
    units = np.flatnonzero(exps >= 0)
    by_exp = units[np.argsort(exps[units])]
    starts = np.flatnonzero(np.diff(exps[by_exp], prepend=-1))
    acc = np.add.reduceat(rows[:, by_exp], starts, axis=1)  # column e: exponent e
    if chi.is_real:
        return (acc[:, 0] - acc[:, 1] if d == 2 else acc[:, 0]).astype(np.complex128)
    if d not in roots:
        roots[d] = [_root_of_unity(e, d) for e in range(d)]
    psi = np.zeros(len(rows), dtype=np.complex128)
    for e, root in enumerate(roots[d]):
        psi += acc[:, e] * root
    return psi


def twist(sums: ClassSums, chi: DirichletCharacter, x: int) -> tuple[complex, complex]:
    """psi_f(x, chi) = sum_a chi(a) S_f(x; a) for f = omega and Omega.

    Integer arithmetic up to the final root-of-unity combination; for real
    characters the results are exact integers.  The one-checkpoint case of
    the batched routine behind `write_twists_csv`.
    """
    k = sums.row(x)
    pw, pW = _twist_block(np.stack([sums.omega[k], sums.big_omega[k]]), chi, {}).tolist()
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
    """One row per (checkpoint, character), checkpoint-major; every psi of a
    character comes from one `_twist_block` over all checkpoints."""
    n = len(sums.checkpoints)
    both = np.concatenate([sums.omega, sums.big_omega])
    roots: dict[int, list[complex]] = {}
    by_chi = []  # per character: its row at every checkpoint
    for chi in chis:
        psi = _twist_block(both, chi, roots)
        by_chi.append(
            [
                f"{x},{sums.q},{chi.index},{fmt_float(rw)},{fmt_float(iw)},{fmt_float(rb)},{fmt_float(ib)}"
                for x, rw, iw, rb, ib in zip(
                    sums.checkpoints,
                    psi.real[:n].tolist(), psi.imag[:n].tolist(),
                    psi.real[n:].tolist(), psi.imag[n:].tolist(),
                )
            ]
        )
    rows = (chi_rows[k] for k in range(n) for chi_rows in by_chi)
    header = "x,q,chi_index,re_psi_omega,im_psi_omega,re_psi_Omega,im_psi_Omega"
    write_csv(path, header, rows, comment)
