"""Independent reference computations used to validate the library.

These deliberately avoid the code paths they check: factor counts come from
plain trial division and from the former cofactor sieve kernel, harmonic
sign-set measures from the former whole-segment sign fold, L-values
from accelerated alternating series, zero locations from a dumb fine-grid
bisection, and the Mertens-type constants from direct prime sums.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


def trial_factor_counts(n: int) -> tuple[int, int]:
    """(omega(n), Omega(n)) by trial division."""
    if n <= 1:
        return 0, 0
    w = big = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            w += 1
            while m % p == 0:
                m //= p
                big += 1
        p += 1 if p == 2 else 2
    if m > 1:
        w += 1
        big += 1
    return w, big


def trial_factor_table(x_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector of trial-division counts for 0 <= n <= x_max."""
    omega = np.zeros(x_max + 1, dtype=np.int64)
    bomega = np.zeros(x_max + 1, dtype=np.int64)
    for n in range(2, x_max + 1):
        w, b = trial_factor_counts(n)
        omega[n] = w
        bomega[n] = b
    return omega, bomega


def cofactor_sieve_segment(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(omega, Omega) as int8 arrays for n in [lo, hi), the cofactor way.

    The segment kernel `factorrace.sieve` used before its log-sum test:
    every prime p <= sqrt(x_max) bumps omega on its multiples and Omega
    once per power level while it is peeled from an int64 cofactor, and a
    cofactor still > 1 is the single prime factor > sqrt(x_max).
    """
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


def sign_fold_reference(self, lo: int, counts: np.ndarray) -> None:
    """`factorrace.sieve._SignFold.add` as it was before its block-extreme
    test: call it as `sign_fold_reference(fold, lo, counts)`, counts the
    (omega, Omega) rows of the segment.

    Per kind it forms the whole segment's int64 running SIGN[f] * psi_f,
    masks every 1/n with `run > 0` and pairwise-sums the masked terms per
    BLOCK of absolute n, Neumaier-adding the block sums.
    """
    from bisect import bisect_left

    from factorrace.sieve import BLOCK, _neumaier

    n = counts.shape[1]
    marks = self.marks[bisect_left(self.marks, lo) : bisect_left(self.marks, lo + n)]
    inv = np.arange(lo, lo + n, dtype=np.float64)
    if lo == 0:
        inv[0] = np.inf  # n = 0 adds nothing
    np.divide(1.0, inv, out=inv)
    run = np.empty(n, dtype=np.int64)  # reused by both f: fewer fresh pages per segment
    terms = np.empty(n)
    nfull = n // BLOCK
    for f, (signs, values) in enumerate(zip(self.signs, counts)):
        sgn = np.tile(np.roll(signs, -lo), n // len(signs) + 1)[:n]
        np.multiply(sgn, values, out=run)
        np.cumsum(run, out=run)
        run += self.run[f]
        self.run[f] = int(run[-1])
        np.multiply(inv, run > 0, out=terms)
        block_sums = terms[: nfull * BLOCK].reshape(nfull, BLOCK).sum(axis=1).tolist()
        if nfull * BLOCK < n:
            block_sums.append(float(terms[nfull * BLOCK :].sum()))
        s, c = self.acc[f]
        k = 0
        for b, block_sum in enumerate(block_sums):
            while k < len(marks) and marks[k] < lo + (b + 1) * BLOCK:
                self.h[marks[k]][f] = (s + c) + float(terms[b * BLOCK : marks[k] - lo + 1].sum())
                k += 1
            s, c = _neumaier(s, c, block_sum)
        self.acc[f] = (s, c)


def alternating_sum(term, n: int = 50) -> float:
    """sum_{k>=0} (-1)^k term(k) by Cohen-Rodriguez Villegas-Zagier acceleration."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * term(k)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def zeta_eta(s: float) -> float:
    """Riemann zeta via the eta (alternating) series, real s > 0, s != 1."""
    eta = alternating_sum(lambda k: (k + 1.0) ** (-s))
    return eta / (1.0 - 2.0 ** (1.0 - s))


def zeta_prime_eta(s: float) -> float:
    """zeta'(s) from the term-wise derivative of the eta series."""
    eta_prime = alternating_sum(lambda k: -math.log(k + 1.0) * (k + 1.0) ** (-s) if k else 0.0)
    scale = 1.0 - 2.0 ** (1.0 - s)
    dscale = math.log(2.0) * 2.0 ** (1.0 - s)
    return (eta_prime - dscale * zeta_eta(s)) / scale


def beta_chi4(s: float) -> float:
    """L(s, chi_-4) = sum_{k>=0} (-1)^k (2k+1)^{-s} (Dirichlet beta)."""
    return alternating_sum(lambda k: (2.0 * k + 1.0) ** (-s))


def beta_prime_chi4(s: float) -> float:
    """L'(s, chi_-4) from the term-wise derivative of the beta series."""
    return -alternating_sum(lambda k: math.log(2.0 * k + 1.0) * (2.0 * k + 1.0) ** (-s))


def bisect_sign_change(f, lo: float, hi: float, step: float = 1e-4) -> float | None:
    """First zero of f in [lo, hi]: fine grid, then plain bisection."""
    t_prev = lo
    f_prev = f(lo)
    t = lo
    while t < hi:
        t = min(hi, t + step)
        ft = f(t)
        if f_prev == 0.0:
            return t_prev
        if (f_prev < 0) != (ft < 0):
            a, b, fa = t_prev, t, f_prev
            for _ in range(60):
                m = 0.5 * (a + b)
                if m <= a or m >= b:
                    break
                fm = f(m)
                if fm == 0.0:
                    return m
                if (fa < 0) != (fm < 0):
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
        t_prev, f_prev = t, ft
    return None


@cache
def unit_roots(d: int) -> tuple[complex, ...]:
    """exp(2 pi i e / d) for e < d, each from the scalar `_root_of_unity`."""
    from factorrace.characters import _root_of_unity

    return tuple(_root_of_unity(e, d) for e in range(d))


def twist_reference(sums, chi, x: int) -> tuple[complex, complex]:
    """psi_f(x, chi) for one checkpoint and one character, the unbatched way.

    Exponent counts by `np.add.at`, then the e-ascending Python `sum` of
    count * root over the nonzero counts; real characters stay integers.
    On an interpreter whose `sum` compensates complex additions this can
    differ from a plain left fold in the last bit.
    """
    if chi.modulus != sums.q:
        raise ValueError(f"character modulus {chi.modulus} does not match sums q={sums.q}")
    k = sums.row(x)
    d = chi.order
    exps = chi.value_exponents
    units = exps >= 0
    acc = np.zeros((len(sums.counts), d), dtype=np.int64)  # exponent counts per kind
    np.add.at(acc, (slice(None), exps[units]), sums.counts[:, k, units])
    if chi.is_real:
        return tuple(complex(int(a[0]) - (int(a[1]) if d == 2 else 0), 0.0) for a in acc)
    roots = unit_roots(d)
    return tuple(complex(sum(int(a[e]) * roots[e] for e in range(d) if a[e])) for a in acc)


def prime_harmonic_sums(limit: int) -> tuple[float, float]:
    """(sum_{p<=limit} 1/p, sum_{p<=limit} 1/(p(p-1))) from an odd-only sieve."""
    if limit < 2:
        return 0.0, 0.0
    half = (limit - 1) // 2  # index i represents the odd number 2i+1
    sieve = np.ones(half + 1, dtype=bool)
    sieve[0] = False  # 1 is not prime
    i = 1
    while True:
        p = 2 * i + 1
        if p * p > limit:
            break
        if sieve[i]:
            start = (p * p - 1) // 2
            sieve[start::p] = False
        i += 1
    odd_primes = 2.0 * np.flatnonzero(sieve) + 1.0
    inv = float(np.sum(1.0 / odd_primes)) + 0.5
    invsq = float(np.sum(1.0 / (odd_primes * (odd_primes - 1.0)))) + 0.5
    return inv, invsq


def mertens_constants(limit: int) -> tuple[float, float]:
    """Estimates of the linear-term constants in the Hardy-Ramanujan sums:
    A ~ sum_{p<=limit} 1/p - log log limit, B = A + sum_p 1/(p(p-1))."""
    inv, invsq = prime_harmonic_sums(limit)
    a = inv - math.log(math.log(limit))
    return a, a + invsq


def mp_dirichlet_l(s: complex, characters, dps: int = 20) -> list[tuple[complex, complex]]:
    """(L(s, chi), L'(s, chi)) for each character, by mpmath at `dps` digits.

    The sum is the one `mpmath.dirichlet` forms, L = q^{-s} sum_p chi(p)
    zeta(s, p/q) and L' = q^{-s} sum_p chi(p) (zeta'(s, p/q) - log q
    zeta(s, p/q)), but each Hurwitz value is computed once and shared by
    every character of the same modulus and by L and L'.
    """
    import mpmath

    q = characters[0].modulus
    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        values = [
            [0 if e < 0 else mpmath.expjpi(mpmath.mpf(2 * int(e)) / chi.order) for e in chi.value_exponents]
            for chi in characters
        ]
        sums = [[mpmath.mpc(0), mpmath.mpc(0)] for _ in characters]
        for p in range(1, q + 1):
            if all(v[p % q] == 0 for v in values):
                continue
            z = mpmath.zeta(s, (p, q))
            dz = mpmath.zeta(s, (p, q), 1) - z * mpmath.log(q)
            for v, acc in zip(values, sums):
                acc[0] += v[p % q] * z
                acc[1] += v[p % q] * dz
        qs = mpmath.power(q, s)
        return [(complex(val / qs), complex(der / qs)) for val, der in sums]
