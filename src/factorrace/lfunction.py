"""Numerical Dirichlet L-function kernel.

Everything reduces to the Hurwitz zeta function via

    L(s, chi) = q^{-s} * sum_{a=1}^{q} chi(a) * zeta(s, a/q),

with zeta(s, a) evaluated by the Euler-Maclaurin truncation

    zeta(s, a) ~ sum_{k=0}^{N-1} (k+a)^{-s}
               + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
               + sum_{j=1}^{M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1},

where (s)_m is the rising factorial.  The s-derivative is the exact
term-wise derivative of the same truncation (a -log(k+a) factor per power,
plus the product rule on the rising factorial), so L'(s, chi) stays
accurate at points where L itself nearly vanishes -- finite differences
would lose most digits there.

M = 20 Bernoulli terms, tabulated exactly as rationals before the single
conversion to float.  N is the smallest head length whose explicit bound
on the remainder,

    |R| <= 2 zeta(2M+1) |(s)_{2M+1}| / ((2 pi)^{2M+1} (sigma+2M) N^{sigma+2M}),

times D = max(1, sum_{i<=2M} 1/|s+i| + log(N+1) + 1/(sigma+2M)) so that it
also bounds the remainder of the derivative, is at most 1e-20 (sigma =
Re s; the bound uses N + a >= N, so it holds for every a in (0, 1]).  The
head sum's first term a^{-sigma} is at least 1, so 1e-20 sits four
decades under its unit roundoff: the truncation never shows.  N is about
|Im s|/2 at large height (19 at |Im s| = 30, 101 at 200, 5321 at 9999.3)
and 8 near the real axis; the former fixed rule, ceil(1.3|Im s|) + 10
with M = 12, took 49, 270 and 13010.  Design ceiling |Im s| <= 1e4, where
rounding in (Im s) * log(k + a) sets the error: 3e-12 to 4e-12 relative
at q = 4, t = 9999.3 against 30-digit mpmath (2.7e-12 with the former rule).

One kernel evaluates a whole (shift x term) block: a row per shift a,
with the N head terms and the Euler-Maclaurin point N + a as columns, in
whole-array numpy operations (binary64, numpy's pairwise summation along
each row).  The rising factorials depend on s alone and are formed once
per call, and the tail is an elementwise product summed along each row,
so every row's bits depend on that row alone.
`hurwitz_zeta` is its one-row case and `l_value` the chi(a)-weighted sum
of its rows, so q = 1 reproduces `hurwitz_zeta` bit for bit.  The unit
shifts a/q with their weights chi(a), and the root-number phase of the
rotated function, are computed once per character (q, index) and cached.

`_loggamma` shifts z up to |z| >= 15 through one running product, sums
Stirling's series with B_2..B_16 (first omitted term < 1e-20) by Horner's
rule in 1/z^2 and subtracts the product's log: log Gamma modulo 2 pi i,
all the callers need, as they use exp(log Gamma) and exp(i Im log Gamma).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, _root_of_unity, root_number

__all__ = [
    "LValue",
    "hurwitz_zeta",
    "l_value",
    "completed_lambda",
    "rotated_z",
    "rotated_z_complex",
]

MAX_IM = 1.0e4
_BERNOULLI_ORDER = 20  # M
_REMAINDER_TARGET = 1e-20  # bound on the Euler-Maclaurin remainder of zeta(s, a) and its derivative


def _bernoulli_even_floats(count: int) -> tuple[float, ...]:
    """B_2, B_4, ..., B_{2*count} computed exactly, then rounded once to float."""
    n_max = 2 * count
    b = [Fraction(0)] * (n_max + 1)  # B_m = 0 for odd m > 1
    b[0], b[1] = Fraction(1), Fraction(-1, 2)
    for m in range(2, n_max + 1, 2):
        b[m] = -sum(math.comb(m + 1, k) * b[k] for k in range(m) if b[k]) / (m + 1)
    return tuple(float(b[2 * j]) for j in range(1, count + 1))


_B_EVEN = _bernoulli_even_floats(_BERNOULLI_ORDER)
# coefficient B_{2j} / (2j)! for j = 1..M
_EM_COEFF = tuple(b / math.factorial(2 * j) for j, b in enumerate(_B_EVEN, start=1))
# exponents e of z^e in the tail terms of _hurwitz_block: 1, 0, then -(2j - 1)
_TAIL_EXPONENTS = np.array([1.0, 0.0] + [-(2.0 * j - 1) for j in range(1, _BERNOULLI_ORDER + 1)])
# log of 2 zeta(2M+1) / (2 pi)^{2M+1}, the constant of the remainder bound,
# with zeta(2M+1) < 1 + 2^{-2M}
_LOG_REMAINDER_CONST = math.log(2 + 2.0 ** (1 - 2 * _BERNOULLI_ORDER)) - math.log(2 * math.pi) * (
    2 * _BERNOULLI_ORDER + 1
)
# cap on rows * terms of one block, so memory stays bounded at large q * |Im s|
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class LValue:
    value: complex
    derivative: complex


def hurwitz_zeta(s: complex, a: float) -> tuple[complex, complex]:
    """(zeta(s, a), d/ds zeta(s, a)) for Re s > 0, s != 1, a in (0, 1]."""
    if not 0 < a <= 1:
        raise ValueError(f"require a in (0, 1], got {a}")
    val, der = _hurwitz_block(complex(s), np.array([float(a)]))
    return complex(val[0]), complex(der[0])


def _head_length(s: complex, rising: float) -> int:
    """Smallest N >= 1 whose remainder bound (module docstring) is at most
    _REMAINDER_TARGET, given rising = |(s)_{2M+1}|.

    The bound falls as N^{-alpha}, alpha = Re s + 2M, while D grows only
    with log(N + 1), so N = ceil((bound at N = 1 times D(N) / target)^{1/alpha})
    is iterated upward from N = 1; it stops at the first N that meets the
    bound, within a few steps.  D takes sum_{i<=2M} 1/|s+i| <= (2M+1)/|s|,
    as |s+i| >= |s| for Re s > 0.
    """
    alpha = s.real + 2 * _BERNOULLI_ORDER
    log_c = _LOG_REMAINDER_CONST + math.log(rising / (alpha * _REMAINDER_TARGET))
    d = (2 * _BERNOULLI_ORDER + 1) / abs(s) + 1 / alpha
    n = 1
    while True:
        need = math.ceil(math.exp((log_c + math.log(max(1.0, d + math.log(n + 1)))) / alpha))
        if need <= n:
            return n
        n = need


def _truncation(s: complex) -> tuple[int, np.ndarray]:
    """The head length N and the Euler-Maclaurin tail coefficients at s.

    Every tail term is z^{-s} * c * z^e with z = N + a and c depending on s
    alone, so the coefficients c of the powers z^e, e in _TAIL_EXPONENTS,
    are formed once per call: row 0 for the value, row 1 for the
    s-derivative.  The rising factorial they run through gives the
    |(s)_{2M+1}| of the remainder bound.
    """
    sm1 = s - 1
    # Terms: (N+a)^{1-s}/(s-1), (N+a)^{-s}/2, then
    # B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1} with the rising factorial (s)_m,
    # for j = 1..M.
    val, der = [1 / sm1, 0.5], [-1 / (sm1 * sm1), 0.0]
    p, dp = s, 1.0  # (s)_{2j-1} and its s-derivative, from j = 1
    for j, c in enumerate(_EM_COEFF):
        if j:  # two more factors: (s + 2j - 1)(s + 2j) = g, with g' = the sum of the two
            f = s + (2 * j - 1)
            g = f * (f + 1)
            dp = dp * g + p * (f + f + 1)
            p = p * g
        val.append(c * p)
        der.append(c * dp)
    f = s + (2 * _BERNOULLI_ORDER - 1)
    return _head_length(s, abs(p * f * (f + 1))), np.array([val, der])


def _hurwitz_block(s: complex, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row a of `shifts`: zeta(s, a) and its s-derivative.

    The (row x term) block is evaluated in whole-array operations, at most
    _BLOCK_ELEMENTS entries at a time.  Every sum runs along one row, so a
    row's bits depend neither on the block cap nor on the other shifts.
    """
    if s == 1:
        raise ValueError("zeta(s, a) has a pole at s = 1")
    if s.real <= 0:
        raise ValueError(f"require Re s > 0, got {s}")
    if abs(s.imag) > MAX_IM:
        raise ValueError(f"|Im s| exceeds design ceiling {MAX_IM}")

    n, coef = _truncation(s)
    cols = np.arange(n + 1, dtype=np.float64)  # column n is the Euler-Maclaurin point z
    val = np.empty(len(shifts), dtype=np.complex128)
    der = np.empty_like(val)
    step = max(1, _BLOCK_ELEMENTS // (n + 1))
    for lo in range(0, len(shifts), step):
        rows = slice(lo, lo + step)
        logk = np.log(shifts[rows, None] + cols)
        terms = np.exp(-s * logk)
        lz = logk[:, n]
        zp = terms[:, n]  # z^{-s}
        powers = (shifts[rows, None, None] + n) ** _TAIL_EXPONENTS
        tv, td = (powers * coef).sum(axis=2).T  # brackets of the tail value and of its s-derivative
        val[rows] = terms[:, :n].sum(axis=1) + zp * tv
        der[rows] = zp * (td - lz * tv) - (logk[:, :n] * terms[:, :n]).sum(axis=1)
    return val, der


@lru_cache(maxsize=None)
def _shifts_and_weights(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    """Shifts a/q over the units a in [1, q] and the weights chi(a), cached per (q, index)."""
    q = chi.modulus
    units = [a for a in range(1, q + 1) if chi.value_exponents[a % q] >= 0]
    shifts = np.array([a / q for a in units])
    weights = np.array([_root_of_unity(int(chi.value_exponents[a % q]), chi.order) for a in units])
    shifts.setflags(write=False)
    weights.setflags(write=False)
    return shifts, weights


def l_value(chi: DirichletCharacter, s: complex) -> LValue:
    """L(s, chi) and L'(s, chi) via the Hurwitz-zeta decomposition.

    For q = 1 this collapses to the Riemann zeta path, identically.
    """
    s = complex(s)
    if chi.is_principal and s == 1:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    shifts, weights = _shifts_and_weights(chi)
    val, der = _hurwitz_block(s, shifts)
    lq = math.log(chi.modulus)
    qs = cmath.exp(-s * lq)
    value = qs * complex(weights @ val)
    derivative = -lq * value + qs * complex(weights @ der)
    return LValue(value=value, derivative=derivative)


def _loggamma(z: complex) -> complex:
    """log Gamma(z) modulo 2*pi*i for Re z > 0, by Stirling's series after an upward shift."""
    prod = 1 + 0j
    while abs(z) < 15:
        prod *= z
        z += 1
    w = 1 / (z * z)
    series = 0.0
    for k in range(8, 0, -1):
        series = series * w + _B_EVEN[k - 1] / (2 * k * (2 * k - 1))
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series / z - cmath.log(prod)


def completed_lambda(chi: DirichletCharacter, s: complex) -> complex:
    """Lambda(s, chi) = (q/pi)^{(s+parity)/2} Gamma((s+parity)/2) L(s, chi), chi primitive."""
    if not chi.is_primitive:
        raise ValueError("completed L-function requires a primitive character")
    s = complex(s)
    g = (s + chi.parity) / 2
    lv = l_value(chi, s)
    pref = cmath.exp(g * math.log(chi.modulus / math.pi) + _loggamma(g))
    return pref * lv.value


@lru_cache(maxsize=None)
def _root_phase(chi: DirichletCharacter) -> complex:
    """epsilon^{-1/2} with the principal square root, cached per (q, index)."""
    return 1 / cmath.sqrt(root_number(chi))


def _rotation_phase(chi: DirichletCharacter, t: float) -> complex:
    """Unimodular factor making the rotated critical-line function real.

    The branch of epsilon^{-1/2} is the principal square root, fixed per
    character, so the result is continuous in t.
    """
    g = complex(0.5 + chi.parity, t) / 2
    theta = (t / 2) * math.log(chi.modulus / math.pi) + _loggamma(g).imag
    return _root_phase(chi) * cmath.exp(1j * theta)


def rotated_z_complex(chi: DirichletCharacter, t: float) -> complex:
    """Full complex rotated value; its imaginary part is a numerical residual."""
    if not chi.is_primitive:
        raise ValueError("rotated Z-function requires a primitive character")
    lv = l_value(chi, complex(0.5, t))
    return _rotation_phase(chi, t) * lv.value


def rotated_z(chi: DirichletCharacter, t: float) -> float:
    """Real-valued rotation of L(1/2 + it, chi); vanishes exactly at the zeros."""
    return rotated_z_complex(chi, t).real
