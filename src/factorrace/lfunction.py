"""Numerical Dirichlet L-function kernel.

L(s, chi) is built on the Euler-Maclaurin truncation of the Hurwitz zeta
function

    zeta(s, a) ~ sum_{k=0}^{N-1} (k+a)^{-s} + (N+a)^{-s} T(N+a, s),
    T(z, s) = z/(s-1) + 1/2 + sum_{j=1}^{M} B_{2j}/(2j)! * (s)_{2j-1} * z^{1-2j},

where (s)_m is the rising factorial.  With L(s, chi) = q^{-s} sum_{a=1}^{q}
chi(a) zeta(s, a/q) and (k + a/q)^{-s} = q^{s} (kq + a)^{-s}, the factors
q^{-s} and q^{s} cancel and the head is a Dirichlet series:

    L(s, chi) ~ sum_{m <= Nq} chi(m) m^{-s}
              + sum_{a=1}^{q} chi(a) (Nq+a)^{-s} T(N + a/q, s).

The s-derivative is the exact term-wise derivative of the same truncation,
-sum chi(m) log(m) m^{-s} for the head and (Nq+a)^{-s} (T' - log(Nq+a) T)
for each tail, T' = dT/ds at fixed z (the product rule on the rising
factorial), so L'(s, chi) stays accurate at points where L itself nearly
vanishes -- finite differences would lose most digits there.

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
and 8 near the real axis.  Design ceiling |Im s| <= 1e4, where
rounding in (Im s) * log(m) sets the error: 4.8e-12 (L) and 1.7e-12 (L')
relative at q = 4, t = 9999.3 against 30-digit mpmath.

The (N+1) q values m^{-s}, m <= (N+1) q, come from one factor ladder per
process (`_FactorLadder`), as n^{-s} is completely multiplicative: a
complex exponential exp(-s log p) at each prime p, then every composite
as the product of two smaller entries, level by level -- a balanced split
m = d * e takes ceil(log2 Omega(m)) levels.  So an evaluation at q = 163,
t = 30 takes 461 exponentials.  The ladder is built with numpy, without
a Python loop over m.  A zero scan builds it once, for the head at its
height T (`_reserve_height`); an evaluation that needs more grows it to
the larger of the size asked and twice its capacity.  An evaluation reads
the prefix m <= (N+1) q of each level, so neither its work nor its bits
depend on the capacity.  The ladder keeps log m for every m and three
int64 positions per composite, about 31 bytes per entry: 15.4 MiB at
q = 1000, t = 1e3 (the zero-scan ceiling, 515,000 entries) and 25.9 MiB
at q = 163, t = 9999.3 (867,486), up to twice that after growth; its
build holds 32 bytes per entry more while it runs, and an evaluation
allocates 32 bytes per m for m^{-s} and log(m) m^{-s}.

`l_value` lays these out as N + 1 rows of q, row k holding m = kq + a for
a = 1..q: rows 0..N-1 are the head, row N the tail points Nq + a, and
the weights chi(a) (0 off the units) are one row, so both sums are one
matrix-vector product.  The tail coefficients depend on s alone and are
formed once per call; the real powers z^e = exp(e log z) depend on N
and q alone (`_tail_powers`), and the two meet as one real product.
The character mod 1 gives zeta(s) and zeta'(s).  The weights chi(a) are
the last q entries of the character's cached `characters.value_row`.

`_loggamma` shifts z up to |z| >= 15 through one running product, sums
Stirling's series with B_2..B_16 (first omitted term < 1e-20) by Horner's
rule in 1/z^2 and subtracts the product's log: log Gamma modulo 2 pi i,
all the callers need, as they use exp(log Gamma) and exp(i Im log Gamma).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, root_number, value_row

__all__ = [
    "LValue",
    "l_value",
    "completed_lambda",
]

MAX_IM = 1.0e4
_BERNOULLI_ORDER = 20  # M
_REMAINDER_TARGET = 1e-20  # bound on the Euler-Maclaurin remainder of zeta(s, a) and its derivative
_TAIL_POWERS_KEPT = 2  # (N, q) kept by `_tail_powers`; a scan meets each N in one run


def _bernoulli_even_floats(count: int) -> tuple[float, ...]:
    """B_2, B_4, ..., B_{2*count} computed exactly, as reduced integer
    fractions, then rounded once to float (int / int rounds correctly)."""
    n_max = 2 * count
    b = [(0, 1)] * (n_max + 1)  # (numerator, denominator); B_m = 0 for odd m > 1
    b[0], b[1] = (1, 1), (-1, 2)
    for m in range(2, n_max + 1, 2):
        num, den = 0, 1
        for k in range(m):
            if b[k][0]:
                num, den = num * b[k][1] + math.comb(m + 1, k) * b[k][0] * den, den * b[k][1]
                g = math.gcd(num, den)
                num, den = num // g, den // g
        b[m] = (-num, den * (m + 1))
    return tuple(num / den for num, den in b[2::2])


_B_EVEN = _bernoulli_even_floats(_BERNOULLI_ORDER)
# coefficient B_{2j} / (2j)! for j = 1..M
_EM_COEFF = tuple(b / math.factorial(2 * j) for j, b in enumerate(_B_EVEN, start=1))
# exponents e of z^e in the tail terms of the truncation: 1, 0, then -(2j - 1)
_TAIL_EXPONENTS = np.array([1.0, 0.0] + [-(2.0 * j - 1) for j in range(1, _BERNOULLI_ORDER + 1)])
# log of 2 zeta(2M+1) / (2 pi)^{2M+1}, the constant of the remainder bound,
# with zeta(2M+1) < 1 + 2^{-2M}
_LOG_REMAINDER_CONST = math.log(2 + 2.0 ** (1 - 2 * _BERNOULLI_ORDER)) - math.log(2 * math.pi) * (
    2 * _BERNOULLI_ORDER + 1
)


@dataclass(frozen=True)
class LValue:
    value: complex
    derivative: complex


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
    are formed once per call: column 0 for the value, column 1 for the
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
    coef = np.empty((len(val), 2), dtype=np.complex128)
    coef[:, 0], coef[:, 1] = val, der
    return _head_length(s, abs(p * f * (f + 1))), coef


@lru_cache(maxsize=_TAIL_POWERS_KEPT)
def _tail_powers(n: int, q: int) -> np.ndarray:
    """The real powers z^e = exp(e log z), e in _TAIL_EXPONENTS, one row per
    tail point z = n + a/q, a = 1..q, of `l_value`, kept for a few (N, q):
    a zero scan meets each N in one ascending run."""
    powers = np.exp(np.log(n + np.arange(1, q + 1) / q)[:, None] * _TAIL_EXPONENTS)
    powers.setflags(write=False)
    return powers


class _FactorLadder:
    """m^{-s} for m = 1..size, with complex exponentials at the primes alone.

    Built once for every m up to its capacity: the size reserved
    (`reserve`, called by a zero scan for its largest head), or else
    grown to the larger of the size asked and twice the capacity, so a
    process holds one ladder, at most twice the largest size asked.  Each
    entry's split depends on m alone, so no bit depends on the capacity.
    Level 0 is the primes; a composite m with Omega(m) prime factors sits
    on level ceil(log2 Omega(m)), as the product d * e of a divisor d with
    ceil(Omega/2) and e = m / d with floor(Omega/2) prime factors, both on
    lower levels.  Each level holds the positions m - 1 of its entries,
    ascending in m, and those of their factors d and e as one two-row
    array, so an evaluation of size L takes the prefix m <= L of each and
    its work is proportional to L, not to the capacity.
    """

    def __init__(self) -> None:
        self.capacity = 0  # built lazily, at the first evaluation

    def _build(self, capacity: int) -> None:
        m = np.arange(capacity + 1)
        spf = np.zeros(capacity + 1, dtype=np.intp)  # smallest prime factor
        for p in range(math.isqrt(capacity), 1, -1):  # a smaller p overwrites its multiples later
            spf[p * p :: p] = p
        prime = spf == 0
        spf[prime] = m[prime]  # the primes (and 0, 1) are their own smallest factor
        omega = np.zeros(capacity + 1, dtype=np.intp)  # Omega(m)
        half = np.ones(capacity + 1, dtype=np.intp)  # a divisor of m with floor(Omega(m)/2) prime factors
        lo = 2
        while lo <= capacity:  # [lo, 2 lo): m / spf(m) < lo is done
            hi = min(2 * lo, capacity + 1)
            p = spf[lo:hi]
            rest = m[lo:hi] // p
            omega[lo:hi] = omega[rest] + 1
            half[lo:hi] = half[rest] * np.where(omega[lo:hi] % 2, 1, p)
            lo = hi
        self.logs = np.log(np.arange(1, capacity + 1, dtype=np.float64))  # log m at position m - 1
        self.prime_positions = np.flatnonzero(omega == 1) - 1
        self.prime_logs = self.logs[self.prime_positions]
        self.levels = []
        top, largest = 1, omega.max()
        while top < largest:  # the level of top < Omega(m) <= 2 top
            at = np.flatnonzero((omega - 1) // top == 1)
            e = half[at]
            self.levels.append((at - 1, np.stack([at // e, e]) - 1))
            top *= 2
        self.capacity = capacity
        self._plans = {}

    def reserve(self, size: int) -> None:
        """Build for every m <= size now, unless the ladder holds them already."""
        if size > self.capacity:
            self._build(size)

    def _plan(self, size: int):
        """The primes and each level's prefix of m <= size, as views kept per
        size (about 1.3 kB each; a scan meets one size per head length)."""
        if size > self.capacity:
            self._build(max(size, 2 * self.capacity))
        plan = self._plans.get(size)
        if plan is None:
            k = self.prime_positions.searchsorted(size)
            steps = []
            for at, factors in self.levels:
                c = at.searchsorted(size)
                if not c:
                    break
                steps.append((at[:c], factors[:, :c]))
            plan = self._plans[size] = (self.prime_positions[:k], self.prime_logs[:k], steps)
        return plan

    def exponentials(self, size: int) -> int:
        """The number of complex exponentials an evaluation of this size takes."""
        return len(self._plan(size)[0])

    def fill(self, out: np.ndarray, s: complex) -> None:
        """out[m - 1] = m^{-s} for m = 1..len(out)."""
        primes, logs, steps = self._plan(len(out))
        out[0] = 1.0
        out[primes] = np.exp(-s * logs)
        for at, factors in steps:
            pair = out.take(factors)
            out[at] = pair[0] * pair[1]


_LADDER = _FactorLadder()


def _reserve_height(q: int, t_max: float) -> None:
    """Build the ladder for every `l_value` at modulus q on the critical
    line with |t| <= t_max, whose head length N is the largest there."""
    _LADDER.reserve((_truncation(complex(0.5, t_max))[0] + 1) * q)


def l_value(chi: DirichletCharacter, s: complex) -> LValue:
    """L(s, chi) and L'(s, chi) as a Dirichlet series head plus the
    Euler-Maclaurin tails (module docstring).

    The (N+1) q values m^{-s} form N + 1 rows of q: row k holds
    m = kq + a, a = 1..q, so the weights chi(a) are one row, the head is
    rows 0..N-1 and row N holds the tail points Nq + a.

    Requires Re s > 0, |Im s| <= MAX_IM and s != 1.  s = 1 is refused for
    every chi, not only the principal one: the tail term z^{1-s}/(s-1) is
    singular there, although L(1, chi) is finite for chi non-principal.
    """
    s = complex(s)
    if s == 1:
        raise ValueError("s = 1: the tail term z^{1-s}/(s-1) is singular there for every chi")
    if s.real <= 0:
        raise ValueError(f"require Re s > 0, got {s}")
    if abs(s.imag) > MAX_IM:
        raise ValueError(f"|Im s| exceeds design ceiling {MAX_IM}")
    n, coef = _truncation(s)
    q = chi.modulus
    size = (n + 1) * q
    table = np.empty((2, size), dtype=np.complex128)  # m^{-s} and log(m) m^{-s}
    _LADDER.fill(table[0], s)
    np.multiply(_LADDER.logs[:size], table[0], out=table[1])
    rows = table.reshape(2, n + 1, q)
    # the tail brackets at each point z: z^{-s} tv is the tail of the value and
    # z^{-s} (td - log(z) tv) that of the derivative; the real powers meet the
    # complex coefficients as one real product with their (re, im) pairs
    tv, td = np.dot(_tail_powers(n, q), coef.view(np.float64)).view(np.complex128).T
    rows[1, n] = rows[1, n] * tv - rows[0, n] * td
    rows[0, n] *= tv
    value, derivative = (rows @ value_row(chi)[1:]).sum(axis=1)
    return LValue(value=complex(value), derivative=-complex(derivative))


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
