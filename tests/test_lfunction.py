import cmath
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from factorrace import lfunction
from factorrace.characters import character, conjugate_character, enumerate_characters, root_number
from factorrace.lfunction import (
    _FactorLadder,
    _head_length,
    _loggamma,
    _rotation_phase,
    _truncation,
    completed_lambda,
    l_value,
)
from factorrace.zeros import rotated_z
from oracles import beta_chi4, beta_prime_chi4, mp_dirichlet_l, zeta_eta, zeta_prime_eta

# reference digits, frozen from the alternating-series oracles
ZETA_HALF = -1.4603545088095868
ZETA_PRIME_2 = -0.9375482543158438
L_CHI4_HALF = 0.6676914571896092
CATALAN = 0.9159655941772190


def _zeta(s):
    """(zeta(s), zeta'(s)) from `l_value` of the character mod 1."""
    lv = l_value(enumerate_characters(1)[0], s)
    return lv.value, lv.derivative


def test_bernoulli_numbers_are_the_exact_ones_rounded():
    """The Euler-Maclaurin coefficients use B_2..B_40 as the exact rationals
    (here from `fractions`, which the package does not import) rounded once."""
    from fractions import Fraction

    b = [Fraction(0)] * 41
    b[0], b[1] = Fraction(1), Fraction(-1, 2)
    for m in range(2, 41, 2):
        b[m] = -sum(math.comb(m + 1, k) * b[k] for k in range(m) if b[k]) / (m + 1)
    assert lfunction._B_EVEN == tuple(float(b[2 * j]) for j in range(1, 21))
    assert lfunction._B_EVEN[:3] == (1 / 6, -1 / 30, 1 / 42)


def test_l_mod1_is_zeta2():
    z, _ = _zeta(2.0)
    assert abs(z - math.pi**2 / 6) < 1e-12
    assert abs(z.imag) == 0.0


def test_zeta_half_against_oracle():
    z, _ = _zeta(0.5)
    assert abs(z - zeta_eta(0.5)) < 1e-10
    assert abs(z - ZETA_HALF) < 1e-10


def test_zeta_derivative_at_2():
    _, dz = _zeta(2.0)
    assert abs(dz - ZETA_PRIME_2) < 1e-9
    assert abs(dz - zeta_prime_eta(2.0)) < 1e-9
    # central finite difference of the oracle series agrees too
    h = 1e-4
    fd = (zeta_eta(2.0 + h) - zeta_eta(2.0 - h)) / (2 * h)
    assert abs(dz - fd) < 5e-8


def test_l_domain_errors():
    with pytest.raises(ValueError):
        _zeta(1.0)  # pole
    with pytest.raises(ValueError):
        _zeta(-0.5)
    with pytest.raises(ValueError):
        _zeta(complex(0.5, 2e4))


def test_l_chi4_at_half(chi4):
    lv = l_value(chi4, 0.5)
    assert abs(lv.value - beta_chi4(0.5)) < 1e-8
    assert abs(lv.value - L_CHI4_HALF) < 1e-8
    assert lv.value.real > 0


def test_l_chi4_at_2_catalan(chi4):
    lv = l_value(chi4, 2.0)
    assert abs(lv.value - beta_chi4(2.0)) < 1e-10
    assert abs(lv.value - CATALAN) < 1e-10


def test_l_prime_chi4_at_half_against_series_oracle(chi4):
    # the secular coefficient 2L(1/2) - L'(1/2) depends on this derivative
    lv = l_value(chi4, 0.5)
    assert abs(lv.derivative - beta_prime_chi4(0.5)) < 1e-10


def test_l_mod1_agrees_with_mpmath():
    """q = 1: zeta and zeta' from `l_value` meet 30-digit mpmath within the
    1.3e-12 gate of `test_l_value_against_mpmath`."""
    import mpmath

    for s in (2.0, 0.5, complex(0.7, 3.3), complex(0.5, 30.0)):
        z, dz = _zeta(s)
        with mpmath.workdps(30):
            ref, dref = complex(mpmath.zeta(s)), complex(mpmath.zeta(s, 1, 1))
        assert abs(z - ref) / max(1.0, abs(ref)) <= 1.3e-12, s
        assert abs(dz - dref) / max(1.0, abs(dref)) <= 1.3e-12, s


def test_l_principal_pole(chi4):
    """s = 1 is refused for every character: the tail term z^{1-s}/(s-1) is
    singular there even where L(1, chi) is finite (L(1, chi_4) = pi/4)."""
    chi1 = enumerate_characters(1)[0]
    with pytest.raises(ValueError):
        l_value(chi1, 1.0)
    chi0_mod4 = enumerate_characters(4)[0]
    with pytest.raises(ValueError):
        l_value(chi0_mod4, 1.0)
    with pytest.raises(ValueError, match="tail term"):
        l_value(chi4, 1.0)


def test_derivative_matches_finite_difference(chi4):
    """Analytic L' vs 5-point central differences over the strip."""
    rng = random.Random(20240131)
    chars = [chi4, enumerate_characters(7)[1]]
    h = 1e-4
    for _ in range(50):
        s = complex(rng.uniform(0.2, 2.0), rng.uniform(-50.0, 50.0))
        chi = chars[rng.random() > 0.5]
        lv = l_value(chi, s)
        f = lambda z: l_value(chi, z).value
        fd = (-f(s + 2 * h) + 8 * f(s + h) - 8 * f(s - h) + f(s - 2 * h)) / (12 * h)
        denom = max(abs(lv.derivative), 1e-12)
        assert abs(lv.derivative - fd) / denom < 1e-6, s


def _fe_residual(chi, s):
    # Lambda(s, chi) = eps(chi) * Lambda(1 - s, conj chi)
    lam = completed_lambda(chi, s)
    mirrored = completed_lambda(conjugate_character(chi), 1 - s)
    return abs(lam - root_number(chi) * mirrored)


def test_functional_equation_spot(chi4):
    assert _fe_residual(chi4, complex(0.3, 7.1)) < 1e-8


def test_functional_equation_random_heights():
    rng = random.Random(7)
    prim = []
    for q in (3, 4, 5, 7, 8):
        prim += [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
    for _ in range(20):
        chi = prim[rng.randrange(len(prim))]
        t = rng.uniform(0.0, 50.0)
        s = complex(0.5, t)
        resid = _fe_residual(chi, s)
        assert resid < 1e-8, (chi, t)
        lam = completed_lambda(chi, s)
        if abs(lam) > 1e-10:  # relative check only above the double-precision floor
            assert resid / abs(lam) < 1e-6, (chi, t)


def test_completed_lambda_examples(chi4):
    val = completed_lambda(chi4, 0.5)
    assert abs(val.imag) < 1e-12
    assert val.real > 0
    chi1 = enumerate_characters(1)[0]
    assert abs(completed_lambda(chi1, 2.0) - math.pi / 6) < 1e-12
    lifted = next(c for c in enumerate_characters(8) if c.conductor == 4)
    with pytest.raises(ValueError):
        completed_lambda(lifted, 0.5)
    with pytest.raises(ValueError):
        rotated_z(lifted, 1.0)


def test_loggamma_against_mpmath():
    """_loggamma modulo 2*pi*i, relative to max(1, |ref|), against 30-digit mpmath.

    scipy.special.loggamma measures 3.5e-15 on this grid and _loggamma 6.6e-15;
    the bound is 4x scipy's figure.
    """
    import mpmath

    rng = random.Random(2024)
    heights = [-50 + 0.25 * i for i in range(401)]
    heights += [rng.uniform(-5000.0, 5000.0) for _ in range(400)] + [0.0, 1e-3, 5000.0, -5000.0]
    worst = 0.0
    with mpmath.workdps(30):
        for x in (0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 3.0, 14.9, 15.1):
            for y in heights:
                ref = complex(mpmath.loggamma(mpmath.mpc(x, y)))
                d = _loggamma(complex(x, y)) - ref
                d -= 2j * math.pi * round(d.imag / (2 * math.pi))
                worst = max(worst, abs(d) / max(1.0, abs(ref)))
    assert worst <= 1.4e-14, worst


def test_rotated_z_at_zero_equals_l_half(chi4, chi4_l_half):
    assert abs(rotated_z(chi4, 0.0) - chi4_l_half.value.real) < 1e-12
    assert rotated_z(chi4, 0.0) > 0


def test_rotated_z_sign_change_at_first_zero(chi4):
    assert rotated_z(chi4, 6.0) * rotated_z(chi4, 6.1) < 0


def test_rotated_z_reflection_symmetry(chi4):
    for t in (0.7, 6.05, 13.7, 33.3):
        assert abs(abs(rotated_z(chi4, -t)) - abs(rotated_z(chi4, t))) < 1e-8


def _rotated_complex(chi, t):
    """The rotated value before `rotated_z` drops its imaginary part, a numerical residual."""
    return _rotation_phase(chi, t) * l_value(chi, complex(0.5, t)).value


def test_rotated_z_imaginary_part_contract(chi4):
    t = 0.0
    while t <= 100.0:
        w = _rotated_complex(chi4, t)
        assert abs(w.imag) < 1e-8 * (1 + abs(w.real)), t
        t += 0.1


def test_rotated_z_complex_character():
    chi = enumerate_characters(5)[1]
    for t in (0.0, 3.0, 17.5, 40.0):
        w = _rotated_complex(chi, t)
        assert abs(w.imag) < 1e-8 * (1 + abs(w.real)), t


def test_rotated_z_mod1_sees_riemann_zeros():
    """q = 1 collapses to the Riemann case: the rotated function must change
    sign across the first two ordinates 14.1347... and 21.0220..."""
    chi1 = enumerate_characters(1)[0]
    assert rotated_z(chi1, 14.1) * rotated_z(chi1, 14.2) < 0
    assert rotated_z(chi1, 20.9) * rotated_z(chi1, 21.1) < 0
    assert rotated_z(chi1, 0.5) != 0.0


def test_mp_oracle_is_mpmath_dirichlet(chi4):
    import mpmath

    s = complex(0.5, 14.1)
    val, der = mp_dirichlet_l(s, [chi4])[0]
    with mpmath.workdps(20):
        assert abs(val - complex(mpmath.dirichlet(s, [0, 1, 0, -1]))) < 1e-15
        assert abs(der - complex(mpmath.dirichlet(s, [0, 1, 0, -1], 1))) < 1e-15


@pytest.mark.parametrize(
    "q, indices, heights",
    [
        (4, (1,), (0.3, 14.1, 200.0, 999.0)),
        (5, (1,), (0.3, 14.1, 200.0, 999.0)),
        (13, (1,), (0.3, 14.1, 200.0, 999.0)),
        # mpmath takes seconds per Hurwitz sum at q = 163, so lower heights only
        (163, (81, 5), (0.3, 14.1, 30.0)),
    ],
    ids=["q4", "q5", "q13", "q163"],
)
def test_l_value_against_mpmath(q, indices, heights):
    """Relative error (to max(1, |.|)) of L and L' at 1/2 + it against 20-digit mpmath."""
    chars = [character(q, i) for i in indices]
    for t in heights:
        s = complex(0.5, t)
        for chi, (ref, dref) in zip(chars, mp_dirichlet_l(s, chars)):
            lv = l_value(chi, s)
            assert abs(lv.value - ref) / max(1.0, abs(ref)) <= 1.3e-12, (chi, t)
            assert abs(lv.derivative - dref) / max(1.0, abs(dref)) <= 1.3e-12, (chi, t)


def test_l_value_near_the_design_ceiling(chi4):
    """L and L' at q = 4 high on the critical line, against 30-digit mpmath.

    The head length is shortest relative to |t| here, so a truncation error
    would show first.  The bound 1e-11 is fixed from the rounding of each
    head term's phase t * log(k + a): about u * |t| * log(N + 1) = 1e-11 at
    t = 1e4 (u = 2^-53, N of a few thousand), summed over terms of
    independent sign.  This rounding, not the truncation, sets the error
    here, which is why the 1.3e-12 gate of the heights below 1e3 does not
    apply.
    """
    for t in (3000.0, 9999.3):
        s = complex(0.5, t)
        [(ref, dref)] = mp_dirichlet_l(s, [chi4], dps=30)
        lv = l_value(chi4, s)
        assert abs(lv.value - ref) / max(1.0, abs(ref)) <= 1e-11, t
        assert abs(lv.derivative - dref) / max(1.0, abs(dref)) <= 1e-11, t


def _remainder_bound(s, n, d_sum):
    """The module docstring's bound on the remainder of zeta(s, a) and its
    derivative for head length n, in mpmath, with d_sum in place of
    sum_{i<=2M} 1/|s+i|."""
    import mpmath

    m = lfunction._BERNOULLI_ORDER
    alpha = s.real + 2 * m
    rising = mpmath.fprod(abs(s + i) for i in range(2 * m + 1))
    bound = 2 * mpmath.zeta(2 * m + 1) * rising / (
        (2 * mpmath.pi) ** (2 * m + 1) * alpha * mpmath.mpf(n) ** alpha
    )
    return bound * max(1, d_sum + mpmath.log(n + 1) + 1 / alpha)


@pytest.mark.parametrize("t", [0.0, 0.3, 14.1, 30.0, 200.0, 999.0, 9999.3])
def test_head_length_is_the_shortest_that_meets_the_bound(t):
    """N meets the bound and N - 1 does not, with D's sum bounded by
    (2M+1)/|s| as the kernel does; the exact sum only lowers the bound."""
    import mpmath

    s = complex(0.5, t)
    m = lfunction._BERNOULLI_ORDER
    n = _head_length(s, math.prod(abs(s + i) for i in range(2 * m + 1)))
    target = lfunction._REMAINDER_TARGET
    exact = mpmath.fsum(1 / abs(s + i) for i in range(2 * m + 1))
    assert _remainder_bound(s, n, exact) <= _remainder_bound(s, n, (2 * m + 1) / abs(s)) <= target
    assert n == 1 or _remainder_bound(s, n - 1, (2 * m + 1) / abs(s)) > target


def _rounding_floor(s, q):
    """Rounding allowance, relative to max(1, |.|), for an evaluation whose
    doubled head runs to size = (2N + 1) q: the sum of the terms m^{-1/2},
    whose partial sums reach about 2 sqrt(size) before they cancel near the
    real axis, and the phases t * log(m), each rounded by about u * |t| * log(m)."""
    n, _ = _truncation(complex(s))
    size = (2 * n + 1) * q
    return 4e-16 * (2 * math.sqrt(size) + abs(complex(s).imag) * math.log(size))


@pytest.mark.parametrize("t", [0.3, 30.0, 999.0])
def test_a_longer_head_changes_nothing_above_rounding(monkeypatch, t):
    """Doubling N moves L and L' only by rounding, the floor of
    `_rounding_floor`.  A head at half of N moves them by 2.7e-12 to
    3.9e-10 here, at least 7 times that floor."""
    s = complex(0.5, t)
    chars = [character(4, 1), character(163, 81)]

    def evaluate():
        return [(lv.value, lv.derivative) for lv in (l_value(chi, s) for chi in chars)]

    lvs = evaluate()
    floors = [_rounding_floor(s, chi.modulus) for chi in chars]
    short = lfunction._head_length
    monkeypatch.setattr(lfunction, "_head_length", lambda s, rising: 2 * short(s, rising))
    lvs2 = evaluate()
    for chi, floor, pair, pair2 in zip(chars, floors, lvs, lvs2):
        for v, v2 in zip(pair, pair2):
            assert abs(v - v2) <= floor * max(1.0, abs(v)), (chi, t)


@pytest.mark.parametrize("q", [4, 163])
@pytest.mark.parametrize("t", [0.3, 30.0, 999.0])
def test_ladder_powers_against_exponentials(q, t):
    """Every m^{-s} of the factor ladder, m <= (N + 1) q, against
    exp(-s log m) in long double: within 4 u (1 + |t| log m) of |m^{-s}|.

    A prime's exponential rounds its phase t * log p once; a product of
    two lower entries adds their phase errors, which sum to about
    u * |t| * log m, and one rounding of its own.  Measured here: at most
    2.1 u (1 + |t| log m).  Where long double is binary64 the reference
    rounds as much again, still within the bound.
    """
    s = complex(0.5, t)
    n, _ = _truncation(s)
    size = (n + 1) * q
    powers = np.empty(size, dtype=np.complex128)
    _FactorLadder().fill(powers, s)
    m = np.arange(1, size + 1)
    log_m = np.log(m.astype(np.longdouble))
    magnitude, phase = np.exp(-0.5 * log_m), t * log_m
    err = np.hypot(
        (powers.real - magnitude * np.cos(phase)).astype(np.float64),
        (powers.imag + magnitude * np.sin(phase)).astype(np.float64),
    )
    bound = 4 * 2.0**-53 * (1 + t * np.log(m)) * np.abs(powers)
    assert (err <= bound).all(), (m[err > bound][:5], (err / bound).max())


def test_one_ladder_at_most_twice_the_largest_size(monkeypatch):
    """Evaluations at several heights and moduli leave one ladder, whose
    capacity lies between the largest (N + 1) q asked for and twice it;
    what each size uses of it are views, never copies."""
    ladder = _FactorLadder()
    monkeypatch.setattr(lfunction, "_LADDER", ladder)
    largest = 0
    for q, index, t in ((4, 1, 14.1), (163, 81, 0.3), (4, 1, 200.0), (13, 1, 100.0), (163, 81, 30.0), (5, 1, 60.0)):
        s = complex(0.5, t)
        l_value(character(q, index), s)
        largest = max(largest, (_truncation(s)[0] + 1) * q)
        assert lfunction._LADDER is ladder
        assert largest <= ladder.capacity <= 2 * largest, (q, t)
    assert len(ladder.logs) == ladder.capacity
    owned = [ladder.logs, ladder.prime_positions, ladder.prime_logs] + [a for level in ladder.levels for a in level]
    assert sum(a.nbytes for a in owned) <= 32 * ladder.capacity
    for primes, logs, steps in ladder._plans.values():
        assert np.shares_memory(primes, ladder.prime_positions) and np.shares_memory(logs, ladder.prime_logs)
        for (at, factors), (level_at, level_factors) in zip(steps, ladder.levels):
            assert np.shares_memory(at, level_at) and np.shares_memory(factors, level_factors)


def test_the_ladder_is_not_built_at_import():
    code = (
        "import factorrace, factorrace.cli\n"
        "from factorrace import lfunction\n"
        "from factorrace.characters import character\n"
        "assert lfunction._LADDER.capacity == 0\n"
        "lfunction.l_value(character(4, 1), 0.5 + 14j)\n"
        "assert lfunction._LADDER.capacity == (lfunction._truncation(0.5 + 14j)[0] + 1) * 4\n"
    )
    src = os.path.dirname(os.path.dirname(lfunction.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
