import cmath
import math
import random

import numpy as np
import pytest

from factorrace import lfunction
from factorrace.characters import character, conjugate_character, enumerate_characters, root_number
from factorrace.lfunction import (
    _head_length,
    _hurwitz_block,
    _loggamma,
    completed_lambda,
    hurwitz_zeta,
    l_value,
    rotated_z,
    rotated_z_complex,
)
from oracles import beta_chi4, beta_prime_chi4, mp_dirichlet_l, zeta_eta, zeta_prime_eta

# reference digits, frozen from the alternating-series oracles
ZETA_HALF = -1.4603545088095868
ZETA_PRIME_2 = -0.9375482543158438
L_CHI4_HALF = 0.6676914571896092
CATALAN = 0.9159655941772190


def test_hurwitz_reduces_to_zeta2():
    z, _ = hurwitz_zeta(2.0, 1.0)
    assert abs(z - math.pi**2 / 6) < 1e-12
    assert abs(z.imag) == 0.0


def test_zeta_half_against_oracle():
    z, _ = hurwitz_zeta(0.5, 1.0)
    assert abs(z - zeta_eta(0.5)) < 1e-10
    assert abs(z - ZETA_HALF) < 1e-10


def test_zeta_derivative_at_2():
    _, dz = hurwitz_zeta(2.0, 1.0)
    assert abs(dz - ZETA_PRIME_2) < 1e-9
    assert abs(dz - zeta_prime_eta(2.0)) < 1e-9
    # central finite difference of the oracle series agrees too
    h = 1e-4
    fd = (zeta_eta(2.0 + h) - zeta_eta(2.0 - h)) / (2 * h)
    assert abs(dz - fd) < 5e-8


def test_hurwitz_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)  # pole
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(-0.5, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(complex(0.5, 2e4), 1.0)


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


def test_l_mod1_collapses_to_hurwitz():
    chi1 = enumerate_characters(1)[0]
    for s in (2.0, 0.5, complex(0.7, 3.3)):
        z, dz = hurwitz_zeta(s, 1.0)
        lv = l_value(chi1, s)
        assert lv.value == z
        assert lv.derivative == dz


def test_l_principal_pole():
    chi1 = enumerate_characters(1)[0]
    with pytest.raises(ValueError):
        l_value(chi1, 1.0)
    chi0_mod4 = enumerate_characters(4)[0]
    with pytest.raises(ValueError):
        l_value(chi0_mod4, 1.0)


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


def test_rotated_z_imaginary_part_contract(chi4):
    t = 0.0
    while t <= 100.0:
        w = rotated_z_complex(chi4, t)
        assert abs(w.imag) < 1e-8 * (1 + abs(w.real)), t
        t += 0.1


def test_rotated_z_complex_character():
    chi = enumerate_characters(5)[1]
    for t in (0.0, 3.0, 17.5, 40.0):
        w = rotated_z_complex(chi, t)
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
        # mpmath takes seconds per Hurwitz sum at q = 163, so lower heights only
        (163, (81, 5), (0.3, 14.1, 30.0)),
    ],
    ids=["q4", "q5", "q163"],
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


@pytest.mark.parametrize("t", [0.3, 30.0, 999.0])
def test_a_longer_head_changes_nothing_above_rounding(monkeypatch, t):
    """Doubling N moves zeta(s, a) and its derivative only by rounding,
    which grows with t through the phases t * log(k + a); a head at half
    of N moves them by 6e-11 to 2e-9 here."""
    s = complex(0.5, t)
    shifts = np.array([1 / 163, 0.25, 0.5, 1.0])
    val, der = _hurwitz_block(s, shifts)
    short = lfunction._head_length
    monkeypatch.setattr(lfunction, "_head_length", lambda s, rising: 2 * short(s, rising))
    val2, der2 = _hurwitz_block(s, shifts)
    floor = 4e-16 * max(1.0, t)
    assert np.abs(val - val2).max() <= floor * np.abs(val).max()
    assert np.abs(der - der2).max() <= floor * np.abs(der).max()


@pytest.mark.parametrize("cap", [None, 40, 1000])
def test_hurwitz_block_rows_depend_on_their_row_alone(monkeypatch, cap):
    """Every row equals its one-row call bit for bit, whatever the block cap."""
    shifts = np.array([a / 163 for a in range(1, 164)])
    if cap is not None:
        monkeypatch.setattr(lfunction, "_BLOCK_ELEMENTS", cap)
    for s in (complex(0.5, 30.0), complex(0.5, 0.3), complex(2.0, -7.5)):
        val, der = _hurwitz_block(s, shifts)
        for a, v, d in zip(shifts, val, der):
            v1, d1 = _hurwitz_block(s, np.array([a]))
            assert (v1[0], d1[0]) == (v, d), (s, a)
