import cmath
import math

import numpy as np
import pytest

from factorrace import cli, prediction
from factorrace.characters import conjugate_character, enumerate_characters
from factorrace.lfunction import l_value
from factorrace.prediction import mean_square, predict, residual
from factorrace.sieve import SIGN, SieveConfig, sieve_run, twist
from factorrace.zeros import ZeroCache, scan_zeros


@pytest.fixture(scope="module")
def chi5():
    return enumerate_characters(5)[1]


@pytest.fixture(scope="module")
def cache5(chi5):
    return scan_zeros(chi5, 15.0)


def test_trivial_prediction_complex_below_first_zero(chi5):
    empty = ZeroCache(5, 1, 1.0, ())
    l_half = l_value(chi5, 0.5)
    secular, zero_sum = predict([10**4, 10**5], chi5, l_half, empty, 1.0)
    assert np.all(secular == 0)
    assert np.all(zero_sum == 0)


def _compare_columns(path):
    """(main, full) columns of a compare_*.csv as complex arrays."""
    vals = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return vals[:, 3] + 1j * vals[:, 4], vals[:, 5] + 1j * vals[:, 6]


def test_sign_flip_between_kinds(tmp_path):
    """Both kinds share one prediction: the main columns are negatives of each
    other and full - main (the zero sum) agrees across kinds."""
    argv = ["--q", "5", "--chi", "all", "--xmax", "20000", "--T", "20", "--T0", "20", "--out", str(tmp_path)]
    for cmd in ("sieve", "zeros", "compare"):
        assert cli.main([cmd, *argv]) == 0
    for idx in (1, 2, 3):  # chi 2 is real, chi 1 and chi 3 complex
        main_w, full_w = _compare_columns(tmp_path / f"compare_omega_q5_chi{idx}_T20.csv")
        main_b, full_b = _compare_columns(tmp_path / f"compare_Omega_q5_chi{idx}_T20.csv")
        assert len(main_w) > 100
        assert np.all(main_w == -main_b)
        assert np.any(main_w != 0) == (idx == 2)
        tol = 4 * np.finfo(float).eps * (np.abs(main_w) + np.abs(full_w) + np.abs(full_b))
        assert np.all(np.abs((full_w - main_w) - (full_b - main_b)) <= tol)


def test_closed_form_main_at_1e6(chi4, chi4_l_half, cache100):
    x = 10**6
    secular, zero_sum = predict([x], chi4, chi4_l_half, cache100, 5.0)  # no zeros below 6.02
    assert zero_sum[0] == 0
    lx = math.log(x)
    expected = -(
        chi4_l_half.value * math.sqrt(x) / lx
        + (2 * chi4_l_half.value - chi4_l_half.derivative) * math.sqrt(x) / lx**2
    )
    main = SIGN["omega"] * secular[0]
    assert main == expected
    assert main.real < 0


def test_predict_domain_errors(chi4, chi4_l_half, cache100, chi5, cache5):
    with pytest.raises(ValueError):
        predict([10**4], chi4, chi4_l_half, cache100, 200.0)  # T0 > T_scanned
    with pytest.raises(ValueError):
        predict([1, 10**4], chi4, chi4_l_half, cache100, 10.0)
    principal = enumerate_characters(4)[0]
    with pytest.raises(ValueError):
        predict([10**4], principal, chi4_l_half, ZeroCache(4, 0, 10.0, ()), 10.0)
    with pytest.raises(ValueError, match="does not belong"):
        predict([10**4], chi4, chi4_l_half, cache5, 10.0)


def test_t0_nesting(chi4, chi4_l_half, cache100):
    x = 123456.0
    _, inner = predict([x], chi4, chi4_l_half, cache100, 30.0)
    _, outer = predict([x], chi4, chi4_l_half, cache100, 100.0)
    lx = math.log(x)
    direct = 0.0
    for rec in cache100.records:
        if 30.0 < rec.gamma <= 100.0:
            term = rec.l_prime * cmath.exp(1j * rec.gamma * lx) / complex(0.5, rec.gamma)
            direct += 2 * term.real
    direct *= math.sqrt(x) / lx**2
    diff = (outer - inner)[0]
    assert abs(diff.real - direct) < 1e-10 * (1 + abs(direct))
    assert diff.imag == 0.0


def test_real_character_output_is_real(chi4, chi4_l_half, cache100):
    xs = [10**3, 10**4, 10**6]
    secular, zero_sum = predict(xs, chi4, chi4_l_half, cache100, 100.0)
    total = SIGN["Omega"] * secular + zero_sum
    assert np.all(np.abs(total.imag) < 1e-8 * (1 + np.abs(total.real)))
    assert np.all(zero_sum.imag == 0.0)  # paired summation is exactly real


def test_conjugation_symmetry_complex_pair(chi5, cache5):
    conj_chi = conjugate_character(chi5)
    conj_cache = scan_zeros(conj_chi, 15.0)
    l_half = l_value(chi5, 0.5)
    l_half_conj = l_value(conj_chi, 0.5)
    assert abs(l_half_conj.value - l_half.value.conjugate()) < 1e-12
    xs = [100.0, 10**4]
    secular, zero_sum = predict(xs, chi5, l_half, cache5, 15.0)
    secular_c, zero_sum_c = predict(xs, conj_chi, l_half_conj, conj_cache, 15.0)
    for sign in SIGN.values():
        p = sign * secular + zero_sum
        pc = sign * secular_c + zero_sum_c
        assert np.all(np.abs(pc - p.conjugate()) < 1e-8 * (1 + np.abs(p)))


def test_residual_series_t0_zero_complex(chi5):
    empty = ZeroCache(5, 1, 1.0, ())
    l_half = l_value(chi5, 0.5)
    cfg = SieveConfig(x_max=5000, q=5, checkpoints=(1000, 2000, 5000))
    sums = sieve_run(cfg)
    xs = list(cfg.checkpoints)
    psi = [twist(sums, chi5, x)[0] for x in xs]
    secular, zero_sum = predict(xs, chi5, l_half, empty, 0.0)
    sigma = residual(xs, psi, SIGN["omega"] * secular + zero_sum)
    for x, p, s in zip(xs, psi, sigma):
        # empty prediction: Sigma_emp * sqrt(x)/log^2 x recovers psi exactly
        assert s * math.sqrt(x) / math.log(x) ** 2 == pytest.approx(p, rel=1e-12, abs=1e-12)


def test_residual_series_grid_mismatch():
    with pytest.raises(ValueError, match="checkpoint grids do not match"):
        residual([1000, 2000], [0j], np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="checkpoint grids do not match"):
        residual([1000], [0j], np.zeros(2, dtype=complex))


def test_mean_square_trapezoid_hand_check():
    xs = [1000, 3000, 9000]
    ys = [math.log(x) for x in xs]
    coeffs = [1.0, 2.0, 2.0]
    psi = [c * math.sqrt(x) / math.log(x) ** 2 for c, x in zip(coeffs, xs)]
    y_end, m = mean_square(xs, residual(xs, psi, np.zeros(3, dtype=complex)))
    hand = (
        (1 + 4) / 2 * (ys[1] - ys[0]) + (4 + 4) / 2 * (ys[2] - ys[1])
    ) / (ys[2] - ys[0])
    assert y_end == ys[2]
    assert m == pytest.approx(hand, rel=1e-12)


def test_mean_square_needs_two_points():
    assert mean_square([], np.zeros(0, dtype=complex)) is None
    # grid points below x = 1e3 do not count
    assert mean_square([10, 500, 1000], np.ones(3, dtype=complex)) is None
    assert mean_square([10, 1000, 2000], np.ones(3, dtype=complex)) == (math.log(2000), 1.0)


def _omega_race_meansq(x_max, ratio, chi, l_half, cache, t0, kind="Omega"):
    cfg = SieveConfig(x_max=x_max, q=4, ratio=ratio)
    sums = sieve_run(cfg)
    xs = [x for x in cfg.checkpoints if x >= 2]
    col = 1 if kind == "Omega" else 0
    psi = [twist(sums, chi, x)[col] for x in xs]
    secular, zero_sum = predict(xs, chi, l_half, cache, t0)
    return mean_square(xs, residual(xs, psi, SIGN[kind] * secular + zero_sum))[1]


def test_mean_square_decreases_in_t0(chi4, chi4_l_half, cache100):
    m10 = _omega_race_meansq(10**6, 1.02, chi4, chi4_l_half, cache100, 10.0)
    m100 = _omega_race_meansq(10**6, 1.02, chi4, chi4_l_half, cache100, 100.0)
    assert m100 <= m10


def test_mean_square_quadrature_stability(chi4, chi4_l_half, cache100):
    m_coarse = _omega_race_meansq(10**6, 1.02, chi4, chi4_l_half, cache100, 10.0)
    m_fine = _omega_race_meansq(10**6, 1.01, chi4, chi4_l_half, cache100, 10.0)
    assert abs(m_fine - m_coarse) / m_coarse < 0.05


def test_figure_table_rows(chi4, chi4_l_half, cache100):
    """The grid arrays agree with the terms formed one checkpoint at a time."""
    cfg = SieveConfig(x_max=10**4, q=4)
    sums = sieve_run(cfg)
    xs = [x for x in cfg.checkpoints if x >= 2]
    psi = [twist(sums, chi4, x)[1] for x in xs]
    secular, zero_sum = predict(xs, chi4, chi4_l_half, cache100, 50.0)
    full = secular + zero_sum
    sigma = residual(xs, psi, full)
    assert len(sigma) == len(xs)
    zeros = [r for r in cache100.records if 0 < r.gamma <= 50.0]
    for x, p, f, s in zip(xs, psi, full, sigma):
        lx = math.log(x)
        main = chi4_l_half.value * math.sqrt(x) / lx + (
            2 * chi4_l_half.value - chi4_l_half.derivative
        ) * math.sqrt(x) / lx**2
        zsum = sum(2 * (r.l_prime * cmath.exp(1j * r.gamma * lx) / complex(0.5, r.gamma)).real for r in zeros)
        want = main + math.sqrt(x) / lx**2 * zsum
        assert abs(f - want) <= 1e-12 * (abs(main) + math.sqrt(x) / lx**2 * len(zeros))
        assert s == (p - f) * (lx**2 / math.sqrt(x))


@pytest.mark.parametrize("which", ["real", "complex"])
def test_zero_sum_against_mpmath(which, chi4, chi4_l_half, cache100, chi5, cache5):
    """The truncated zero sum of a cache, at 30 digits, over every record with
    |gamma| <= T0 (a real character's mirrored zeros included, unpaired)."""
    import mpmath

    chi, l_half, cache, t0 = (
        (chi4, chi4_l_half, cache100, 60.0) if which == "real" else (chi5, l_value(chi5, 0.5), cache5, 15.0)
    )
    xs = [1000, 123457, 10**8]
    _, zero_sum = predict(xs, chi, l_half, cache, t0)
    recs = [r for r in cache.records if abs(r.gamma) <= t0]
    assert len(recs) >= 4
    with mpmath.workdps(30):
        for x, got in zip(xs, zero_sum):
            lx = mpmath.log(x)
            terms = [
                mpmath.mpc(r.l_prime) * mpmath.expj(mpmath.mpf(r.gamma) * lx) / mpmath.mpc(0.5, r.gamma)
                for r in recs
            ]
            scale = mpmath.sqrt(x) / lx**2
            ref = complex(scale * mpmath.fsum(terms))
            size = float(scale * mpmath.fsum(abs(t) for t in terms))
            assert abs(got - ref) <= 1e-14 * size, (x, got, ref)


@pytest.mark.parametrize("cap", [1, 50])
def test_zero_sum_block_cap_does_not_change_bits(monkeypatch, cap, chi4, chi4_l_half, cache100, chi5, cache5):
    """One row per block (cap 1) or a few rows per block (cap 50): the same bits as one block."""
    xs = SieveConfig(x_max=10**6, q=4).checkpoints[1:]
    cases = [(chi4, chi4_l_half, cache100, 100.0), (chi5, l_value(chi5, 0.5), cache5, 15.0)]
    one_block = [predict(xs, *case) for case in cases]
    monkeypatch.setattr(prediction, "_BLOCK_ELEMENTS", cap)
    for case, (secular, zero_sum) in zip(cases, one_block):
        chunked = predict(xs, *case)
        assert np.array_equal(chunked[0], secular)
        assert np.array_equal(chunked[1].view(np.float64), zero_sum.view(np.float64))
