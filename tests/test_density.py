import math
import statistics

import numpy as np
import pytest

from factorrace.characters import enumerate_characters
from factorrace.density import (
    MC_CHUNK,
    MIN_TRIALS,
    LiModel,
    build_model,
    disagrees,
    li_monte_carlo,
    windowed_density,
    MonteCarloDraw,
    MonteCarloEstimates,
)
from factorrace.sieve import KINDS, SIGN, SieveConfig, density_scan


def _race(model, y_grid, trials, kind):
    """The estimates of the race `kind` from the draw of both."""
    return {mc.kind: mc for mc in li_monte_carlo(model, y_grid, trials).estimates}[kind]


def test_build_model_amplitudes(chi4, chi4_l_half, cache100):
    model = build_model(chi4, chi4_l_half, cache100, 100.0, seed=1)
    pos = [r for r in cache100.records if 0 < r.gamma <= 100.0]
    assert len(model.amplitudes) == len(pos)
    assert all(a > 0 for a in model.amplitudes)
    assert model.drift_slope == pytest.approx(chi4_l_half.value.real)
    # drift in the log^2 x / sqrt(x) normalization grows linearly in y
    assert model.drift(10.0) > model.drift(5.0) > 0


def test_drift_only_model_is_certain(chi4, chi4_l_half, cache100):
    model = build_model(chi4, chi4_l_half, cache100, 5.0, seed=3)
    assert model.amplitudes == ()
    for mc in li_monte_carlo(model, [0.5, 5.0, 20.0], 2000).estimates:
        assert all(p == 1.0 for _, p, _ in mc.points)


def test_zero_drift_single_amplitude_symmetric():
    model = LiModel((1.0,), 0.0, 0.0, seed=11)
    mc = _race(model, [1.0], 20000, "omega")
    _, p, se = mc.points[0]
    assert abs(p - 0.5) <= 4 * se
    assert se <= 0.5 / math.sqrt(20000)


def test_the_two_races_split_one_sample():
    """At zero drift the omega race counts the samples with X < 0 and the
    Omega race those with X > 0, so the two estimates add up to 1."""
    omega, Omega = li_monte_carlo(LiModel((1.0, 0.6), 0.0, 0.0, seed=11), [1.0], 20001).estimates
    p_w, p_W = omega.points[0][1], Omega.points[0][1]
    assert p_w != p_W  # an odd trial count cannot split evenly
    assert p_w + p_W == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("trials", [MIN_TRIALS, MC_CHUNK + 1, 10_000])
def test_one_draw_serves_both_races(trials):
    """Both races, in KINDS order, from one draw of the phases; the bits of
    each are checked in test_chunks_give_the_unchunked_estimates."""
    ys = [0.25 * k for k in range(40)]
    both = li_monte_carlo(_fifty_zero_model(12), ys, trials)
    assert isinstance(both, MonteCarloDraw) and (both.trials, both.seed) == (trials, 12)
    assert [mc.kind for mc in both.estimates] == list(KINDS)
    assert all(len(mc.points) == len(ys) for mc in both.estimates)


def test_seed_determinism():
    model = LiModel((0.5, 0.8), 0.1, 0.0, seed=99)
    a = _race(model, [1.0, 2.0], 5000, "omega")
    b = _race(model, [1.0, 2.0], 5000, "omega")
    assert a == b
    other = LiModel((0.5, 0.8), 0.1, 0.0, seed=100)
    c = _race(other, [1.0, 2.0], 5000, "omega")
    assert c != a


def test_variance_shrinks_with_trials():
    def spread(trials):
        ps = []
        for seed in range(10):
            model = LiModel((1.0,), 0.0, 0.0, seed=seed)
            ps.append(_race(model, [1.0], trials, "omega").points[0][1])
        return statistics.pvariance(ps)

    v_small = spread(1000)
    v_large = spread(16000)
    assert v_large < v_small / 3  # expected factor 16, generous slack


def _unchunked_points(model, ys, trials, kind):
    """The estimates of the race `kind` from one `trials`-row draw of the
    phases, the reference for the chunked draw of li_monte_carlo."""
    amps = np.asarray(model.amplitudes)
    phases = np.random.default_rng(model.seed).uniform(0.0, 2.0 * math.pi, size=(trials, len(amps)))
    lean = SIGN[kind] * (np.cos(phases) @ amps)
    return [float(np.count_nonzero(lean > -model.drift(y))) / trials for y in ys]


def _fifty_zero_model(seed):
    amps = tuple(np.random.default_rng(50).uniform(0.02, 0.6, size=50).tolist())
    return LiModel(amps, 0.04, 0.3, seed=seed)


@pytest.mark.parametrize("trials", [MIN_TRIALS, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 10_000, 25_001])
def test_chunks_give_the_unchunked_estimates(trials):
    """MC_CHUNK trials at a time from one stream: the same p for both races,
    bit for bit, as the one-draw formula, at chunk edges and with a short
    last chunk."""
    ys = [0.25 * k for k in range(40)]
    model = _fifty_zero_model(7)
    for kind, mc in zip(KINDS, li_monte_carlo(model, ys, trials).estimates):
        assert [p for _, p, _ in mc.points] == _unchunked_points(model, ys, trials, kind)


def test_memory_does_not_grow_with_trials():
    """The traced peak at 100,000 trials stays within 1.5 times the one at
    10,000; one draw of the trials took ten times as much."""
    import tracemalloc

    model = _fifty_zero_model(9)
    ys = [0.25 * k for k in range(40)]
    peaks = []
    for trials in (10_000, 100_000):
        tracemalloc.start()
        try:
            li_monte_carlo(model, ys, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_monotone_in_y_with_positive_drift(chi4, chi4_l_half, cache100):
    model = build_model(chi4, chi4_l_half, cache100, 30.0, seed=5)
    ys = [0.0, 2.0, 5.0, 9.0, 14.0, 18.4]
    mc = _race(model, ys, 4000, "omega")
    ps = [p for _, p, _ in mc.points]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_degenerate_model_errors():
    empty = LiModel((), 0.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        li_monte_carlo(empty, [1.0], 2000)
    ok = LiModel((1.0,), 0.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        li_monte_carlo(ok, [1.0], 999)  # below the minimum trial count


def test_mc_chi4_at_large_y(chi4, chi4_l_half, cache100):
    model = build_model(chi4, chi4_l_half, cache100, 100.0, seed=42)
    mc = _race(model, [math.log(1e8)], 10_000, "omega")
    _, p, se = mc.points[0]
    assert p >= 0.99
    assert se <= 0.005


def test_disagrees_on_the_toy_trace(chi4):
    dens = density_scan(SieveConfig(x_max=10, q=4, checkpoints=(10,)), chi4)
    assert dens.x_max == 10
    assert dens.delta[1] == pytest.approx((1 / 9 + 1 / 10) / math.log(10), rel=1e-12)
    assert dens.delta[0] == pytest.approx((1 / 3 + 1 / 4 + 1 / 7 + 1 / 8) / math.log(10), rel=1e-12)
    point = ((math.log(10), dens.delta[1], 0.0),)
    assert not disagrees(dens, MonteCarloEstimates("Omega", point))
    # the same model read as the omega race meets delta_omega, 0.37 against 0.09
    assert disagrees(dens, MonteCarloEstimates("omega", point))


def test_disagrees_flags_a_wrong_model(chi4):
    dens = density_scan(SieveConfig(x_max=10, q=4, checkpoints=(10,)), chi4)
    fake_high = MonteCarloEstimates("Omega", ((math.log(10), 1.0, 0.0),))
    assert disagrees(dens, fake_high)  # 0.09 vs 1.0
    close = MonteCarloEstimates("Omega", ((math.log(10), dens.delta[1] + 0.05, 0.0),))
    assert not disagrees(dens, close)


def test_disagrees_compares_over_the_same_window(chi4):
    # full-range delta_Omega(1e5) is about 0.63 because of the harmonic mass
    # below the first checkpoint; over [1000, 1e5] it is about 0.98
    cfg = SieveConfig(x_max=10**5, q=4)
    dens = density_scan(cfg, chi4)
    x0 = cfg.checkpoints[0]
    win_w, win_W = windowed_density(dens, x0)
    grid = [math.log(x) for x in cfg.checkpoints]

    def model(kind, p):
        return MonteCarloEstimates(kind, tuple((y, p, 0.0) for y in grid))

    assert abs(dens.delta[1] - 1.0) > 0.1 and abs(win_W - 1.0) <= 0.1
    assert abs(dens.delta[0] - 1.0) > 0.1 and abs(win_w - 1.0) <= 0.1
    assert not disagrees(dens, model("omega", 1.0)) and not disagrees(dens, model("Omega", 1.0))
    assert disagrees(dens, model("omega", win_w - 0.15)) and disagrees(dens, model("Omega", win_W - 0.15))



def test_build_model_refuses_a_complex_character():
    from factorrace.characters import character
    from factorrace.lfunction import l_value
    from factorrace.zeros import scan_zeros

    chi = character(5, 1)
    with pytest.raises(ValueError, match="real character"):
        build_model(chi, l_value(chi, 0.5), scan_zeros(chi, 15.0), 10.0, seed=1)
