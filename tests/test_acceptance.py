"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy inputs (the 1e8 sieve pass and the T=200 zero cache for the
non-principal character mod 4) are shared session fixtures, so the whole
suite costs one big run.  Criteria 5-7 are finite-range consistency checks
of the explicit-formula decomposition and of the bias direction; they are
not proofs of the underlying conditional statements.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from factorrace import cli
from factorrace.characters import conjugate_character, enumerate_characters, root_number
from factorrace.lfunction import completed_lambda, l_value
from factorrace.density import build_model, li_monte_carlo, windowed_density
from factorrace.prediction import mean_square, predict, residual
from factorrace.sieve import SIGN, SieveConfig, combined_run, factor_counts, twist
from factorrace.zeros import count_check, rotated_z, scan_zeros
from oracles import beta_chi4, bisect_sign_change, mertens_constants, trial_factor_table

X_BIG = 10**8


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="session")
def big_run(chi4):
    cfg = SieveConfig(x_max=X_BIG, q=4)
    start = time.perf_counter()
    sums, dens = combined_run(cfg, chi4)
    elapsed = time.perf_counter() - start
    return cfg, sums, dens, elapsed


@pytest.fixture(scope="session")
def cache200(chi4):
    return scan_zeros(chi4, 200.0)


def test_criterion_1_sieve_oracle_equivalence():
    start = time.perf_counter()
    w, big = factor_counts(10**5)
    tw, tbig = trial_factor_table(10**5)
    ok_w = np.array_equal(w, tw)
    ok_b = np.array_equal(big, tbig)
    elapsed = time.perf_counter() - start
    ok = ok_w and ok_b and elapsed < 5.0
    assert report(
        1,
        "sieve oracle equivalence",
        ok,
        f"omega match={ok_w} Omega match={ok_b} elapsed={elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_hardy_ramanujan_constants(big_run):
    cfg, sums, _, elapsed = big_run
    a_ref, b_ref = mertens_constants(X_BIG)
    # the independent prime-sum oracle must itself reproduce the reference digits
    assert abs(a_ref - 0.26150) < 5e-4
    assert abs(b_ref - 1.03465) < 5e-4
    k = sums.checkpoints.index(X_BIG)
    drift_w, drift_b = (int(total) / X_BIG - math.log(math.log(X_BIG)) for total in sums.counts[:, k].sum(axis=1))
    ok = (
        abs(drift_w - 0.26150) < 0.05
        and abs(drift_b - 1.03465) < 0.05
        and elapsed < 150.0
    )
    assert report(
        2,
        "Hardy-Ramanujan constants",
        ok,
        f"omega drift={drift_w:.5f} (A={a_ref:.5f}) Omega drift={drift_b:.5f} "
        f"(B={b_ref:.5f}) sieve={elapsed:.1f}s",
    )


def test_criterion_3_l_kernel_accuracy(chi4):
    l_half = l_value(chi4, 0.5)
    l_two = l_value(chi4, 2.0)
    ok_half = abs(l_half.value - beta_chi4(0.5)) < 1e-8 and abs(l_half.value - 0.66769146) < 1e-8
    ok_two = abs(l_two.value - beta_chi4(2.0)) < 1e-10 and abs(l_two.value - 0.91596559) < 1.5e-8

    import random

    rng = random.Random(314159)
    prim = []
    for q in (3, 4, 5, 7, 8):
        prim += [c for c in enumerate_characters(q) if c.is_primitive and not c.is_principal]
    fe_ok = True
    for _ in range(20):
        chi = prim[rng.randrange(len(prim))]
        s = complex(0.5, rng.uniform(0.0, 50.0))
        lam = completed_lambda(chi, s)
        mirrored = completed_lambda(conjugate_character(chi), 1 - s)
        fe_ok &= abs(lam - root_number(chi) * mirrored) < 1e-8

    fd_ok = True
    h = 1e-4
    for _ in range(50):
        s = complex(rng.uniform(0.2, 2.0), rng.uniform(-50.0, 50.0))
        lv = l_value(chi4, s)
        f = lambda z: l_value(chi4, z).value
        fd = (-f(s + 2 * h) + 8 * f(s + h) - 8 * f(s - h) + f(s - 2 * h)) / (12 * h)
        fd_ok &= abs(lv.derivative - fd) / max(abs(lv.derivative), 1e-12) < 1e-6

    ok = ok_half and ok_two and fe_ok and fd_ok
    assert report(
        3,
        "L-kernel accuracy",
        ok,
        f"L(1/2)={'ok' if ok_half else 'BAD'} L(2)={'ok' if ok_two else 'BAD'} "
        f"functional-eq={'ok' if fe_ok else 'BAD'} derivative-vs-FD={'ok' if fd_ok else 'BAD'}",
    )


def test_criterion_4_zeros(chi4, cache200):
    pos = [r.gamma for r in cache200.records if r.gamma > 0][:3]
    frozen = (6.0209, 10.2437, 12.9880)
    loc_ok = all(abs(g - ref) < 1e-3 for g, ref in zip(pos, frozen))
    oracle_ok = True
    for g, ref in zip(pos, frozen):
        oracle = bisect_sign_change(lambda t: rotated_z(chi4, t), ref - 0.05, ref + 0.05)
        oracle_ok &= oracle is not None and abs(g - oracle) < 1e-3
    rep = count_check(cache200)
    count_ok = rep.passed and rep.deviation <= 2 + math.log(4 * 200.0)
    reverify_ok = all(
        abs(l_value(chi4, complex(0.5, r.gamma)).value) < 1e-9 for r in cache200.records
    )
    ok = loc_ok and oracle_ok and count_ok and reverify_ok
    assert report(
        4,
        "zeros",
        ok,
        f"first={['%.4f' % g for g in pos]} count={rep.count} dev={rep.deviation:.2f} "
        f"(allowed {rep.allowed:.2f}) reverify={'ok' if reverify_ok else 'BAD'}",
    )


def test_criterion_5_figure_reproduction(chi4, big_run, cache200):
    cfg, sums, _, _ = big_run
    l_half = l_value(chi4, 0.5)
    xs = [x for x in cfg.checkpoints if x >= 1000]
    psi = {x: twist(sums, chi4, x) for x in xs}
    big = [x for x in xs if x >= 10**4]
    secular, _ = predict(big, chi4, l_half, cache200, 50.0)
    worst = float(np.max(np.abs(residual(big, [psi[x][1] for x in big], SIGN["Omega"] * secular))))
    bound_ok = worst <= 10.0
    neg = sum(1 for x in xs if psi[x][0].real < 0)
    frac = neg / len(xs)
    sign_ok = frac >= 0.95
    ok = bound_ok and sign_ok
    assert report(
        5,
        "figure reproduction",
        ok,
        f"max normalized |psi_Omega - main| on [1e4,1e8] = {worst:.2f} (<= 10); "
        f"psi_omega < 0 at {frac:.1%} of checkpoints (>= 95%)",
    )


def test_criterion_6_mean_square_trend(chi4, big_run, cache200):
    cfg, sums, _, _ = big_run
    l_half = l_value(chi4, 0.5)
    xs = [x for x in cfg.checkpoints if x >= 2]
    psi_W = [twist(sums, chi4, x)[1] for x in xs]
    ms = []
    for t0 in (10.0, 30.0, 100.0):
        secular, zero_sum = predict(xs, chi4, l_half, cache200, t0)
        ms.append(mean_square(xs, residual(xs, psi_W, SIGN["Omega"] * secular + zero_sum))[1])
    ok = ms[0] >= ms[1] >= ms[2]
    assert report(
        6,
        "residual mean-square trend",
        ok,
        f"M(Y=log 1e8, T0=10,30,100) = {ms[0]:.3f}, {ms[1]:.3f}, {ms[2]:.3f} (non-increasing)",
    )


def test_criterion_7_densities(chi4, big_run, cache200):
    # A logarithmic density is a limit in X, so both sides are measured over
    # the study range [first checkpoint, X]: the windowed empirical density
    # against the model's mean P(y) over the same y grid.  The full-range
    # estimate H_f(X)/log X also carries the harmonic mass of n < 1000 and
    # tends to 1 only like 1 - C/log X; it is printed, not asserted.
    cfg, _, dens, _ = big_run
    x0 = cfg.checkpoints[0]
    win_w, win_W = windowed_density(dens, x0)
    emp_ok = win_w >= 0.9 and win_W >= 0.9

    l_half = l_value(chi4, 0.5)
    y_grid = [math.log(x) for x in cfg.checkpoints]
    assert y_grid[-1] == math.log(X_BIG)
    pointwise = {}
    grid_mean = {}
    model = build_model(chi4, l_half, cache200, 100.0, seed=42)
    for mc in li_monte_carlo(model, y_grid, 10_000).estimates:
        pointwise[mc.kind] = mc.points[-1]
        grid_mean[mc.kind] = sum(p for _, p, _ in mc.points) / len(mc.points)
    mc_ok = all(p >= 0.99 and se <= 0.005 for _, p, se in pointwise.values())

    agree_ok = (
        abs(win_w - grid_mean["omega"]) <= 0.1
        and abs(win_W - grid_mean["Omega"]) <= 0.1
    )
    ok = emp_ok and mc_ok and agree_ok
    assert report(
        7,
        "densities",
        ok,
        f"empirical delta(P_omega)={win_w:.4f} delta(P_Omega)={win_W:.4f} on [{x0}, 1e8] "
        f"(>= 0.9: {emp_ok}; full range {dens.delta[0]:.4f}/{dens.delta[1]:.4f}); "
        f"MC P_hat(log 1e8)={pointwise['omega'][1]:.4f}/{pointwise['Omega'][1]:.4f} "
        f"(>= 0.99: {mc_ok}); MC mean over the same range="
        f"{grid_mean['omega']:.4f}/{grid_mean['Omega']:.4f}, agreement within 0.1: {agree_ok}",
    )


def test_criterion_8_determinism(tmp_path):
    args = [
        "--xmax", "1000000", "--q", "4", "--T", "50", "--T0", "10", "--T0", "50",
        "--trials", "2000",
    ]
    outs = [tmp_path / n for n in ("r1", "r2", "r4")]
    start = time.perf_counter()
    assert cli.main(["all", "--out", str(outs[0]), "--threads", "1"] + args) == 0
    single_elapsed = time.perf_counter() - start
    assert cli.main(["all", "--out", str(outs[1]), "--threads", "1"] + args) == 0
    assert cli.main(["all", "--out", str(outs[2]), "--threads", "4"] + args) == 0
    names = sorted(os.listdir(outs[0]))
    same_rerun = all(filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False) for n in names)
    same_threads = all(filecmp.cmp(outs[0] / n, outs[2] / n, shallow=False) for n in names)
    ok = same_rerun and same_threads and single_elapsed < 60.0
    assert report(
        8,
        "determinism",
        ok,
        f"rerun identical={same_rerun} threads 1 vs 4 identical={same_threads} "
        f"single-thread pipeline={single_elapsed:.1f}s (< 60s)",
    )
