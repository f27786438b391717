import math

import numpy as np
import pytest

from factorrace.characters import character, conjugate_character, enumerate_characters
from factorrace.lfunction import l_value
from factorrace.zeros import (
    FORMAT_VERSION,
    CacheFormatError,
    ZeroCache,
    ZeroRecord,
    conjugate_cache,
    count_check,
    load_cache,
    rotated_z,
    scan_zeros,
    smooth_zero_count,
    store_cache,
)
from oracles import bisect_sign_change, mp_dirichlet_l

FIRST_ZEROS_CHI4 = (6.0209, 10.2437, 12.9880)


def test_chi4_first_zeros(cache15, chi4):
    assert cache15.count == 6
    pos = [r.gamma for r in cache15.records if r.gamma > 0]
    assert len(pos) == 3
    for got, ref in zip(pos, FIRST_ZEROS_CHI4):
        assert abs(got - ref) < 1e-3
    # independent fine-grid bisection oracle around each ordinate
    for got, ref in zip(pos, FIRST_ZEROS_CHI4):
        oracle = bisect_sign_change(lambda t: rotated_z(chi4, t), ref - 0.05, ref + 0.05)
        assert oracle is not None
        assert abs(got - oracle) < 1e-6


def test_chi4_t5_empty(chi4):
    cache = scan_zeros(chi4, 5.0)
    assert cache.count == 0


def test_real_cache_symmetry(cache15):
    gammas = cache15.gammas()
    assert gammas == sorted(gammas)
    by_gamma = {r.gamma: r for r in cache15.records}
    for r in cache15.records:
        assert -r.gamma in by_gamma
        mirror = by_gamma[-r.gamma]
        assert abs(mirror.l_prime - r.l_prime.conjugate()) < 1e-8


def test_records_quality(cache100, chi4):
    gammas = cache100.gammas()
    assert all(b - a > 1e-6 for a, b in zip(gammas, gammas[1:]))
    for r in cache100.records:
        assert r.residual < 1e-9
        assert abs(r.l_prime) > 1e-6  # numerically simple zeros
    # re-verify a subsample independently through the L-evaluator
    for r in cache100.records[::7]:
        assert abs(l_value(chi4, complex(0.5, r.gamma)).value) < 1e-9


def test_pair_sum_real(cache100):
    pos = [r for r in cache100.records if r.gamma > 0]
    for r in pos:
        term = r.l_prime / complex(0.5, r.gamma)
        paired = term + (r.l_prime.conjugate() / complex(0.5, -r.gamma))
        assert abs(paired.imag) < 1e-8


def test_count_check_passes(cache15):
    rep = count_check(cache15)
    assert rep.passed
    assert abs(smooth_zero_count(15.0, 4) - 6.0) < 0.1
    assert rep.deviation <= rep.allowed


def test_count_check_empty_cache_t1(chi4):
    empty = ZeroCache(4, 1, 1.0, ())
    rep = count_check(empty)
    assert rep.passed
    assert rep.expected < 1


def test_count_check_rejects_crowded_window(chi4):
    """More zeros in one unit window than 2*log(qT) allows must fail."""
    fake = tuple(
        ZeroRecord(7.0 + 0.01 * k, complex(1.0, 0.0), 1e-12) for k in range(30)
    )
    rep = count_check(ZeroCache(4, 1, 15.0, fake))
    assert not rep.passed
    assert 7 in rep.bad_windows


def test_count_check_windows_of_a_complex_character_are_per_side():
    """At q=5, T=40 the limit 2 log(qT) is 10.6: 10 zeros near +7 and 10
    near -7 pass, as the two sides are separate windows, and 11 on one side
    fail.  Eleven single zeros elsewhere bring the total near the smooth
    count (31.3), so only the windows decide."""
    assert character(5, 1).is_real is False
    limit = 2 * math.log(5 * 40.0)
    k = 10
    assert k <= limit < 2 * k

    def rep(plus, minus):
        gammas = [-(7.005 + 0.01 * j) for j in range(minus)] + [7.005 + 0.01 * j for j in range(plus)]
        gammas += [20.5 + j for j in range(11)]
        records = tuple(ZeroRecord(g, complex(1.0, 0.0), 1e-12) for g in sorted(gammas))
        return count_check(ZeroCache(5, 1, 40.0, records))

    assert rep(k, k).passed
    more = rep(k + 1, k)
    assert not more.passed and more.bad_windows == (7,)
    fewer = rep(k, k + 1)
    assert not fewer.passed and fewer.bad_windows == (-8,)


def test_count_check_fails_when_record_deleted(chi4):
    cache = scan_zeros(chi4, 50.0)
    # removing an interior pair must push the deviation past the allowance
    reduced = [r for r in cache.records if abs(abs(r.gamma) - cache.records[-1].gamma) > 1e-9]
    pruned = ZeroCache(cache.q, cache.chi_index, cache.t_scanned, tuple(reduced))
    base = count_check(cache)
    assert base.passed
    worse = count_check(pruned)
    assert worse.deviation > base.deviation
    # deleting records one by one eventually fails the check
    records = list(cache.records)
    while records:
        records.pop()
        rep = count_check(ZeroCache(cache.q, cache.chi_index, cache.t_scanned, tuple(records)))
        if not rep.passed:
            break
    else:
        pytest.fail("count_check never failed even with an empty cache")


def test_cache_roundtrip_bit_exact(tmp_path, cache15):
    path = str(tmp_path / "zc.csv")
    store_cache(cache15, path)
    assert load_cache(path) == cache15


def test_empty_cache_roundtrip(tmp_path, chi4):
    cache = scan_zeros(chi4, 5.0)
    path = str(tmp_path / "empty.csv")
    store_cache(cache, path)
    assert load_cache(path) == cache


def test_cache_parse_errors(tmp_path, cache15):
    path = tmp_path / "zc.csv"
    store_cache(cache15, str(path))
    good = path.read_text().splitlines()

    truncated = tmp_path / "trunc.csv"
    truncated.write_text("\n".join(good[:-1]) + "\n")
    with pytest.raises(CacheFormatError):
        load_cache(str(truncated))

    badheader = tmp_path / "badheader.csv"
    badheader.write_text("# not a header\n" + "\n".join(good[1:]) + "\n")
    with pytest.raises(CacheFormatError):
        load_cache(str(badheader))

    badversion = tmp_path / "badversion.csv"
    assert good[0].endswith(f" version={FORMAT_VERSION}")
    stale = good[0].replace(f"version={FORMAT_VERSION}", "version=99")
    badversion.write_text(stale + "\n" + "\n".join(good[1:]) + "\n")
    with pytest.raises(CacheFormatError):
        load_cache(str(badversion))

    unsorted = tmp_path / "unsorted.csv"
    rows = good[2:]
    rows[0], rows[1] = rows[1], rows[0]
    unsorted.write_text("\n".join(good[:2] + rows) + "\n")
    with pytest.raises(CacheFormatError):
        load_cache(str(unsorted))


def test_cache_bad_height_or_bytes_is_a_format_error(tmp_path, cache15):
    """A header height float() rejects, or bytes that are not UTF-8, fail as
    CacheFormatError (which callers refuse or rescan), not as a bare ValueError."""
    path = tmp_path / "zc.csv"
    store_cache(cache15, str(path))
    text = path.read_text()
    path.write_text(text.replace("T=15 ", "T=1e ", 1))
    with pytest.raises(CacheFormatError):
        load_cache(str(path))
    path.write_bytes(b"\xff\xfe" + text.encode())
    with pytest.raises(CacheFormatError):
        load_cache(str(path))


def test_complex_character_scan():
    chi = enumerate_characters(5)[1]
    cache = scan_zeros(chi, 15.0)
    rep = count_check(cache)
    assert rep.passed
    gammas = cache.gammas()
    assert gammas == sorted(gammas)
    # zeros of a complex character are not symmetric about zero
    asym = [g for g in gammas if all(abs(g + h) > 1e-3 for h in gammas)]
    assert asym
    for r in cache.records:
        assert r.residual < 1e-9


def test_scan_domain_errors(chi4):
    principal = enumerate_characters(4)[0]
    with pytest.raises(ValueError):
        scan_zeros(principal, 10.0)
    lifted = next(c for c in enumerate_characters(8) if c.conductor == 4)
    with pytest.raises(ValueError):
        scan_zeros(lifted, 10.0)
    with pytest.raises(ValueError):
        scan_zeros(chi4, 0.0)
    with pytest.raises(ValueError):
        scan_zeros(chi4, 1001.0)


def test_window_refinement_recovers_coarse_grid(chi4, monkeypatch):
    """A 2x-coarse first pass (one mean zero gap per step) drops sign
    changes (42 of the 50 pairs at T=100); the rescans of its dips must
    recover them."""
    import factorrace.zeros as zmod

    orig = zmod._grid_step
    monkeypatch.setattr(zmod, "_grid_step", lambda t, q: 2.0 * orig(t, q))
    grid = zmod._scan_grid(chi4, zmod._point(chi4, 0.0), zmod._point(chi4, 100.0))
    assert len(zmod._sign_changes(chi4, grid)) == 42
    coarse = scan_zeros(chi4, 100.0)
    monkeypatch.undo()
    fine = scan_zeros(chi4, 100.0)
    assert coarse.count == fine.count == 100
    for a, b in zip(coarse.gammas(), fine.gammas()):
        assert abs(a - b) < 1e-6


def test_missed_zero_error_raised(chi4, monkeypatch):
    import factorrace.zeros as zmod
    from factorrace.zeros import MissedZeroError

    monkeypatch.setattr(zmod, "smooth_zero_count", lambda t, q: 50.0)
    with pytest.raises(MissedZeroError):
        scan_zeros(chi4, 15.0)


def test_scan_refuses_a_crowded_window(monkeypatch):
    """30 zeros in one unit window fail the completeness check even when the
    total matches the smooth count (about 31.3 at q=5, T=40): all 30 in
    the upper half of chi 1, none in its conjugate's."""
    import factorrace.zeros as zmod
    from factorrace.zeros import MissedZeroError

    crowd = tuple(ZeroRecord(7.0 + 0.01 * k, complex(1.0, 0.0), 1e-13) for k in range(30))
    monkeypatch.setattr(zmod, "_upper_half", lambda chi, t_max: crowd if chi.index == 1 else ())
    with pytest.raises(MissedZeroError) as info:
        scan_zeros(character(5, 1), 40.0)
    assert 7 in info.value.windows


@pytest.mark.parametrize(
    "q, index, t_max, count",
    [(5, 1, 50.0, 43), (7, 1, 50.0, 49), (11, 3, 50.0, 55), (163, 81, 30.0, 56)],
)
def test_zero_counts_and_ordinates(q, index, t_max, count):
    chi = character(q, index)
    cache = scan_zeros(chi, t_max)
    assert cache.count == count
    assert max(r.residual for r in cache.records) <= 1e-10
    # independent fine-grid bisection of the rotated function around a subsample
    for r in cache.records[::7]:
        oracle = bisect_sign_change(lambda t: rotated_z(chi, t), r.gamma - 0.01, r.gamma + 0.01)
        assert oracle is not None
        assert abs(r.gamma - oracle) < 1e-11 * max(1.0, abs(r.gamma)), r.gamma


def test_refinement_evals_per_zero(scan_evals):
    """The bracketing solver needs few L-evals per zero (64-step bisection took about 42)."""
    scan_zeros(character(5, 1), 50.0)
    refines = scan_evals.refines
    assert len(refines) > 0
    assert sum(refines) / len(refines) <= 12


@pytest.mark.parametrize("q, index", [(4, 1), (5, 1), (163, 81)])
def test_slope_is_minus_im_phase_times_l_prime(q, index):
    """Z'(t) = -Im(phase(t) L'(1/2 + it)) against the fourth-order central
    difference of rotated_z (h = 1e-3), at fixed heights and at every fifth
    zero of [-30, 30] and 1e-3 and 4e-4 beside it; chi 1 mod 5 is complex.
    Measured at most 8.1e-12 relative to max(1, |Z'|)."""
    import factorrace.zeros as zmod

    chi = character(q, index)
    heights = [3.3, 17.25, 11.5 if chi.is_real else -11.5]
    heights += [g + d for g in scan_zeros(chi, 30.0).gammas()[1::5] for d in (0.0, 1e-3, -4e-4)]
    h = 1e-3
    for t in heights:
        z, slope, lv = zmod._z_and_l(chi, t)
        assert z == rotated_z(chi, t) and lv == l_value(chi, complex(0.5, t))
        ahead = rotated_z(chi, t + h) - rotated_z(chi, t - h)
        wide = rotated_z(chi, t + 2 * h) - rotated_z(chi, t - 2 * h)
        difference = (8 * ahead - wide) / (12 * h)
        assert abs(slope - difference) <= 1e-10 * max(1.0, abs(slope)), t


def test_a_wrong_sign_slope_falls_back_to_bisection(monkeypatch, scan_evals):
    """With Z' of the wrong sign every Hermite-cubic point leaves its bracket, so
    each step is the bracket midpoint: the scan finds the same zeros at the
    same gammas, and no refinement runs out of steps."""
    import factorrace.zeros as zmod

    chi = character(163, 81)
    reference = scan_zeros(chi, 30.0)
    slope = zmod._slope
    monkeypatch.setattr(zmod, "_slope", lambda phase, lv: -slope(phase, lv))
    scan_evals.refines.clear()
    cache = scan_zeros(chi, 30.0)
    assert cache.count == reference.count == 56
    for got, want in zip(cache.gammas(), reference.gammas()):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), want
    assert len(scan_evals.refines) == 28 and max(scan_evals.refines) < zmod.MAX_REFINE_STEPS


@pytest.mark.parametrize("q, index, t_max", [(29, 3, 60.0), (23, 16, 30.0)])
def test_no_refinement_takes_more_than_six_l_evals(scan_evals, q, index, t_max):
    """The refinement tails of two scans: where the cubic point leaves the
    bracket, the midpoint halves it.  The longest refinement takes 5 L-evals
    at chi 3 mod 29 and 6 at chi 16 mod 23."""
    scan_zeros(character(q, index), t_max)
    assert scan_evals.refines and max(scan_evals.refines) <= 6


def test_refined_zeros_against_mpmath():
    """|L(1/2 + i gamma)| by 30-digit mpmath at refined zeros: the zero near
    gamma = 185.374 at q=4 and the first and last zero above 0 at q=163."""
    samples = [(character(4, 1), [g for g in scan_zeros(character(4, 1), 186.0).gammas() if g > 185.3])]
    positive = [g for g in scan_zeros(character(163, 81), 30.0).gammas() if g > 0]
    samples.append((character(163, 81), [positive[0], positive[-1]]))
    for chi, gammas in samples:
        assert gammas
        for g in gammas:
            (value, _), = mp_dirichlet_l(complex(0.5, g), [chi], dps=30)
            assert abs(value) < 5e-13, (chi.modulus, g)


def test_scan_eval_budget(scan_evals):
    """q=163 chi 81 T=30 takes at most 160 L-evals: 63 on the grid, none in
    rescans and 89 in Hermite-cubic refinement.  At half the step, with
    Newton steps after the first cubic point, it took 214 (124 on the
    grid)."""
    cache = scan_zeros(character(163, 81), 30.0)
    assert cache.count == 56
    assert len(scan_evals.heights) <= 160


def test_mod4_scan_eval_budget(scan_evals):
    """q=4 T=200, the scan of the mod-4 race, takes at most 660 L-evals:
    263 on the grid, 12 in rescans (8 of them the dip at t = 0) and 368
    in refinement (921 at half the step)."""
    cache = scan_zeros(character(4, 1), 200.0)
    assert cache.count == 244
    assert len(scan_evals.heights) <= 660


def test_a_scan_evaluates_no_height_twice(scan_evals):
    """The rescans take their two ends from the level above: over the q=4,
    T=200 scan, whose dips at t = 0 and near 138.4 are rescanned at a
    quarter and a sixteenth step, every L-eval is at a height of its own."""
    scan_zeros(character(4, 1), 200.0)
    heights = scan_evals.heights
    assert len(heights) == len(set(heights)) == 643


@pytest.mark.parametrize("q, index", [(163, 81), (5, 2)])
def test_a_scan_builds_the_factor_ladder_once(monkeypatch, q, index):
    """scan_zeros sizes the ladder for the head length at t_max before its
    first evaluation: one build of (N + 1) q entries, where growing it on
    demand built three (1,467, 2,934 and 5,868 entries) at q = 163, T = 30.
    Chi 2 mod 5 is complex, so its scan covers [0, T] of it and of its
    conjugate, one build for both halves."""
    from factorrace import lfunction

    ladder = lfunction._FactorLadder()
    monkeypatch.setattr(lfunction, "_LADDER", ladder)
    builds = []
    build = ladder._build
    monkeypatch.setattr(ladder, "_build", lambda capacity: builds.append(capacity) or build(capacity))
    scan_zeros(character(q, index), 30.0)
    assert builds == [(lfunction._truncation(complex(0.5, 30.0))[0] + 1) * q]


def test_count_check_short_window_decides_nothing(cache100):
    """Taking the zero pair near 40.32 out of cache100 leaves window 40 short
    of the smooth count; the verdict still follows the total alone."""
    pruned = ZeroCache(4, 1, 100.0, tuple(r for r in cache100.records if int(abs(r.gamma)) != 40))
    assert len(pruned.records) == len(cache100.records) - 2
    rep = count_check(pruned)
    assert rep.bad_windows == ()
    assert rep.passed and rep.deviation <= rep.allowed
    # no window is crowded, so a total off by more than the allowance alone fails
    low = ZeroCache(4, 1, 100.0, tuple(r for r in cache100.records if abs(r.gamma) <= 80.0))
    rep = count_check(low)
    assert rep.bad_windows == ()
    assert rep.deviation > rep.allowed and not rep.passed


def test_rescans_recover_zeros_the_total_misses():
    """At q=163, chi 53, T=60 the sign changes of the grids over [0, 60] of
    chi and of its conjugate (mirrored) give 118 zeros and the total passes
    on them; only the rescans of the dips add the other four."""
    import factorrace.zeros as zmod

    chi = character(163, 53)
    gammas = []
    for c, sign in ((chi, 1.0), (conjugate_character(chi), -1.0)):
        grid = zmod._scan_grid(c, zmod._point(c, 0.0), zmod._point(c, 60.0))
        gammas += [sign * g for g, _ in zmod._sign_changes(c, grid)]
    first = ZeroCache(163, 53, 60.0, tuple(ZeroRecord(g, 1j, 0.0) for g in sorted(gammas)))
    assert first.count == 118
    assert count_check(first).passed
    assert scan_zeros(chi, 60.0).count == 122


@pytest.mark.parametrize(
    "q, index, t_max, count, recovered",
    [
        # the first two in the end step of the conjugate's (chi 60's) grid, found at the quarter step
        (163, 102, 70.0, 145, (-69.9911, -69.9146, 62.7134, 62.8881)),
        (163, 102, 71.0, 147, (62.7134, 62.8881)),
        (125, 1, 60.0, 117, (-44.0302, -44.0025)),  # 0.028 apart: only the sixteenth step finds them
    ],
)
def test_dip_rescans_recover_close_pairs(q, index, t_max, count, recovered):
    """Pairs of zeros inside one grid step, which no count check notices:
    the rescans of the dip of |Z| between them find both."""
    chi = character(q, index)
    cache = scan_zeros(chi, t_max)
    assert cache.count == count
    for g in recovered:
        oracle = bisect_sign_change(lambda t: rotated_z(chi, t), g - 0.01, g + 0.01)
        assert oracle is not None
        assert min(abs(r.gamma - oracle) for r in cache.records) < 1e-11 * abs(oracle), g


def _points(ts, zs, dzs):
    """Point records (t, Z, Z', LValue) without LValues, which `_dips` does not read."""
    return [(t, z, dz, None) for t, z, dz in zip(ts, zs, dzs)]


def _dip_ends(points):
    import factorrace.zeros as zmod

    return [(lo[0], hi[0]) for lo, hi in zmod._dips(points)]


def test_a_dip_is_a_step_where_abs_z_turns_back():
    """Z = (t - 1.3)(t - 1.6) keeps its sign at the grid points 1 and 2
    while sign(Z) Z' falls below 0 at 1 and rises above it at 2: the step
    [1, 2] holds a minimum of |Z| (here the pair of zeros) and is yielded,
    as its two point records, for -Z as well.  On [0, 1] and [2, 3] |Z| is
    monotone, so they are not."""
    import factorrace.zeros as zmod

    ts = [0.0, 1.0, 2.0, 3.0]
    zs = [(t - 1.3) * (t - 1.6) for t in ts]
    dzs = [2 * t - 2.9 for t in ts]
    points = _points(ts, zs, dzs)
    assert list(zmod._dips(points)) == [(points[1], points[2])]
    assert _dip_ends(_points(ts, [-z for z in zs], [-dz for dz in dzs])) == [(1.0, 2.0)]


def test_a_monotone_or_sign_changing_step_is_no_dip():
    """|Z| falling at both ends, rising at both ends, or a sign change
    whose slopes fit a dip: none of these steps is yielded."""
    assert _dip_ends(_points([0.0, 1.0], [1.0, 0.2], [-1.0, -0.5])) == []
    assert _dip_ends(_points([0.0, 1.0], [-0.2, -1.0], [-0.5, -1.0])) == []
    assert _dip_ends(_points([0.0, 1.0], [0.5, -0.5], [-1.0, -1.0])) == []


def test_a_zero_slope_at_the_left_end_counts_as_falling():
    """A real character's Z is even, so its scan starts at t = 0 with Z' = 0
    exactly: [0, 1] is a dip when |Z| rises at 1, and not when it falls there."""
    import factorrace.zeros as zmod

    assert zmod._z_and_l(character(4, 1), 0.0)[1] == 0.0
    assert zmod._z_and_l(character(163, 81), 0.0)[1] == 0.0
    assert _dip_ends(_points([0.0, 1.0], [1.0, 0.5], [0.0, 1.0])) == [(0.0, 1.0)]
    assert _dip_ends(_points([0.0, 1.0], [-1.0, -0.5], [0.0, -1.0])) == [(0.0, 1.0)]
    assert _dip_ends(_points([0.0, 1.0], [1.0, 0.5], [0.0, -1.0])) == []


def test_even_order_dip_warns_and_adds_nothing(chi4, monkeypatch):
    """A Z that touches 0 at a grid point without changing sign is reported
    as a possible even-order zero, not counted as one."""
    import factorrace.zeros as zmod
    from factorrace.lfunction import LValue

    touch = zmod._grid_step(0.0, 4)  # the second grid point of [0, T]

    def z_and_l(chi, t):
        z = ((t - touch) ** 2 + 1e-12) * (t - 3.7)
        dz = 2 * (t - touch) * (t - 3.7) + (t - touch) ** 2 + 1e-12
        return z, dz, LValue(complex(z), complex(dz))

    monkeypatch.setattr(zmod, "_z_and_l", z_and_l)
    with pytest.warns(RuntimeWarning, match="even-order") as record:
        cache = scan_zeros(chi4, 5.0)
    assert len(record) == 1 and record[0].filename == __file__  # the caller of scan_zeros
    assert [round(g, 9) for g in cache.gammas()] == [-3.7, 3.7]


def test_terms_truncate_once_for_real_and_complex(chi4, cache100):
    terms = cache100.terms(chi4, 30.0)
    half = [r for r in cache100.records if 0 < r.gamma <= 30.0]
    assert terms == [(r.gamma, r.l_prime / complex(0.5, r.gamma)) for r in half]
    chi5 = character(5, 1)
    cache5 = scan_zeros(chi5, 15.0)
    every = [r for r in cache5.records if abs(r.gamma) <= 10.0]
    assert any(r.gamma < 0 for r in every)
    assert cache5.terms(chi5, 10.0) == [(r.gamma, r.l_prime / complex(0.5, r.gamma)) for r in every]
    with pytest.raises(ValueError, match="does not belong"):
        cache100.terms(chi5, 10.0)
    with pytest.raises(ValueError, match="exceeds scanned height"):
        cache100.terms(chi4, 100.5)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_a_conjugate_scan_is_the_mirrored_cache(q, cache15):
    """L(conj s, conj chi) = conj L(s, chi): for every complex pair mod q at
    T=30, the scan of the member of higher index equals conjugate_cache of
    its mate's scan, record for record, and mirroring twice gives the cache
    back.  A real character is its own conjugate."""
    pairs = 0
    for chi in enumerate_characters(q)[1:]:
        mate = conjugate_character(chi)
        if chi.is_real or mate.index < chi.index:
            continue
        cache = scan_zeros(chi, 30.0)
        mirrored = conjugate_cache(cache)
        assert (mirrored.q, mirrored.chi_index, mirrored.t_scanned) == (q, mate.index, 30.0)
        assert scan_zeros(mate, 30.0) == mirrored
        assert conjugate_cache(mirrored) == cache
        pairs += 1
    assert pairs == (q - 3) // 2
    assert conjugate_cache(cache15) == cache15


def test_a_zero_below_the_axis_against_mpmath():
    """A complex character's gamma < 0 zeros come from its conjugate's upper
    half, mirrored: at the first and last of them for chi 1 mod 5, T=30,
    30-digit mpmath gives |L| < 5e-13 and the record's L'."""
    chi = character(5, 1)
    below = [r for r in scan_zeros(chi, 30.0).records if r.gamma < 0]
    assert below
    for r in (below[0], below[-1]):
        (value, derivative), = mp_dirichlet_l(complex(0.5, r.gamma), [chi], dps=30)
        assert abs(value) < 5e-13, r.gamma
        assert abs(r.l_prime - derivative) < 1e-13 * abs(derivative), r.gamma
