import math
import os
import select
import signal
import time
from collections import Counter
from functools import cache

import numpy as np
import pytest

from factorrace import characters as characters_module
from factorrace import cli
from factorrace import sieve as sieve_module
from factorrace._csvio import fmt_float
from factorrace.characters import (
    _root_of_unity,
    character,
    conjugate_character,
    enumerate_characters,
    real_sign_table,
)
from factorrace.density import windowed_density
from factorrace.sieve import (
    BLOCK,
    KINDS,
    SIGN,
    ClassSums,
    SieveConfig,
    checkpoints_csv,
    combined_run,
    default_checkpoints,
    density_scan,
    factor_counts,
    sieve_run,
    twist,
    write_checkpoints_csv,
    write_twists_csv,
)
from oracles import (
    cofactor_sieve_segment,
    mertens_constants,
    sign_fold_reference,
    trial_factor_counts,
    trial_factor_table,
    twist_reference,
)


def primes_upto(n):
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if s[p]:
            s[p * p :: p] = False
    return np.flatnonzero(s)


def test_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(x_max=-1, q=4)
    with pytest.raises(ValueError):
        SieveConfig(x_max=(1 << 40) + 1, q=4)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, q=0)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, q=4, checkpoints=(10, 10))
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, q=4, checkpoints=(50, 200))
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, q=4, ratio=1.0)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100_000, q=4, ratio=1.0000000001)


def test_default_checkpoints():
    cps = default_checkpoints(10)
    assert cps == (10,)
    cps = default_checkpoints(2000)
    assert cps[0] == 1000 and cps[-1] == 2000
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert default_checkpoints(0) == ()


def test_the_default_grid_is_bounded_in_steps():
    """At x_max = 1e8, (1e5)^(1/4096) = 1.002815 is the least ratio whose
    grid terms fit MAX_CHECKPOINTS; below it the grid is refused, and so
    is ratio 1, whose terms never pass x_max."""
    assert len(default_checkpoints(10**8, 1.00282)) == 4090
    for x_max, ratio in ((10**8, 1.00281), (1000, 1.0)):
        with pytest.raises(ValueError, match="more than 4096 checkpoints"):
            default_checkpoints(x_max, ratio)
    assert default_checkpoints(999, 1.0) == default_checkpoints(999) == (999,)
    assert sieve_module.MAX_CHECKPOINTS == 4096 and len(default_checkpoints(1 << 40)) == 1053


def test_class_fold_of_a_long_all_40_piece():
    """The int32 column sums of `_fold_classes`, against an int64 sum: 2^24 + 77
    entries of 40 at q = 1 put 40 * 4096 = 163,840 in each int32 column."""
    piece = np.full((1 << 24) + 77, 40, dtype=np.int8)
    got = sieve_module._fold_classes(piece, 12345, 1)
    assert got.dtype == np.int64
    assert got.tolist() == [int(piece.sum(dtype=np.int64))]


def _pass_counts(x_max, size):
    """The (omega, Omega) rows over [0, x_max] from one pass of `size`-wide segments."""
    return np.concatenate([counts for _, _, counts in _segment_copies(x_max, size)], axis=1)


def test_factor_counts_match_trial_division():
    n_max = 10_000
    tw, tbig = trial_factor_table(n_max)
    for counts in (factor_counts(n_max), _pass_counts(n_max, 1 << 12)):
        assert counts.shape == (len(KINDS), n_max + 1) and counts.dtype == np.int8
        rows = dict(zip(KINDS, counts))
        assert np.array_equal(rows["omega"], tw)
        assert np.array_equal(rows["Omega"], tbig)


def _assert_kernel_matches_reference(x_max, size):
    """The pass's generator, run in-process, against the cofactor oracle."""
    primes = primes_upto(math.isqrt(x_max)).tolist()
    slots = np.empty((2, 2, min(size, x_max + 1)), dtype=np.int8)
    for lo, hi, counts in sieve_module._sieve_pass(x_max, size, slots):
        (w, big), (rw, rbig) = counts, cofactor_sieve_segment(lo, hi, primes)
        assert counts.dtype == np.int8
        assert np.array_equal(w, rw) and np.array_equal(big, rbig), (x_max, size, lo)


# every isqrt(x_max) crossing of the wheel primes 2..13 lies below 400
SMALL_X = list(range(400)) + list(range(400, 3000, 37))


def test_kernel_matches_cofactor_reference():
    for x_max in SMALL_X:
        for size in (97, 65536):
            _assert_kernel_matches_reference(x_max, size)
    for x_max in list(range(170)) + [2999]:  # 13^2 = 169
        _assert_kernel_matches_reference(x_max, 2)
    _assert_kernel_matches_reference(10**6, 1 << 20)
    _assert_kernel_matches_reference(2 * 10**6 + 17, 1 << 20)


def test_kernel_at_the_design_ceiling():
    x_max = sieve_module.MAX_X
    lo = x_max + 1 - (1 << 16)
    w, big = sieve_module._sieve_segment(lo, x_max + 1, sieve_module._tables(x_max))
    rw, rbig = cofactor_sieve_segment(lo, x_max + 1, primes_upto(math.isqrt(x_max)).tolist())
    assert np.array_equal(w, rw) and np.array_equal(big, rbig)
    largest_prime = lo + int(np.flatnonzero(big == 1)[-1])
    for n in (x_max, x_max - 1, largest_prime):
        assert (w[n - lo], big[n - lo]) == trial_factor_counts(n)


def _pattern_powers():
    """(p^k, p) for every power with k >= 2 that divides POWER_PERIOD."""
    period = sieve_module.POWER_PERIOD
    return [(p**k, p) for p in (2, 3, 5, 7) for k in range(2, 40) if period % p**k == 0]


def test_pattern_powers_enter_only_below_x_max():
    """x_max on each side of every power the pattern tiles and of its period,
    so that a power above x_max never enters the pattern: at n = 0 the
    pattern holds the word of every tiled power up to x_max, and no other."""
    assert [pk for pk, _ in _pattern_powers()] == [4, 8, 16, 32, 9, 25]
    edges = {3599, 3600, 3601}
    for v in [pk for pk, _ in _pattern_powers()] + [sieve_module.POWER_PERIOD]:
        edges.update((v - 1, v, v + 1))
    for x_max in sorted(edges):
        words = [sieve_module.POWER_WORD - sieve_module._scaled_log(p) for pk, p in _pattern_powers() if pk <= x_max]
        assert sieve_module._tables(x_max).pattern[0] == sum(words), x_max
        for size in (97, 65536):
            _assert_kernel_matches_reference(x_max, size)


SUB = sieve_module.SUB_BLOCK
PERIOD = sieve_module.POWER_PERIOD


@pytest.mark.parametrize("lo", [0, 10**7 + 13])
@pytest.mark.parametrize(
    "length", [1, 2, PERIOD - 1, PERIOD, PERIOD + 1, SUB - 1, SUB, SUB + 1, 3 * SUB + PERIOD + 12345]
)
def test_kernel_at_sub_block_and_period_edges(lo, length):
    """Segments shorter than a sub-block or the pattern period, and lengths
    that are multiples of neither, from n = 0 and from an unaligned start."""
    x_max = 10**8
    tables = sieve_module._tables(x_max)
    w, big = sieve_module._sieve_segment(lo, lo + length, tables)
    rw, rbig = cofactor_sieve_segment(lo, lo + length, primes_upto(math.isqrt(x_max)).tolist())
    assert np.array_equal(w, rw) and np.array_equal(big, rbig)


@pytest.mark.parametrize("segment_size", [2, 3, 1000, SUB - 1, SUB + 1])
def test_factor_counts_at_odd_segment_sizes(segment_size):
    x_max = 5000 if segment_size < 1000 else 2 * SUB + 4321
    w, big = _pass_counts(x_max, segment_size)
    rw, rbig = cofactor_sieve_segment(0, x_max + 1, primes_upto(math.isqrt(x_max)).tolist())
    assert np.array_equal(w, rw) and np.array_equal(big, rbig)


EXTREME_N = {
    "primes_17_to_43": 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43,  # most sieved primes above 13
    "primorial_31": 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31,  # omega = 11
    "two_to_40": 1 << 40,  # Omega = 40
    "prime_above_root": 1048583,  # the first prime above isqrt(2^40) = 2^20
}


@pytest.fixture(scope="module")
def ceiling():
    """The kernel tables and the cofactor oracle's primes at x_max = 2^40."""
    x_max = sieve_module.MAX_X
    return sieve_module._tables(x_max), primes_upto(math.isqrt(x_max)).tolist()


@pytest.mark.parametrize("what", list(EXTREME_N))
def test_kernel_at_extreme_n(ceiling, what):
    """A window around the n that load one kernel word the most, at x_max = 2^40."""
    tables, primes = ceiling
    n = EXTREME_N[what]
    lo, hi = n - 1000, min(n + 1000, sieve_module.MAX_X + 1)
    w, big = sieve_module._sieve_segment(lo, hi, tables)
    rw, rbig = cofactor_sieve_segment(lo, hi, primes)
    assert np.array_equal(w, rw) and np.array_equal(big, rbig), what
    assert (w[n - lo], big[n - lo]) == trial_factor_counts(n), what


@pytest.mark.parametrize("center", [10**10, 10**12])
def test_kernel_at_seeded_windows(center):
    """Three 2^16 windows at seed-drawn offsets just below `center`."""
    x_max = center + (1 << 20)
    tables = sieve_module._tables(x_max)
    primes = primes_upto(math.isqrt(x_max)).tolist()
    rng = np.random.default_rng(20261018)
    for lo in rng.integers(center - (1 << 20), center, size=3).tolist():
        w, big = sieve_module._sieve_segment(lo, lo + (1 << 16), tables)
        rw, rbig = cofactor_sieve_segment(lo, lo + (1 << 16), primes)
        assert np.array_equal(w, rw) and np.array_equal(big, rbig), lo


@pytest.mark.parametrize("x_max", [1, 2, 3, 169, 10**8, 1 << 40])
def test_kernel_error_budget(x_max):
    """The fixed-point rounding of the kernel words stays far from its tests.

    Every table is rebuilt here word by word: the wheel is its carry offset
    plus one word per wheel prime, the power pattern one word per power
    dividing POWER_PERIOD, and the other primes and powers have a word
    each.  Every add and the starting step log are rounded by at most 0.5
    units; at most log2(x_max) adds meet one n.  That budget must stay
    below half of the gap LOG_SCALE * 0.5 * log(s + 1) between a residual
    with and one without a large prime, and the cut must sit at least the
    budget away from both.  The carry offset must then leave the low 16
    bits of an n without a large prime in [0, 2^16), so nothing carries
    into omega, and put those of an n with one in [2^16, 2^17), so exactly
    one carries.
    """
    scale = sieve_module.LOG_SCALE
    prime_word, power_word = sieve_module.PRIME_WORD, sieve_module.POWER_WORD
    t = sieve_module._tables(x_max)
    s = math.isqrt(x_max)
    primes = primes_upto(s).tolist()
    wheel_primes = [p for p in primes if p <= sieve_module.WHEEL_MAX]
    assert t.primes.tolist() == primes[len(wheel_primes) :]
    assert t.dense == sum(p < sieve_module.DENSE_MAX for p in t.primes.tolist())
    offset = int(t.wheel[1])
    cut = (1 << 16) - 1 - offset
    # (the word, the prime whose log it takes, PRIME_WORD or POWER_WORD)
    adds = [(int(t.wheel[p]) - offset, p, prime_word) for p in wheel_primes]
    adds += [(int(word), p, prime_word) for word, p in zip(t.words.tolist(), t.primes.tolist())]
    wheel = np.full(len(t.wheel), offset, dtype=np.int64)
    for word, p, _ in adds[: len(wheel_primes)]:
        wheel[::p] += word
    assert np.array_equal(wheel, t.wheel)

    base = {}
    for p in primes:
        pk = p * p
        while pk <= x_max:
            base[pk] = p
            pk *= p
    period = sieve_module.POWER_PERIOD
    tiled = sorted(pk for pk in base if period % pk == 0)
    assert t.powers.tolist() == sorted(set(base) - set(tiled))
    pattern = np.zeros(len(t.pattern), dtype=np.int64)
    for pk in tiled:  # pattern[pk] holds the words of pk and of every lower power of its prime
        word = int(t.pattern[pk]) - int(t.pattern[pk // base[pk]])
        adds.append((word, base[pk], power_word))
        pattern[::pk] += word
    assert np.array_equal(pattern, t.pattern)
    adds += [(int(word), base[pk], power_word) for word, pk in zip(t.power_words.tolist(), t.powers.tolist())]
    assert len(adds) == len(primes) + len(base)
    rounding = 0.0
    for word, p, unit in adds:
        scaled = unit - word
        assert 0 < scaled < 1 << 16, (word, p)
        rounding = max(rounding, abs(scaled - scale * math.log(p)))
    assert rounding <= 0.5

    window = [(0, min(x_max + 1, 4096)), (max(0, x_max + 1 - 4096), x_max + 1)]
    step_error = 0.0
    for lo, hi in window:
        n = np.maximum(np.arange(lo, hi, dtype=np.float64), 1.0)
        start = sieve_module._scaled_logs(lo, hi)
        step_error = max(step_error, float(np.abs(start - scale * np.log(n)).max()))
    assert step_error <= 0.5 + 1e-9

    budget = max(0, x_max.bit_length() - 1) * rounding + 0.5 + 1e-9
    gap = scale * 0.5 * math.log(s + 1)
    assert budget < 0.5 * gap, (budget, gap)
    assert budget <= cut <= 2 * gap - budget
    assert 0 <= offset - budget and offset + budget < 1 << 16  # no large prime: no carry
    assert offset + 2 * gap - budget >= 1 << 16  # a large prime: one carry
    top = int(sieve_module._scaled_logs(x_max, x_max + 1)[0])
    assert offset + top + budget < 1 << 17  # and never two


def test_class_sums_toy_x10():
    sums = sieve_run(SieveConfig(x_max=10, q=4, checkpoints=(10,)))
    w, big = sums.counts
    # omega over 1,5,9 -> 0+1+1 = 2; over 3,7 -> 1+1 = 2
    assert int(w[0, 1]) == 2
    assert int(w[0, 3]) == 2
    # Omega over 1,5,9 -> 0+1+2 = 3; over 3,7 -> 2
    assert int(big[0, 1]) == 3
    assert int(big[0, 3]) == 2


def test_x_max_one_and_zero():
    sums = sieve_run(SieveConfig(x_max=1, q=4, checkpoints=(1,)))
    assert int(sums.counts.sum()) == 0
    empty = sieve_run(SieveConfig(x_max=0, q=4))
    assert empty.checkpoints == ()
    assert empty.counts.shape == (2, 0, 4)


@pytest.mark.parametrize("x", [100, 1000, 10_000])
def test_prime_floor_identity(x):
    sums = sieve_run(SieveConfig(x_max=x, q=4, checkpoints=(x,)))
    lhs = int(sums.counts[0, 0].sum())
    rhs = sum(x // int(p) for p in primes_upto(x))
    assert lhs == rhs


def test_sum_omega_1000():
    sums = sieve_run(SieveConfig(x_max=1000, q=1, checkpoints=(1000,)))
    assert int(sums.counts[0, 0].sum()) == 2126
    oracle = sum(trial_factor_counts(n)[0] for n in range(1, 1001))
    assert oracle == 2126


def test_class_sums_monotone_and_omega_dominance():
    cps = (1, 2, 3, 4, 10, 50, 200)
    sums = sieve_run(SieveConfig(x_max=200, q=4, checkpoints=cps))
    assert np.all(np.diff(sums.counts, axis=1) >= 0)
    for i, x in enumerate(cps):
        total_w, total_W = sums.counts[:, i].sum(axis=1).tolist()
        if x <= 3:
            assert total_w == total_W
        else:
            assert total_W > total_w


def test_determinism_across_segment_size(monkeypatch, chi4):
    x = 3 * 10**5
    cfg = SieveConfig(x_max=x, q=4)
    ref_sums, ref_dens = combined_run(cfg, chi4)
    for seg in [1 << 16, 3 * BLOCK, 1 << 18, 1 << 20]:
        monkeypatch.setattr(sieve_module, "SEGMENT", seg)
        sums, dens = combined_run(cfg, chi4)
        assert np.array_equal(sums.counts, ref_sums.counts)
        # floating harmonic measures must be bit-identical, not just close
        assert dens.h == ref_dens.h
        assert dens.trace == ref_dens.trace
        assert dens.psi_final == ref_dens.psi_final


def test_twist_toy_values(chi4):
    sums = sieve_run(SieveConfig(x_max=10, q=4, checkpoints=(10,)))
    pw, pW = twist(sums, chi4, 10)
    assert pw == 0 + 0j
    assert pW == 1 + 0j
    chi1 = enumerate_characters(1)[0]
    sums1 = sieve_run(SieveConfig(x_max=1000, q=1, checkpoints=(1000,)))
    assert twist(sums1, chi1, 1000)[0] == 2126 + 0j


def test_twist_errors(chi4):
    sums = sieve_run(SieveConfig(x_max=10, q=4, checkpoints=(10,)))
    chi7 = enumerate_characters(7)[1]
    with pytest.raises(ValueError):
        twist(sums, chi7, 10)
    with pytest.raises(ValueError):
        twist(sums, chi4, 7)  # not a checkpoint


def test_twist_real_is_exact_integer(chi4):
    sums = sieve_run(SieveConfig(x_max=5000, q=4, checkpoints=(1000, 5000)))
    for x in (1000, 5000):
        pw, pW = twist(sums, chi4, x)
        assert pw.imag == 0.0 and pW.imag == 0.0
        assert pw.real == int(pw.real) and pW.real == int(pW.real)


def test_twist_conjugation_symmetry():
    chars = enumerate_characters(7)
    sums = sieve_run(SieveConfig(x_max=10_000, q=7, checkpoints=(100, 1000, 10_000)))
    by_exp = {tuple(c.generator_exponents): c for c in chars}
    for chi in chars:
        conj = by_exp[tuple((-e) % s for e, s in zip(chi.generator_exponents, (6,)))]
        for x in sums.checkpoints:
            pw, pW = twist(sums, chi, x)
            qw, qW = twist(sums, conj, x)
            assert abs(qw - pw.conjugate()) < 1e-9 * (1 + abs(pw))
            assert abs(qW - pW.conjugate()) < 1e-9 * (1 + abs(pW))


def test_twist_complex_character_brute_force():
    from factorrace.characters import evaluate

    chi = enumerate_characters(5)[1]
    x = 1000
    sums = sieve_run(SieveConfig(x_max=x, q=5, checkpoints=(x,)))
    pw, pW = twist(sums, chi, x)
    tw, tbig = trial_factor_table(x)
    brute_w = sum(evaluate(chi, n) * int(tw[n]) for n in range(1, x + 1))
    brute_W = sum(evaluate(chi, n) * int(tbig[n]) for n in range(1, x + 1))
    assert abs(pw - brute_w) < 1e-9
    assert abs(pW - brute_W) < 1e-9


TWIST_CHECKPOINTS = (1, 2, 10, 100, 999, 5000, 30_000)


def _twist_rows(path):
    """{(x, chi index): [re psi_omega, im psi_omega, re psi_Omega, im psi_Omega]}
    as the strings of a twists.csv, in file order."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        x, _, index, *fields = line.split(",")
        rows[int(x), int(index)] = fields
    return rows


def _assert_twists_match_reference(tmp_path, chis):
    """Every row of a real character exactly as formatted from its
    twist_reference; every complex row, its own or mirrored from its
    conjugate's, within the twist tolerance 1e-13 * sum|S_f| + 1e-12 of its
    own twist_reference; and `twist` exactly the row written."""
    # checkpoints below q leave classes empty, so zero exponent counts occur
    q = chis[0].modulus
    sums = sieve_run(SieveConfig(x_max=30_000, q=q, checkpoints=TWIST_CHECKPOINTS))
    path = tmp_path / "twists.csv"
    write_twists_csv(sums, chis, str(path))
    rows = _twist_rows(path)
    assert list(rows) == [(x, chi.index) for x in TWIST_CHECKPOINTS for chi in chis]
    for k, x in enumerate(TWIST_CHECKPOINTS):
        for chi in chis:
            fields = rows[x, chi.index]
            reference = twist_reference(sums, chi, x)
            if chi.is_real:
                assert fields == [fmt_float(v) for p in reference for v in (p.real, p.imag)], (x, chi.index)
                continue
            got = (complex(float(fields[0]), float(fields[1])), complex(float(fields[2]), float(fields[3])))
            for p, own, counts in zip(got, reference, sums.counts[:, k]):
                assert abs(p - own) <= 1e-13 * float(np.abs(counts).sum()) + 1e-12, (x, chi.index)
    for x in (1, 999, 30_000):
        for chi in chis[:: max(1, len(chis) // 7)]:
            pw, pW = twist(sums, chi, x)
            assert [fmt_float(v) for v in (pw.real, pw.imag, pW.real, pW.imag)] == rows[x, chi.index]


# 840: 192 characters, many of one order; 997: 996 characters, orders up to 996
@pytest.mark.parametrize("q", [1, 4, 5, 8, 24, 60, 63, 163, 840, 997, 1000])
def test_twists_csv_matches_unbatched_reference(tmp_path, q):
    _assert_twists_match_reference(tmp_path, enumerate_characters(q))


def test_twists_csv_any_character_order(tmp_path):
    """Reversed, and with the first character of each kernel dropped, so that
    the products of `_twist` hold other characters than in the canonical
    order and some mirrored characters' conjugates must be built."""
    seen, rest = set(), []
    for chi in enumerate_characters(1000):
        kernel = (chi.value_exponents == 0).tobytes()
        if kernel in seen:
            rest.append(chi)
        seen.add(kernel)
    assert len(seen) == 36
    _assert_twists_match_reference(tmp_path, rest[::-1])


@cache
def _exact_roots(d):
    """exp(2 pi i e / d) for e < d at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        return [mpmath.expjpi(mpmath.mpf(2 * e) / d) for e in range(d)]


@pytest.mark.parametrize("q", [13, 840, 1000])
def test_twists_csv_is_within_1e15_of_the_exact_sum(tmp_path, q):
    """Sampled rows of twists.csv against the 40-digit sum of the exact
    exponent counts, sum_e (sum of S_f(x; a) over the a with exponent e)
    * exp(2 pi i e / d): within 1e-15 * sum|S_f|, a bound fixed before the
    first run, and exact, +0.0 imaginary parts included, for real
    characters.  `twist` of each sampled row is the row written."""
    import mpmath

    xs = (1, 10, 999) + default_checkpoints(10**6, 1.1)
    sums = sieve_run(SieveConfig(x_max=10**6, q=q, checkpoints=xs))
    chis = enumerate_characters(q)
    path = tmp_path / "twists.csv"
    write_twists_csv(sums, chis, str(path))
    rows = _twist_rows(path)
    for k, x in list(enumerate(xs))[::6] + [(len(xs) - 1, xs[-1])]:
        for chi in chis[:: max(1, len(chis) // 24)]:
            assert [fmt_float(v) for p in twist(sums, chi, x) for v in (p.real, p.imag)] == rows[x, chi.index]
            fields = [float(v) for v in rows[x, chi.index]]
            units = chi.value_exponents >= 0
            for f, counts in enumerate(sums.counts[:, k]):
                acc = np.zeros(chi.order, dtype=np.int64)
                np.add.at(acc, chi.value_exponents[units], counts[units])
                re, im = fields[2 * f : 2 * f + 2]
                if chi.is_real:
                    assert (re, im) == (int(acc[0]) - (int(acc[1]) if chi.order == 2 else 0), 0.0)
                    assert math.copysign(1.0, im) == 1.0, (x, chi.index)
                    continue
                with mpmath.workdps(40):
                    exact = mpmath.fsum(int(c) * root for c, root in zip(acc, _exact_roots(chi.order)))
                    error = abs(mpmath.mpc(re, im) - exact)
                assert error <= 1e-15 * float(np.abs(counts).sum()), (x, chi.index, f, float(error))


@pytest.mark.parametrize("q", [5, 13, 840, 1000])
def test_mirrored_rows_are_exact_conjugates(tmp_path, q):
    """Every conjugate pair: the row of the member with the higher index is
    its mate's row with the sign of each imaginary part flipped, the +0 of
    an empty checkpoint's twist (x = 1) written as -0."""
    sums = sieve_run(SieveConfig(x_max=30_000, q=q, checkpoints=TWIST_CHECKPOINTS))
    chis = enumerate_characters(q)
    path = tmp_path / "twists.csv"
    write_twists_csv(sums, chis, str(path))
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        x, _, index, *values = line.split(",")
        rows[int(x), int(index)] = values

    def flip(s):
        return s[1:] if s.startswith("-") else "-" + s

    pairs = 0
    for chi in chis:
        mate = conjugate_character(chi)
        if mate.index >= chi.index:
            continue
        pairs += 1
        for x in TWIST_CHECKPOINTS:
            re_w, im_w, re_W, im_W = rows[x, mate.index]
            assert rows[x, chi.index] == [re_w, flip(im_w), re_W, flip(im_W)]
        assert rows[1, mate.index] == ["0", "0", "0", "0"]
        assert rows[1, chi.index] == ["0", "-0", "0", "-0"]
    assert 2 * pairs == sum(not chi.is_real for chi in chis) > 0


def test_twists_build_roots_once_per_order(tmp_path, monkeypatch):
    """A write of three blocks, one checkpoint each, with the root and value
    row caches cleared, calls `_root_of_unity` exactly d times per order d,
    real orders included, as every character's values are read from its
    order's table: the root tables of `characters.roots_of_unity` outlive
    the blocks."""
    q = 1000
    sums = sieve_run(SieveConfig(x_max=20_000, q=q, checkpoints=(5000, 10_000, 20_000)))
    chis = enumerate_characters(q)
    calls = []

    def counted(e, d):
        calls.append(d)
        return _root_of_unity(e, d)

    monkeypatch.setattr(characters_module, "_root_of_unity", counted)
    monkeypatch.setattr(sieve_module, "TWIST_ELEMENTS", 2 * q)
    characters_module.roots_of_unity.cache_clear()
    characters_module.value_row.cache_clear()
    write_twists_csv(sums, chis, str(tmp_path / "twists.csv"))
    assert Counter(calls) == {d: d for d in {chi.order for chi in chis}}


def _cold_character_caches():
    """Empty the process-long caches of `characters`, so that a traced peak
    is that of a first write in a fresh process, whatever ran before."""
    cm = characters_module
    for cached in (cm.roots_of_unity, cm.value_row, cm._group_structure, cm._all_characters):
        cached.cache_clear()


def test_twists_csv_memory_is_bounded_by_its_block(tmp_path, monkeypatch):
    """At q = 2003 with 600 checkpoints (19 MB of class sums) write_twists_csv
    twists one block of checkpoints at a time: its peak traced memory stays
    below 12 MB, where the whole-matrix gather and exponent counts took
    about three times the sums.  A real character and one of order 2002
    are twisted, their sums cut into two slices, and the bytes do not
    depend on the block size."""
    import tracemalloc

    q, n = 2003, 600
    rng = np.random.default_rng(2003)
    xs = tuple(range(10_000, 10_000 + 100 * n, 100))
    omega = rng.integers(0, 10**9, size=(n, q), dtype=np.int64)
    sums = ClassSums(q, xs[-1], xs, np.stack([omega, omega + rng.integers(0, 10**6, size=(n, q), dtype=np.int64)]))
    chis = [next(c for c in enumerate_characters(q) if c.is_real and not c.is_principal), character(q, 5)]
    assert chis[1].order == 2002
    path = tmp_path / "twists.csv"
    _cold_character_caches()
    tracemalloc.start()
    try:
        write_twists_csv(sums, chis, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak
    assert sieve_module.TWIST_ELEMENTS // (2 * q) < n  # more than one block
    monkeypatch.setattr(sieve_module, "TWIST_ELEMENTS", 2 * q * 7)
    write_twists_csv(sums, chis, str(tmp_path / "small.csv"))
    assert (tmp_path / "small.csv").read_bytes() == path.read_bytes()


def test_twist_rows_are_formatted_one_checkpoint_at_a_time(tmp_path):
    """Every character mod 1000 at the 98 checkpoints of x_max = 1e7, ratio
    1.1, in one block: the traced peak stays under the block's complex
    array of twists, one copy of its class sums (the float64 gather of the
    unit columns in `_twist`) and one checkpoint's rows.  Formatting every
    row of the block before writing one took about five times the complex
    array."""
    import sys
    import tracemalloc

    q = 1000
    xs = default_checkpoints(10**7, 1.1)
    n = len(xs)
    assert n == 98 and sieve_module.TWIST_ELEMENTS // (2 * q) >= n  # one block
    omega = np.cumsum(np.random.default_rng(98).integers(0, 30_000, size=(n, q)), axis=0)
    sums = ClassSums(q, xs[-1], xs, np.stack([omega, 2 * omega]))
    chis = enumerate_characters(q)
    path = tmp_path / "twists.csv"
    _cold_character_caches()
    tracemalloc.start()
    try:
        write_twists_csv(sums, chis, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + n * len(chis)
    one_checkpoint = sum(sys.getsizeof(line) for line in lines[-len(chis) :])
    psi = 2 * n * len(chis) * np.dtype(np.complex128).itemsize
    assert peak < psi + sums.counts.nbytes + one_checkpoint, (peak, psi, one_checkpoint)


@pytest.mark.parametrize("q", [1, 4, 163, 1000])
def test_class_sums_match_factor_counts(monkeypatch, q):
    x_max = 3 * BLOCK + 500
    # BLOCK - 1 ends the first segment of size BLOCK; the pieces ending at
    # BLOCK, BLOCK + 1 and BLOCK + 4 are 1, 1 and 3 long, shorter than q > 4
    cps = (7, 999, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 4, 2 * BLOCK, 3 * BLOCK + 17)
    ref = np.array(
        [[[f[a : x + 1 : q].sum(dtype=np.int64) for a in range(q)] for x in cps] for f in factor_counts(x_max)]
    )
    for seg in (BLOCK, 2 * BLOCK, 1 << 20):
        monkeypatch.setattr(sieve_module, "SEGMENT", seg)
        sums = sieve_run(SieveConfig(x_max=x_max, q=q, checkpoints=cps))
        assert np.array_equal(sums.counts, ref)


def test_density_trace_brute_force(chi4):
    from factorrace.characters import evaluate

    x_max = 200
    cps = (50, 100, 200)
    dens = density_scan(SieveConfig(x_max=x_max, q=4, checkpoints=cps), chi4)
    tw, tbig = trial_factor_table(x_max)
    run_w = run_W = 0
    h_w = h_W = 0.0
    brute = {}
    for n in range(1, x_max + 1):
        c = int(evaluate(chi4, n).real)
        run_w += c * int(tw[n])
        run_W += c * int(tbig[n])
        if run_w < 0:
            h_w += 1 / n
        if run_W > 0:
            h_W += 1 / n
        brute[n] = (h_w, h_W)
    for (x, dw, dW) in dens.trace:
        assert dw == pytest.approx(brute[x][0] / math.log(x), rel=1e-12)
        assert dW == pytest.approx(brute[x][1] / math.log(x), rel=1e-12)
    assert dens.psi_final == (run_w, run_W)
    # x_max is the last checkpoint: the full-range delta is its trace row, bit for bit
    assert [d.hex() for d in dens.delta] == [d.hex() for d in dens.trace[-1][1:]]
    for x0 in (50, 100):
        span = math.log(x_max / x0)
        win_w, win_W = windowed_density(dens, x0)
        assert win_w == pytest.approx((brute[x_max][0] - brute[x0][0]) / span, rel=1e-12)
        assert win_W == pytest.approx((brute[x_max][1] - brute[x0][1]) / span, rel=1e-12)
    for bad in (75, 200, 0):  # not a checkpoint; empty window; below 1
        with pytest.raises(ValueError):
            windowed_density(dens, bad)


def test_density_toy_x10(chi4):
    dens = density_scan(SieveConfig(x_max=10, q=4, checkpoints=(10,)), chi4)
    assert dens.h[1] == pytest.approx(1 / 9 + 1 / 10, rel=1e-14)
    assert dens.h[0] == pytest.approx(1 / 3 + 1 / 4 + 1 / 7 + 1 / 8, rel=1e-14)
    assert dens.delta[1] == pytest.approx((1 / 9 + 1 / 10) / math.log(10), rel=1e-12)
    assert dens.trace[0][0] == 10
    assert dens.psi_final == (0, 1)


def test_density_x2_zero(chi4):
    dens = density_scan(SieveConfig(x_max=2, q=4, checkpoints=(2,)), chi4)
    assert dens.delta == (0.0, 0.0)


def test_density_domain_errors():
    cfg = SieveConfig(x_max=100, q=5, checkpoints=(100,))
    complex_chi = enumerate_characters(5)[1]
    with pytest.raises(ValueError):
        density_scan(cfg, complex_chi)
    principal = enumerate_characters(5)[0]
    with pytest.raises(ValueError):
        density_scan(cfg, principal)
    chi4 = enumerate_characters(4)[1]
    with pytest.raises(ValueError):
        density_scan(cfg, chi4)  # modulus mismatch


def test_density_bounds(chi4):
    dens = density_scan(SieveConfig(x_max=10**5, q=4), chi4)
    h_max = math.log(10**5) + 0.58
    for h in dens.h:
        assert 0.0 <= h <= h_max
    for _, dw, dW in dens.trace:
        assert 0.0 <= dw <= 1.0 + 1e-12
        assert 0.0 <= dW <= 1.0 + 1e-12


@pytest.mark.parametrize("segment_size", [BLOCK, 1 << 20])
@pytest.mark.parametrize(
    "q, index, x_max, h_omega, h_big_omega, psi_omega, psi_big_omega",
    [
        (4, 1, 10**6, "0x1.69ee14b51a50dp+3", "0x1.30524d2dd5736p+3", -54, 56),
        (24, 3, 10**6, "0x1.1ecbad7196708p+3", "0x1.7be934337b116p+3", -117, 199),
        # the first of these sizes where a plain sum of the block sums differs
        (4, 1, 2 * 10**6, "0x1.801c572ddccffp+3", "0x1.46808fa697f28p+3", -70, 78),
    ],
)
def test_density_bits(monkeypatch, q, index, x_max, h_omega, h_big_omega, psi_omega, psi_big_omega, segment_size):
    """The exact H_f bits of the block-pairwise, Neumaier-folded sums."""
    chi = enumerate_characters(q)[index]
    monkeypatch.setattr(sieve_module, "SEGMENT", segment_size)
    dens = density_scan(SieveConfig(x_max=x_max, q=q), chi)
    assert tuple(h.hex() for h in dens.h) == (h_omega, h_big_omega)
    assert dens.psi_final == (psi_omega, psi_big_omega)


@pytest.mark.parametrize("x_max, trace", [(0, ()), (1, ((1, 0.0, 0.0),))])
def test_density_of_an_empty_range(chi4, x_max, trace):
    dens = density_scan(SieveConfig(x_max=x_max, q=4), chi4)
    assert (*dens.h, *dens.delta) == (0.0,) * 4
    assert dens.trace == trace
    assert dens.psi_final == (0, 0)


def _walks(chi, counts, start):
    """SIGN[f] * psi_f(n) for every n the counts cover, from `start`, by int64 cumsums."""
    chi_n = np.resize(real_sign_table(chi).astype(np.int64), len(counts[0]))
    return [s + np.cumsum(sign * chi_n * f, dtype=np.int64) for s, sign, f in zip(start, SIGN.values(), counts)]


def _block_kind(walk):
    return "biased" if walk.min() > 0 else "unbiased" if walk.max() <= 0 else "mixed"


def _segment_copies(x_max, size):
    """Every segment of a pass, copied: the pass's views last one step."""
    return [(lo, hi, counts.copy()) for lo, hi, counts in sieve_module._segments(x_max, size)]


def _folds(cfg, chi, segments, start):
    """The sign fold and its reference after the same segments from the same running psi."""
    fold, ref = sieve_module._SignFold(cfg, chi), sieve_module._SignFold(cfg, chi)
    fold.run, ref.run = list(start), list(start)
    for lo, _, counts in segments:
        fold.add(lo, counts)
        sign_fold_reference(ref, lo, counts)
    return fold, ref


def _fold_both(cfg, chi, segments, start):
    fold, ref = _folds(cfg, chi, segments, start)
    return fold.result(), ref.result()


def _assert_same_bits(got, want, where):
    def bits(d):
        trace = [(x, dw.hex(), dW.hex()) for x, dw, dW in d.trace]
        return [h.hex() for h in d.h], trace, d.psi_final

    assert bits(got) == bits(want), where


def test_sign_fold_matches_reference():
    """Every H_f bit, the trace and psi_f as the whole-segment fold gives them.

    Each race runs twice: from psi = 0, and with the running SIGN[f] * psi_f
    shifted to 0 at x_max / 2, so that the early blocks of a growing race
    are unbiased throughout.  Checkpoints sit at the first block boundary
    and in the middle of the first biased, unbiased and mixed block of each
    walk; the last block is partial.
    """
    x_max = (1 << 20) + 5 * BLOCK + 1234
    counts = factor_counts(x_max)
    races = [(4, 1), (5, 2), (8, 1), (12, 3), (24, 3), (163, 81)]
    segments = {size: _segment_copies(x_max, size) for size in (BLOCK, 3 * BLOCK, 1 << 20)}
    seen = set()
    for q, index in races:
        chi = enumerate_characters(q)[index]
        natural = _walks(chi, counts, (0, 0))
        for start in ((0, 0), tuple(-int(w[x_max // 2]) for w in natural)):
            cps = {BLOCK - 1, BLOCK, BLOCK + 1}
            for walk in _walks(chi, counts, start):
                first = {}
                for a in range(0, x_max + 1, BLOCK):
                    first.setdefault(_block_kind(walk[a : a + BLOCK]), a)
                cps.update(a + BLOCK // 2 for a in first.values() if a + BLOCK // 2 <= x_max)
                seen.update(first)
            cfg = SieveConfig(x_max=x_max, q=q, checkpoints=tuple(sorted(cps)))
            for size, segs in segments.items():
                _assert_same_bits(*_fold_both(cfg, chi, segs, start), (q, index, start, size))
    assert seen == {"biased", "unbiased", "mixed"}


@pytest.mark.parametrize("segment_size", [BLOCK, 1 << 20])
@pytest.mark.parametrize("psi", [10**6, -(10**6)])
def test_row_test_settles_blocks_far_from_a_sign_change(chi4, segment_size, psi):
    """With the running SIGN[f] * psi_f at +-1e6, the 64-wide row sums settle
    every whole block, biased or unbiased throughout; the last block, 1001
    long and so not a whole number of rows, takes the exact prefix."""
    x_max = 4 * BLOCK + 1000
    cfg = SieveConfig(x_max=x_max, q=4, checkpoints=(BLOCK // 2, 2 * BLOCK + 77, 4 * BLOCK + 500))
    segments = _segment_copies(x_max, segment_size)
    fold, ref = _folds(cfg, chi4, segments, (psi, psi))
    _assert_same_bits(fold.result(), ref.result(), (segment_size, psi))
    assert (fold.row_blocks, fold.exact_blocks) == ([4, 4], [1, 1])


def _odd_counts(lo, skip, residues):
    """The (omega, Omega) rows with omega = 1 and Omega = 2 at the n = r mod 4
    (r in `residues`) of the block [lo, lo + BLOCK), past its first `skip`
    n; 0 elsewhere.  With the character mod 4, each such n steps the omega
    run by -chi(n) and the Omega run by 2 chi(n)."""
    n = np.arange(lo, lo + BLOCK)
    hit = np.isin(n % 4, residues) & (n >= lo + skip)
    return np.stack([hit, 2 * hit]).astype(np.int8)


@pytest.mark.parametrize(
    "skip, residues, start",
    [
        # Omega falls by 2 at each n = 3 mod 4, 32 per row and 32768 per
        # block, and so reaches 0 at the block's last n; row bounds that are
        # exact there still leave the block open.  omega rises to exactly 0.
        (0, [3], (-16384, 32768)),
        # the run equals the first row's spread: no row test
        (0, [3], (0, 32)),
        # rows of +2, -2 steps after a quiet first row: the row bounds leave
        # the block open, the exact prefix finds Omega biased throughout
        (64, [1, 3], (0, 40)),
    ],
)
def test_blocks_the_row_test_leaves_open(chi4, skip, residues, start):
    lo = 5 * BLOCK
    cfg = SieveConfig(x_max=lo + BLOCK - 1, q=4, checkpoints=(lo + 100, lo + BLOCK // 2))
    fold, ref = _folds(cfg, chi4, [(lo, lo + BLOCK, _odd_counts(lo, skip, residues))], start)
    _assert_same_bits(fold.result(), ref.result(), start)
    assert (fold.row_blocks, fold.exact_blocks) == ([0, 0], [1, 1])


@pytest.mark.parametrize("nrows", [BLOCK // sieve_module.ROW, 5])
def test_row_sums_are_exact(nrows):
    """The float32 product behind `_row_sums` against int64 sums: rows of
    all +40 and all -40 (+-2560), alternating +-40, and seed-drawn steps,
    in a whole block and in a partial one of 5 rows."""
    row = sieve_module.ROW
    steps = np.random.default_rng(11).integers(-40, 41, size=nrows * row).astype(np.int8)
    steps[:row], steps[row : 2 * row], steps[2 * row : 3 * row] = 40, -40, [40, -40] * (row // 2)
    got = sieve_module._row_sums(steps)
    assert got.dtype == np.int64
    assert got.tolist() == steps.reshape(-1, row).sum(axis=1, dtype=np.int64).tolist()
    assert got[:3].tolist() == [2560, -2560, 0]


@pytest.mark.parametrize("sign", [1, -1])
def test_sign_fold_at_the_design_ceiling(sign):
    """n in [2^40 - 2^17, 2^40] with the running psi_f at +-(2^31 + 7).

    The block prefix sums are int32 and the running psi_f is not, so the
    offset added to them must not wrap; the last block holds only 2^40.
    """
    x_max = sieve_module.MAX_X
    lo = x_max - 2 * BLOCK
    chi = enumerate_characters(4)[1]
    cfg = SieveConfig(x_max=x_max, q=4, checkpoints=(lo + BLOCK - 1, lo + BLOCK, x_max - 1))
    counts = sieve_module._sieve_segment(lo, x_max + 1, sieve_module._tables(x_max))
    psi = sign * (2**31 + 7)
    start = [s * psi for s in SIGN.values()]
    got, want = _fold_both(cfg, chi, [(lo, x_max + 1, counts)], start)
    _assert_same_bits(got, want, sign)
    chi_n = real_sign_table(chi)[np.arange(lo, x_max + 1) % 4].astype(np.int64)
    ends = [psi + int(np.cumsum(chi_n * f, dtype=np.int64)[-1]) for f in counts]
    assert list(got.psi_final) == ends


def test_hardy_ramanujan_drift_at_1e6():
    x = 10**6
    sums = sieve_run(SieveConfig(x_max=x, q=1, checkpoints=(x,)))
    a_ref, b_ref = mertens_constants(x)
    drift_w, drift_W = (int(total) / x - math.log(math.log(x)) for total in sums.counts[:, 0].sum(axis=1))
    assert abs(drift_w - a_ref) < 0.05
    assert abs(drift_W - b_ref) < 0.05


def test_psi_final_matches_twist(chi4):
    x = 10**4
    cfg = SieveConfig(x_max=x, q=4, checkpoints=(x,))
    sums, dens = combined_run(cfg, chi4)
    pw, pW = twist(sums, chi4, x)
    assert dens.psi_final == (int(pw.real), int(pW.real))


def test_csv_writers_roundtrip(tmp_path, chi4):
    sums = sieve_run(SieveConfig(x_max=100, q=4, checkpoints=(10, 100)))
    cp_path = tmp_path / "checkpoints.csv"
    tw_path = tmp_path / "twists.csv"
    write_checkpoints_csv(sums, str(cp_path), comment="config=test")
    write_twists_csv(sums, [chi4], str(tw_path), comment="config=test")
    lines = cp_path.read_text().splitlines()
    assert lines[0] == "# config=test"
    assert lines[1] == "x,a,S_omega,S_Omega"
    assert len(lines) == 2 + 2 * 4  # 2 checkpoints x 4 classes
    x, a, sw, sW = lines[2].split(",")
    assert (int(x), int(a)) == (10, 0)
    assert int(sw) == int(sums.counts[0, 0, 0])
    tw_lines = tw_path.read_text().splitlines()
    assert tw_lines[1].startswith("x,q,chi_index")
    first = tw_lines[2].split(",")
    assert first[0] == "10" and first[2] == "1"


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", [0, 3, 6])
def test_helper_error_names_its_segment(monkeypatch, failing):
    """A kernel error in the helper comes back as a RuntimeError naming the
    segment; segment 6 of [0, 6 * BLOCK] is one n long."""
    kernel = sieve_module._sieve_segment

    def broken(lo, hi, t, out=None):
        if lo == failing * BLOCK:
            raise ValueError("broken kernel")
        return kernel(lo, hi, t, out)

    monkeypatch.setattr(sieve_module, "_sieve_segment", broken)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    where = rf"segment {failing} \[{failing * BLOCK}, {min((failing + 1) * BLOCK, 6 * BLOCK + 1)}\)"
    with pytest.raises(RuntimeError, match=where + ": ValueError: broken kernel"):
        sieve_run(SieveConfig(x_max=6 * BLOCK, q=4))
    _assert_no_child()


def test_a_failing_consumer_leaves_no_helper(monkeypatch, chi4):
    add = sieve_module._SignFold.add

    def broken(self, lo, counts):
        if lo == 2 * BLOCK:
            raise KeyError("broken fold")
        add(self, lo, counts)

    monkeypatch.setattr(sieve_module._SignFold, "add", broken)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    with pytest.raises(KeyError, match="broken fold"):
        combined_run(SieveConfig(x_max=6 * BLOCK, q=4), chi4)
    _assert_no_child()


def test_a_closed_pass_leaves_no_helper():
    segments = sieve_module._segments(6 * BLOCK, BLOCK)
    next(segments)
    next(segments)
    segments.close()
    _assert_no_child()


def test_helper_exits_within_a_segment_of_its_parent(monkeypatch):
    """A stand-in parent takes the first segment of a 64-segment pass, waits
    until the helper has sieved the second and waits for a free slot, and
    is killed.  The helper, which logs the start of each segment to a pipe,
    sieves no third: every write end of that pipe closes when the helper
    exits, which reads as EOF here."""
    log_r, log_w = os.pipe()
    kernel = sieve_module._sieve_segment

    def logged(lo, hi, t, out=None):
        os.write(log_w, lo.to_bytes(8, "little"))
        return kernel(lo, hi, t, out)

    monkeypatch.setattr(sieve_module, "_sieve_segment", logged)
    pid = os.fork()
    if pid == 0:
        try:
            segments = sieve_module._segments(64 * BLOCK - 1, BLOCK)
            next(segments)
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(1)
    os.close(log_w)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    log, deadline = b"", time.monotonic() + 30
    try:
        while select.select([log_r], [], [], max(0.0, deadline - time.monotonic()))[0]:
            chunk = os.read(log_r, 4096)
            if not chunk:
                break
            log += chunk
        else:
            pytest.fail("the helper outlived its parent by 30 s")
    finally:
        os.close(log_r)
    starts = [int.from_bytes(log[i : i + 8], "little") for i in range(0, len(log), 8)]
    assert starts in ([0], [0, BLOCK])


@pytest.mark.parametrize("size", [2, 1 << 12, BLOCK, 1 << 20])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_forked_pass_equals_the_in_process_pass(monkeypatch, chi4, size, edge):
    """A pass of `size`-wide segments and `combined_run` at SEGMENT =
    max(size, BLOCK) through the helper, against the same generator run
    in-process (no os.fork), with x_max on a segment edge and one either
    side; each pass forks exactly one helper."""
    fork, forks = os.fork, []

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    x_counts = max(3, 4096 // size) * size + edge - 1
    x_run = 3 * max(size, BLOCK) + edge - 1
    monkeypatch.setattr(sieve_module, "SEGMENT", max(size, BLOCK))
    cfg = SieveConfig(x_max=x_run, q=4, checkpoints=(BLOCK - 1, BLOCK, x_run // 2))
    forked = _pass_counts(x_counts, size), combined_run(cfg, chi4)
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    (w, big), (sums, trace) = forked
    (ref_w, ref_big), (ref_sums, ref_trace) = _pass_counts(x_counts, size), combined_run(cfg, chi4)
    assert np.array_equal(w, ref_w) and np.array_equal(big, ref_big)
    assert np.array_equal(sums.counts, ref_sums.counts)
    _assert_same_bits(trace, ref_trace, (size, edge))


def _leftovers(out):
    """The temp files of the CSV writer left in `out`."""
    return [name for name in os.listdir(out) if name.startswith(".tmp_")]


@pytest.mark.parametrize("before", [None, b"# an earlier run\nx,a,S_omega,S_Omega\n"])
@pytest.mark.parametrize("failing", [0, 3, 6])
def test_a_helper_error_leaves_checkpoints_csv_as_it_was(monkeypatch, tmp_path, failing, before):
    """`sieve` opens checkpoints.csv before its pass; a kernel error in the
    helper leaves no temp file, and no checkpoints.csv or the earlier one."""
    kernel = sieve_module._sieve_segment

    def broken(lo, hi, t, out=None):
        if lo == failing * BLOCK:
            raise ValueError("broken kernel")
        return kernel(lo, hi, t, out)

    monkeypatch.setattr(sieve_module, "_sieve_segment", broken)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    path = tmp_path / "checkpoints.csv"
    if before is not None:
        path.write_bytes(before)
    rc = cli.RunConfig(x_max=6 * BLOCK, q=4, chi="1", out=str(tmp_path))
    with pytest.raises(RuntimeError, match=rf"segment {failing} .*: ValueError: broken kernel"):
        cli.cmd_sieve(rc)
    assert _leftovers(tmp_path) == []
    assert (path.read_bytes() if path.exists() else None) == before
    _assert_no_child()


@pytest.mark.parametrize("before", [None, b"# an earlier run\nx,a,S_omega,S_Omega\n"])
def test_a_failing_consumer_leaves_checkpoints_csv_as_it_was(monkeypatch, tmp_path, before):
    """`all` opens checkpoints.csv before its pass, and the temp file is
    there when the sign fold fails; it goes, and no helper is left."""
    add, seen = sieve_module._SignFold.add, []

    def broken(self, lo, counts):
        if lo == 2 * BLOCK:
            seen.extend(_leftovers(tmp_path))
            raise KeyError("broken fold")
        add(self, lo, counts)

    monkeypatch.setattr(sieve_module._SignFold, "add", broken)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    path = tmp_path / "checkpoints.csv"
    if before is not None:
        path.write_bytes(before)
    rc = cli.RunConfig(x_max=6 * BLOCK, q=4, chi="1", out=str(tmp_path))
    with pytest.raises(KeyError, match="broken fold"):
        cli.cmd_all(rc)
    assert len(seen) == 1
    assert _leftovers(tmp_path) == []
    assert (path.read_bytes() if path.exists() else None) == before
    _assert_no_child()


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("q", [4, 30])
def test_streamed_checkpoints_csv_equals_the_written_one(monkeypatch, tmp_path, chi4, q, forked):
    """checkpoints.csv streamed by a pass of BLOCK-wide segments, with
    checkpoints on the first and the last n of segments, has the bytes of
    `write_checkpoints_csv` of the same sums; so with `os.fork` hidden,
    where every row is written after the pass.  The kernel sleeps a little
    per segment, so that the forked pass writes rows while it waits."""
    kernel = sieve_module._sieve_segment

    def slow(lo, hi, t, out=None):
        time.sleep(0.002)
        return kernel(lo, hi, t, out)

    monkeypatch.setattr(sieve_module, "_sieve_segment", slow)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    if not forked:
        monkeypatch.delattr(os, "fork")
    x_max = 4 * BLOCK
    cps = (1, 1000, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 5, x_max)
    cfg = SieveConfig(x_max=x_max, q=q, checkpoints=cps)
    chi = chi4 if q == 4 else None
    streamed, written = tmp_path / "streamed.csv", tmp_path / "written.csv"
    with checkpoints_csv(str(streamed), "config=test") as write:
        sums, trace = combined_run(cfg, chi, write)
    write_checkpoints_csv(sums, str(written), "config=test")
    assert streamed.read_bytes() == written.read_bytes()
    ref_sums, ref_trace = combined_run(cfg, chi)
    assert np.array_equal(sums.counts, ref_sums.counts) and trace == ref_trace
    assert _leftovers(tmp_path) == []


def test_checkpoint_rows_reach_the_file_while_the_helper_sieves(monkeypatch, tmp_path):
    """`sieve` writes the rows of finished checkpoints while it waits for
    the helper: with the kernel slowed before the last segment, the temp
    file already holds the rows of the first checkpoint, and is a prefix
    of the final file, when the parent folds that segment."""
    kernel, fold = sieve_module._sieve_segment, sieve_module._fold_classes
    last, seen = 6 * BLOCK, []

    def slow(lo, hi, t, out=None):
        if lo == last:
            time.sleep(0.3)
        return kernel(lo, hi, t, out)

    def watched(piece, u, q):
        if u == last:
            seen.extend((tmp_path / name).read_bytes() for name in _leftovers(tmp_path))
        return fold(piece, u, q)

    monkeypatch.setattr(sieve_module, "_sieve_segment", slow)
    monkeypatch.setattr(sieve_module, "_fold_classes", watched)
    monkeypatch.setattr(sieve_module, "SEGMENT", BLOCK)
    rc = cli.RunConfig(x_max=last, q=4, chi="1", out=str(tmp_path))
    cli.cmd_sieve(rc)
    final = (tmp_path / "checkpoints.csv").read_bytes()
    head = b"".join(final.splitlines(keepends=True)[: 2 + rc.q])  # comment, header, the first checkpoint's rows
    assert len(seen) == 1
    assert seen[0].startswith(head) and final.startswith(seen[0])
