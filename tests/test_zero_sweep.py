"""scripts/zero_sweep.py at tiny sizes, so a rename of the private zero-scan
names it wraps fails here rather than in the script."""

import importlib.util
import pathlib

import pytest

from factorrace.characters import character

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "zero_sweep.py"


@pytest.fixture(scope="module")
def zero_sweep():
    spec = importlib.util.spec_from_file_location("zero_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_set_finds_every_reference_sign_change(zero_sweep):
    """q <= 5 at T=10: chi 1 mod 3, chi 1 mod 4 and the three characters
    mod 5, of which chi 1 and chi 3 are complex and checked on [-10, 10];
    chi 3's cache is chi 1's mirrored, so it takes no L-eval."""
    chars = zero_sweep.small_set(5)
    assert [(c.modulus, c.index) for c in chars] == [(3, 1), (4, 1), (5, 1), (5, 2), (5, 3)]
    small = zero_sweep.sweep(chars, 10.0)
    assert small["characters"] == 5
    assert small["found"] == small["reference"] > 0
    assert small["missed"] == [] and small["warned"] == [] and small["raised"] == []
    assert small["l_evals"] > small["found"]
    assert small["l_evals"] == zero_sweep.sweep(chars[:-1], 10.0)["l_evals"]
    assert 0 < small["max_refine_evals"] < zero_sweep.zeros.MAX_REFINE_STEPS
    histogram = small["refine_evals"]
    assert max(histogram) == small["max_refine_evals"]
    assert sum(k * v for k, v in histogram.items()) <= small["l_evals"]


def test_large_set_spreads_its_characters_over_each_modulus(zero_sweep):
    chars = zero_sweep.large_set()
    assert sorted({c.modulus for c in chars}) == list(zero_sweep.LARGE_MODULI)
    assert len(chars) == zero_sweep.PER_Q * len(zero_sweep.LARGE_MODULI)
    assert all(c.is_primitive and not c.is_principal for c in chars)
    mod163 = [c.index for c in chars if c.modulus == 163]
    assert mod163 == [1, 41, 81, 121]


def test_a_scan_that_drops_a_zero_is_counted_as_a_miss(zero_sweep, monkeypatch):
    """The reference grid does not rest on the scan: with the scan's first
    zero taken out, the sweep reports its bracket as missed."""
    scan = zero_sweep.zeros.scan_zeros

    def dropped(chi, t_max):
        cache = scan(chi, t_max)
        first = min((r for r in cache.records if r.gamma > 0), key=lambda r: r.gamma)
        kept = tuple(r for r in cache.records if abs(r.gamma) != first.gamma)
        return zero_sweep.zeros.ZeroCache(cache.q, cache.chi_index, cache.t_scanned, kept)

    monkeypatch.setattr(zero_sweep.zeros, "scan_zeros", dropped)
    totals = zero_sweep.sweep([character(4, 1)], 15.0)
    assert totals["reference"] == 3 and totals["found"] == 2
    (name, a, b), = totals["missed"]
    assert name == "4:1" and a < 6.0209 < b
