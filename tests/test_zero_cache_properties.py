"""Property tests of the zero-cache format and its mirror, on examples drawn
the same way at every run (derandomized, no example database).

`==` takes -0.0 for 0.0, so the floats are compared by `float.hex`."""

import math

from hypothesis import given, settings, strategies as st

from factorrace.zeros import ZeroCache, ZeroRecord, conjugate_cache, load_cache, store_cache

PROPERTIES = settings(max_examples=200, derandomize=True, database=None, deadline=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals among them


@st.composite
def caches(draw):
    """A cache of a valid (q, index) with random finite records in strictly increasing gamma."""
    q = draw(st.integers(3, 100))
    index = draw(st.integers(0, sum(math.gcd(a, q) == 1 for a in range(q)) - 1))
    gammas = sorted(draw(st.lists(FINITE, max_size=8, unique=True)))  # 0.0 and -0.0 are one value here
    records = tuple(ZeroRecord(g, complex(draw(FINITE), draw(FINITE)), draw(FINITE)) for g in gammas)
    return ZeroCache(q, index, draw(st.floats(min_value=0.0, allow_infinity=False)), records)


def _bits(cache):
    rows = [(r.gamma, r.l_prime.real, r.l_prime.imag, r.residual) for r in cache.records]
    return cache.q, cache.chi_index, cache.t_scanned.hex(), [tuple(v.hex() for v in row) for row in rows]


@PROPERTIES
@given(cache=caches())
def test_a_stored_cache_loads_every_bit(tmp_path_factory, cache):
    path = str(tmp_path_factory.getbasetemp() / "cache.csv")
    store_cache(cache, path)
    loaded = load_cache(path)
    assert _bits(loaded) == _bits(cache)
    assert loaded.report is None


@PROPERTIES
@given(cache=caches())
def test_conjugate_cache_is_an_involution(cache):
    mirrored = conjugate_cache(cache)
    assert _bits(conjugate_cache(mirrored)) == _bits(cache)
    assert mirrored.report is None


def test_a_mirrored_scan_has_no_report(cache15):
    assert cache15.report is not None
    assert conjugate_cache(cache15).report is None
