import os
from types import SimpleNamespace

import pytest

from factorrace import zeros
from factorrace.characters import enumerate_characters
from factorrace.lfunction import l_value
from factorrace.zeros import scan_zeros


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, such as
    a sieve pass's helper; WNOWAIT looks without reaping."""
    yield
    if not hasattr(os, "waitid"):
        return
    try:
        state = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind: {state or 'one still running'}")


@pytest.fixture
def scan_evals(monkeypatch):
    """The L-evals of the scans a test runs, counted at `zeros.l_value`:
    `heights`, the s of each call in call order, and `refines`, the calls
    each `_refine` took, one entry per refinement."""
    record = SimpleNamespace(heights=[], refines=[])
    evaluate, refine = zeros.l_value, zeros._refine

    def counted_l_value(chi, s):
        record.heights.append(s)
        return evaluate(chi, s)

    def counted_refine(*args):
        before = len(record.heights)
        found = refine(*args)
        record.refines.append(len(record.heights) - before)
        return found

    monkeypatch.setattr("factorrace.zeros.l_value", counted_l_value)
    monkeypatch.setattr("factorrace.zeros._refine", counted_refine)
    return record


@pytest.fixture(scope="session")
def chi4():
    """The non-principal character mod 4."""
    return enumerate_characters(4)[1]


@pytest.fixture(scope="session")
def chi4_l_half(chi4):
    return l_value(chi4, 0.5)


@pytest.fixture(scope="session")
def cache15(chi4):
    return scan_zeros(chi4, 15.0)


@pytest.fixture(scope="session")
def cache100(chi4):
    return scan_zeros(chi4, 100.0)
