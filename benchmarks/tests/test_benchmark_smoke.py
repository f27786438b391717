"""Tests of the benchmark itself, on the smoke sizes (a few seconds each)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, instance  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _factor_counts(n: int) -> tuple[int, int]:
    w = big = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            w += 1
            while n % p == 0:
                n //= p
                big += 1
        p += 1
    if n > 1:
        w, big = w + 1, big + 1
    return w, big


@pytest.mark.parametrize("q", [1, 4, 12, 30])
def test_class_sums_match_trial_division(q):
    x = 3000
    primes = oracle.primes_upto(x)
    want = [[0] * q, [0] * q]
    for n in range(2, x + 1):
        w, big = _factor_counts(n)
        want[0][n % q] += w
        want[1][n % q] += big
    for big in (False, True):
        assert oracle.class_sums(x, q, primes, big).tolist() == want[big]


def test_small_factor_counts_match_trial_division():
    w, big = oracle.small_factor_counts(2000)
    assert [(int(a), int(b)) for a, b in zip(w[2:], big[2:])] == [_factor_counts(n) for n in range(2, 2001)]


def test_reference_zero_counts_are_the_seed_counts():
    with open(oracle.REFERENCE, encoding="utf-8") as fh:
        zeros = json.load(fh)["zeros"]
    assert {k: len(v) for k, v in zeros.items()} == {"4:1": 244, "163:81": 56, "24:3": 68, "24:7": 68}


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "parent": None, "name": "zeros.scan_zeros", "start": 0.0, "end": 10.0, "attrs": {"found": 4}},
        {"id": 2, "parent": 1, "name": "lfunction.l_value", "start": 1.0, "end": 3.0, "attrs": None},
        {"id": 3, "parent": 1, "name": "lfunction.l_value", "start": 4.0, "end": 5.0, "attrs": None},
        {"id": 4, "parent": 1, "name": "characters.root_number", "start": 5.0, "end": 5.5, "attrs": None},
    ]
    assert self_times(spans) == {1: 6.5, 2: 2.0, 3: 1.0, 4: 0.5}
    m = layer_metrics(spans)
    assert m["zeros.scan_s"] == 6.5
    assert m["lfunction.l_value_calls"] == 2
    assert m["zeros.evals_per_zero"] == 0.5


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (("factorrace.cli", "no_such_function", "cli.none"),))
    with pytest.raises(AttributeError):
        tracer.Tracer().install()


def test_span_cost_is_positive():
    assert 0 < tracer.span_cost_s(calls=2000, repeats=3) < 1e-3


def test_failed_probe_is_reported_not_raised():
    probes, error = run.run_probes(types.SimpleNamespace(name="no_such_workload", seed=0), smoke=True)
    assert probes == {}
    assert error.startswith("probes exited with code") and "no_such_workload" in error


def test_seed_zero_is_the_reference_config_and_jitter_only_shrinks():
    for name, w in WORKLOADS.items():
        base = instance(name, 0)
        assert (base.x_max, base.t_scan, base.mc_seed) == (w.x_max, w.t_scan, 42)
        for seed in (1, 2, 99):
            inst = instance(name, seed)
            assert inst.mc_seed == seed
            if w.x_max is not None:
                assert 0.99 * w.x_max <= inst.x_max <= w.x_max
            if w.t_scan is not None:
                assert 0.99 * w.t_scan <= inst.t_scan <= w.t_scan
            assert inst == instance(name, seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_correct_result(name):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_gives_every_layer_metric():
    proc = _bench("--workload", "q24_multichar", "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["sieve.passes"] == 7
    assert metrics["zeros.found"] > 0 and metrics["lfunction.l_value_calls"] > 0


def _corrupt(path: str, line_no: int, column: int, change) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[line_no].split(",")
    cells[column] = change(cells[column])
    lines[line_no] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPTIONS = {
    "class sum at x_max": ("checkpoints.csv", -1, 2, lambda v: str(int(v) + 1)),
    "twist at x_max": ("twists.csv", -1, 5, lambda v: repr(float(v) + 1.0)),
    "zero ordinate": ("zeros_q4_chi1.csv", -1, 0, lambda v: repr(float(v) + 1e-6)),
    "zero residual": ("zeros_q4_chi1.csv", 2, 3, lambda v: "1e-9"),
    "density": ("density.csv", 5, 1, lambda v: repr(float(v) * (1 + 1e-9))),
    "compare main term": ("compare_omega_q4_chi1_T10.csv", 4, 3, lambda v: repr(float(v) * (1 + 1e-6))),
    "meansq": ("meansq.csv", 3, 2, lambda v: repr(float(v) * 1.001)),
    "monte carlo": ("mc.csv", -1, 1, lambda v: repr(float(v) - 0.05)),
}


@pytest.fixture(scope="module")
def mod4_smoke_output(tmp_path_factory):
    inst = instance("mod4_race", 0, smoke=True)
    sample = run.spawn(inst, str(tmp_path_factory.mktemp("mod4") / "out"))
    assert sample.exit_code == 0
    assert oracle.check(inst, sample.out) == []
    return inst, sample.out


@pytest.mark.parametrize("what", sorted(CORRUPTIONS))
def test_oracle_rejects_corrupted_output(what, mod4_smoke_output, tmp_path):
    inst, out = mod4_smoke_output
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    name, line_no, column, change = CORRUPTIONS[what]
    _corrupt(os.path.join(bad, name), line_no, column, change)
    assert oracle.check(inst, bad), what


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "mod4_race", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no factorrace sources" in proc.stderr


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in bench["workloads"])


def test_wrong_program_is_reported_incorrect(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    sieve = tmp_path / "src" / "factorrace" / "sieve.py"
    text = sieve.read_text(encoding="utf-8")
    assert "            pk *= p\n" in text
    sieve.write_text(text.replace("            pk *= p\n", "            pk *= p * p\n", 1), encoding="utf-8")
    args = ("--workload", "wide_q_twists", "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke")
    proc = _bench(*args, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "class sums differ" in proc.stdout


def test_missing_config_hook_fails_every_sample(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "factorrace" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace("_build_run_config", "_resolve_config"), encoding="utf-8")
    args = ("--workload", "q163_zeros", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke")
    proc = _bench(*args, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "FAIL sample0: exit code 1" in proc.stdout
