"""scripts/layer_times.py at tiny sizes, so a rename of the private sieve and
L-kernel names it imports fails here rather than in the script."""

import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_times.py"


@pytest.fixture(scope="module")
def layer_times():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q, first_real", [(4, 1), (1000, 50)])
def test_defaults_to_the_first_real_character(layer_times, capsys, q, first_real):
    argv = ["--xmax", "200000", "--lo", "65536", "--repeat", "1", "--scan-t", "8", "--q", str(q)]
    result = layer_times.main(argv)
    assert result["chi_index"] == first_real
    assert result["length"] == 200_001 - 65536
    for kind, counts in result["blocks"].items():
        assert sum(counts.values()) == 3  # the last block is padded
        assert sum(result["paths"][kind].values()) == 3
    assert set(result["kernel_stages_ms"]) == {"dense", "sparse_primes", "sparse_powers", "split"}
    assert all(ms > 0 for ms in result["kernel_stages_ms"].values())
    pipeline = result["pipeline_ms"]
    assert pipeline["producer"] == result["sieve_segment_ms"] > 0
    assert pipeline["consumer"] == result["fold_classes_ms"] + result["sign_fold_ms"] > 0
    assert pipeline["bound"] == ("producer" if pipeline["producer"] >= pipeline["consumer"] else "consumer")
    points = {"q4_t200": 4, "q163_t30": 163, "q13_t100": 13}  # name: q
    assert set(result["l_value_us"]) == set(result["head_length"]) == set(result["exps"]) == set(points)
    assert all(us > 0 for us in result["l_value_us"].values())
    assert all(isinstance(n, int) and n >= 1 for n in result["head_length"].values())
    for name, q in points.items():  # one exponential per prime up to (N + 1) q
        size = (result["head_length"][name] + 1) * q
        assert result["exps"][name] == sum(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in range(2, size + 1))
    scan = result["scan"]
    assert (scan["q"], scan["chi_index"], scan["t_max"]) == (163, 81, 8.0)
    assert set(scan["evals"]) == {"grid", "rescan", "refine"}
    assert set(scan["seconds"]) == {"grid", "rescan", "refine", "total"}
    assert scan["zeros"] > 0 and scan["evals"]["grid"] > 0 and scan["evals"]["refine"] > 0
    assert scan["evals_per_zero"] == sum(scan["evals"].values()) / scan["zeros"]
    assert 0 < scan["seconds"]["grid"] + scan["seconds"]["rescan"] + scan["seconds"]["refine"] <= scan["seconds"]["total"]
    memory = result["memory"]
    mc, twists = memory["li_monte_carlo"], memory["write_twists_csv"]
    assert mc["amplitudes"] == 50 and set(mc["peak_bytes"]) == {"10000", "100000"}
    assert all(peak > 0 for peak in mc["peak_bytes"].values())
    assert (twists["q"], twists["checkpoints"], twists["characters"]) == (1000, 98, 400)
    assert twists["peak_bytes"] > 0
    assert set(result["writers_ms"]) == {"write_checkpoints_csv", "write_twists_csv", "twist"}
    assert all(ms > 0 for ms in result["writers_ms"].values())
    assert '"sign_fold_ms"' in capsys.readouterr().out


def test_refuses_an_index_that_is_not_a_real_character(layer_times, capsys):
    with pytest.raises(SystemExit) as info:
        layer_times.main(["--xmax", "200000", "--lo", "65536", "--repeat", "1", "--q", "1000", "--chi", "1"])
    assert info.value.code == 2
    assert "real non-principal" in capsys.readouterr().err
