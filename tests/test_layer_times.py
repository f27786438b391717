"""scripts/layer_times.py at tiny sizes, so a rename of the private sieve
names it imports fails here rather than in the script."""

import importlib.util
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
    result = layer_times.main(["--xmax", "200000", "--lo", "65536", "--repeat", "1", "--q", str(q)])
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
    assert set(result["l_value_us"]) == set(result["head_length"]) == {"q4_t200", "q163_t30"}
    assert all(us > 0 for us in result["l_value_us"].values())
    assert all(isinstance(n, int) and n >= 1 for n in result["head_length"].values())
    assert '"sign_fold_ms"' in capsys.readouterr().out


def test_refuses_an_index_that_is_not_a_real_character(layer_times, capsys):
    with pytest.raises(SystemExit) as info:
        layer_times.main(["--xmax", "200000", "--lo", "65536", "--repeat", "1", "--q", "1000", "--chi", "1"])
    assert info.value.code == 2
    assert "real non-principal" in capsys.readouterr().err
