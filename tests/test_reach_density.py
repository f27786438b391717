"""scripts/reach_density.py at x_max = 1e5, so a rename of the DensityTrace
fields it reads fails here rather than in the script."""

import importlib.util
import json
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reach_density.py"


@pytest.fixture(scope="module")
def reach_density():
    spec = importlib.util.spec_from_file_location("reach_density", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_the_trace_under_its_json_keys(reach_density, monkeypatch, tmp_path, capsys):
    traces = []
    scan = reach_density.density_scan

    def recorded(cfg, chi):
        traces.append(scan(cfg, chi))
        return traces[-1]

    monkeypatch.setattr(reach_density, "density_scan", recorded)
    out = tmp_path / "reach_density.json"
    result = reach_density.main(["--xmax", "100000", "--out", str(out)])
    assert json.loads(out.read_text()) == result
    assert '"delta_omega"' in capsys.readouterr().out
    [trace] = traces
    assert list(result)[:10] == [
        "q",
        "chi_index",
        "x_max",
        "delta_omega",
        "delta_Omega",
        "C_omega",
        "C_Omega",
        "windowed",
        "psi_omega_final",
        "psi_Omega_final",
    ]
    assert (result["q"], result["chi_index"], result["x_max"]) == (4, 1, 100_000)
    assert result["delta_omega"] == trace.delta[0]
    assert result["delta_Omega"] == trace.delta[1]
    assert result["C_omega"] == (1 - trace.delta[0]) * math.log(100_000)
    assert result["C_Omega"] == (1 - trace.delta[1]) * math.log(100_000)
    assert list(result["windowed"]) == ["1000", "10000"]
    assert all(0.0 <= d <= 1.0 for window in result["windowed"].values() for d in window)
    assert (result["psi_omega_final"], result["psi_Omega_final"]) == trace.psi_final
