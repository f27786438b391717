import filecmp
import hashlib
import os
import subprocess
import sys

import pytest

from factorrace import cli, density
from factorrace.characters import conjugate_index, enumerate_characters
from factorrace.zeros import FORMAT_VERSION, MissedZeroError

BASE = ["--xmax", "50000", "--q", "4", "--T", "15", "--T0", "10", "--trials", "1000"]


def run(tmp, cmd, *extra):
    return cli.main([cmd, "--out", str(tmp)] + BASE + list(extra))


def read_data_rows(path):
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def test_sieve_toy_twist(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["sieve", "--out", str(out), "--xmax", "10", "--q", "4"])
    assert rc == 0
    rows = read_data_rows(out / "twists.csv")[1:]
    by_idx = {r.split(",")[2]: r.split(",") for r in rows}
    assert by_idx["1"][0] == "10"
    assert float(by_idx["1"][5]) == 1.0  # psi_Omega(10, chi_-4) = 1
    assert float(by_idx["1"][3]) == 0.0  # psi_omega(10, chi_-4) = 0


def test_sieve_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "sieve") == 0
    assert run(b, "sieve") == 0
    for name in ("checkpoints.csv", "twists.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_sieve_xmax_zero_headers_only(tmp_path):
    out = tmp_path / "z"
    assert cli.main(["sieve", "--out", str(out), "--xmax", "0", "--q", "4"]) == 0
    rows = read_data_rows(out / "checkpoints.csv")
    assert rows == ["x,a,S_omega,S_Omega\n"]
    rows = read_data_rows(out / "twists.csv")
    assert len(rows) == 1


def test_zeros_counts_and_idempotence(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "zeros") == 0
    first = (out / "zeros_q4_chi1.csv").read_bytes()
    assert b"count=6" in first
    capsys.readouterr()
    assert run(out, "zeros") == 0
    assert "cached" in capsys.readouterr().out
    assert (out / "zeros_q4_chi1.csv").read_bytes() == first


def test_zeros_reuses_a_cache_scanned_higher(tmp_path, capsys):
    out = tmp_path / "o"
    common = ["--out", str(out), "--xmax", "50000", "--q", "4"]
    assert cli.main(["zeros"] + common + ["--T", "15", "--T0", "10"]) == 0
    scanned = (out / "zeros_q4_chi1.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["zeros"] + common + ["--T", "10", "--T0", "10"]) == 0
    assert "cached" in capsys.readouterr().out
    assert (out / "zeros_q4_chi1.csv").read_bytes() == scanned
    assert cli.main(["sieve"] + common) == 0
    assert cli.main(["compare"] + common + ["--T", "15", "--T0", "15"]) == 0


def test_zeros_t5_empty(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["zeros", "--out", str(out), "--q", "4", "--T", "5", "--T0", "1"]) == 0
    assert b"count=0" in (out / "zeros_q4_chi1.csv").read_bytes()


def test_compare_requires_sieve_output(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "compare") == cli.EXIT_IO
    assert "sieve" in capsys.readouterr().err


def test_compare_requires_zero_cache(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "sieve") == 0
    assert run(out, "compare") == cli.EXIT_IO
    assert "zeros" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sieve_args",
    [
        ["--xmax", "20000"],  # checkpoints stop short of this config's x_max
        ["--chi", "0"],  # no rows for the compared character
        ["--q", "8"],  # another modulus
    ],
)
def test_compare_refuses_twists_of_another_config(tmp_path, capsys, sieve_args):
    out = tmp_path / "o"
    assert run(out, "sieve", *sieve_args) == 0
    assert run(out, "zeros") == 0
    capsys.readouterr()
    assert run(out, "compare") == cli.EXIT_IO
    assert "rerun `sieve`" in capsys.readouterr().err
    assert not any(name.startswith("compare_") for name in os.listdir(out))


def test_density_requires_zero_cache(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "density") == cli.EXIT_IO
    assert "zeros" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["compare", "density"])
def test_refuses_zero_cache_scanned_below_t0(tmp_path, capsys, cmd):
    out = tmp_path / "o"
    scanned = ["--out", str(out), "--xmax", "100000", "--T", "15", "--T0", "10"]
    assert cli.main(["sieve"] + scanned) == 0
    assert cli.main(["zeros"] + scanned) == 0
    capsys.readouterr()
    argv = [cmd, "--out", str(out), "--xmax", "100000", "--T", "50", "--T0", "50"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "rerun `zeros` with a larger --T" in capsys.readouterr().err
    assert not (out / "mc.csv").exists()
    assert not (out / "meansq.csv").exists()


@pytest.mark.parametrize("cmd, target", [("compare", 1), ("density", 2)])
def test_refuses_another_characters_zero_cache(tmp_path, capsys, cmd, target):
    """At q=5 the cache of chi 3 copied over the target's file is refused (exit 4),
    and `zeros` rescans the target instead of reusing it."""
    out = tmp_path / "o"
    argv = ["--out", str(out), "--q", "5", "--xmax", "50000", "--T", "15", "--T0", "10", "--trials", "1000"]
    assert cli.main(["sieve"] + argv) == 0
    assert cli.main(["zeros"] + argv) == 0
    target_file = out / f"zeros_q5_chi{target}.csv"
    target_file.write_bytes((out / "zeros_q5_chi3.csv").read_bytes())
    capsys.readouterr()
    assert cli.main([cmd, "--chi", str(target)] + argv) == cli.EXIT_IO
    assert "rerun `zeros`" in capsys.readouterr().err
    assert not (out / "mc.csv").exists()
    assert not (out / "meansq.csv").exists()
    assert cli.main(["zeros", "--chi", str(target)] + argv) == 0
    assert "cached" not in capsys.readouterr().out
    assert target_file.read_text().startswith(f"# q=5 chi={target} T=15 ")


@pytest.mark.parametrize("version", range(1, int(FORMAT_VERSION)))
def test_a_cache_of_a_stale_version_is_rescanned_or_refused(tmp_path, capsys, version):
    """A cache whose header carries an earlier format version, written by
    another L-kernel or refinement (1 and 2 earlier L-kernels, 3 Illinois
    regula falsi, 4 Newton steps on the quarter-gap grid), is refused by
    `compare` and `density` (exit 4) and rescanned by `zeros` and `all`, so
    two versions' bits never mix."""
    out = tmp_path / "o"
    assert run(out, "sieve") == 0
    assert run(out, "zeros") == 0
    path = out / "zeros_q4_chi1.csv"
    fresh = path.read_bytes()
    stale = fresh.replace(f"version={FORMAT_VERSION}\n".encode(), f"version={version}\n".encode(), 1)
    assert stale != fresh
    for cmd in ("compare", "density"):
        path.write_bytes(stale)
        capsys.readouterr()
        assert run(out, cmd) == cli.EXIT_IO
        assert f"version '{version}'" in capsys.readouterr().err
        assert not (out / "meansq.csv").exists() and not (out / "mc.csv").exists()
    for cmd in ("zeros", "all"):
        path.write_bytes(stale)
        capsys.readouterr()
        assert run(out, cmd) == 0
        assert "cached" not in capsys.readouterr().out
        assert path.read_bytes() == fresh


def test_compare_refuses_a_truncated_twists_row(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "sieve") == 0
    assert run(out, "zeros") == 0
    path = out / "twists.csv"
    text = path.read_text()
    path.write_text(text[: text.rindex(",", 0, len(text) - 1)] + "\n")  # drop the last field
    capsys.readouterr()
    assert run(out, "compare") == cli.EXIT_IO
    assert "rerun `sieve`" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["compare", "density"])
def test_refuses_a_zero_cache_missing_its_last_row(tmp_path, capsys, cmd):
    out = tmp_path / "o"
    assert run(out, "sieve") == 0
    assert run(out, "zeros") == 0
    path = out / "zeros_q4_chi1.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    capsys.readouterr()
    assert run(out, cmd) == cli.EXIT_IO
    assert "rerun `zeros`" in capsys.readouterr().err
    assert not (out / "mc.csv").exists()
    assert not (out / "meansq.csv").exists()


def test_compare_rows_per_checkpoint(tmp_path):
    out = tmp_path / "o"
    assert run(out, "sieve") == 0
    assert run(out, "zeros") == 0
    assert run(out, "compare") == 0
    n_cp = len({ln.split(",")[0] for ln in read_data_rows(out / "checkpoints.csv")[1:]})
    for kind in ("omega", "Omega"):
        rows = read_data_rows(out / f"compare_{kind}_q4_chi1_T10.csv")[1:]
        assert len(rows) == n_cp
    meansq = read_data_rows(out / "meansq.csv")
    assert meansq[0] == "T0,Y,M\n"
    assert len(meansq) == 3  # header + one entry per kind


def test_full_pipeline_and_thread_determinism(tmp_path):
    outs = [tmp_path / n for n in ("a", "b", "c")]
    assert run(outs[0], "all", "--threads", "1") == 0
    assert run(outs[1], "all", "--threads", "1") == 0
    assert run(outs[2], "all", "--threads", "4") == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) == sorted(os.listdir(outs[2]))
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
        assert filecmp.cmp(outs[0] / name, outs[2] / name, shallow=False), name


def test_density_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(out, "zeros") == 0
    capsys.readouterr()
    assert run(out, "density") == 0
    # a correct mod-4 run agrees with the model over the same range of x
    assert "WARNING" not in capsys.readouterr().out
    dens_rows = read_data_rows(out / "density.csv")
    assert dens_rows[0] == "X,delta_omega,delta_Omega\n"
    assert len(dens_rows) > 2
    mc_rows = read_data_rows(out / "mc.csv")
    assert mc_rows[0] == "y,p_neg,trials,seed,kind\n"
    assert any(",omega" in r for r in mc_rows[1:])
    assert any(",Omega" in r for r in mc_rows[1:])


def test_density_reports_each_character_against_its_own_model(tmp_path, monkeypatch):
    """At q = 24 two primitive real characters share one run; each is judged against its own MC."""
    current, built, judged = {}, [], []

    def build_model(chi, *args):
        current["chi"] = chi.index
        return density.build_model(chi, *args)

    def li_monte_carlo(*args):
        draw = density.li_monte_carlo(*args)
        built.extend((current["chi"], est) for est in draw.estimates)
        return draw

    def disagrees(dens, mc):
        judged.append((current["chi"], dens.chi_index, mc))
        return density.disagrees(dens, mc)

    for fn in (build_model, li_monte_carlo, disagrees):
        monkeypatch.setattr(cli, fn.__name__, fn)
    argv = ["--out", str(tmp_path), "--q", "24", "--chi", "all", "--xmax", "50000", "--T", "15", "--T0", "15"]
    assert cli.main(["zeros"] + argv) == 0
    assert cli.main(["density", "--trials", "1000"] + argv) == 0
    primitive = [c.index for c in enumerate_characters(24) if c.is_real and c.is_primitive]
    assert len(primitive) == 2
    assert [chi for chi, _, _ in judged] == [chi for chi in primitive for _ in range(2)]
    for chi in primitive:
        own = [est for c, est in built if c == chi]
        mine = [(trace_chi, mc) for c, trace_chi, mc in judged if c == chi]
        assert [m.kind for m in own] == ["omega", "Omega"]
        assert all(trace_chi == chi and mc is est for (trace_chi, mc), est in zip(mine, own))


@pytest.mark.parametrize("cmd, xmax", [("all", "1"), ("all", "0"), ("density", "1")])
def test_run_below_x_2_compares_nothing(tmp_path, cmd, xmax):
    """Below x = 2 the Monte Carlo grid is empty: the run still writes density.csv
    and a header-only mc.csv, and exits 0."""
    argv = ["--out", str(tmp_path), "--q", "4", "--xmax", xmax, "--T", "10", "--T0", "10", "--trials", "1000"]
    if cmd == "density":
        assert cli.main(["zeros"] + argv) == 0
    assert cli.main([cmd] + argv) == 0
    assert read_data_rows(tmp_path / "mc.csv") == ["y,p_neg,trials,seed,kind\n"]
    assert read_data_rows(tmp_path / "density.csv")[0] == "X,delta_omega,delta_Omega\n"


# sha256 of every CSV of GOLDEN_RUN.  A change that moves output bits on
# purpose updates these digests and says so.
GOLDEN_RUN = ["all", "--q", "24", "--chi", "all", "--xmax", "20000", "--T", "15", "--T0", "15", "--trials", "1000"]
GOLDEN_SHA256 = {
    "checkpoints.csv": "424b1faaae06d27437161f15d4c4457210f395a5600d4f2d28904645a2dc7003",
    "compare_Omega_q24_chi3_T15.csv": "906bc628f30cdd5a2cf94058a1281bb29a7dfecb4aeb5d8fa378397318351959",
    "compare_Omega_q24_chi7_T15.csv": "c257194f2baa588637712da1e44cca7ed43315d9f7a159a50451c1c233c5d2d1",
    "compare_omega_q24_chi3_T15.csv": "65c2db7041cf2a0aed3c368f4b774e9c73860e4ce9bc9fe3997ea8f32f1a046b",
    "compare_omega_q24_chi7_T15.csv": "e361f6aff6cccbde81ae5e4c6262cb911c52a031c528ed00cac393289c5e2699",
    "density.csv": "8c8b1a70e70d9da1aaf11494138b5f623feb1d72e07cd7d9591473aa26dd0e03",
    "mc.csv": "c0574e2c1fc66d2725dab9c952f3cdf5bb1ddebfc64098d21f94bdcd861236c7",
    "meansq.csv": "05bc922cc1afd9e92c97d703971fc233a00068d02d3a0ef0e1a2e90a70efdfaf",
    "twists.csv": "d7d526360b316ea3e8737251b80732306dd36185c61c8a23dea1b76a2091ab65",
    "zeros_q24_chi3.csv": "b98d5745a12fdca08a10bdb02eba75244a9cdfbaf2569ead5ca770922937ef54",
    "zeros_q24_chi7.csv": "07abb6ee0c6f9faeda1688643a480ce0dea2a14fdda9b39596d36e00c7ae5862",
}


def test_golden_bytes(tmp_path):
    assert cli.main(GOLDEN_RUN + ["--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert digests == GOLDEN_SHA256


# sha256 of twists.csv for every character mod 1000, complex ones included
# (the q=24 characters of GOLDEN_RUN are all real), and of the class sums
# of the same run
GOLDEN_TWISTS_Q1000 = "4d746df21f932f32de338a67e4e239d662c3bdc264f42be577ee846ed34c5feb"
GOLDEN_CHECKPOINTS_Q1000 = "b6d38dee4ac63121b0fd53fd33eb806f06278fb1c2941bbbce1fccacb228b7f7"


def test_golden_complex_twists(tmp_path):
    argv = ["sieve", "--q", "1000", "--chi", "all", "--xmax", "30000", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256((tmp_path / "checkpoints.csv").read_bytes()).hexdigest() == GOLDEN_CHECKPOINTS_Q1000
    assert hashlib.sha256((tmp_path / "twists.csv").read_bytes()).hexdigest() == GOLDEN_TWISTS_Q1000


def test_single_character_run_builds_one_character(tmp_path, monkeypatch, capsys):
    def refuse(q):
        raise AssertionError(f"every character mod {q} built for one --chi index")

    monkeypatch.setattr(cli, "enumerate_characters", refuse)
    argv = ["sieve", "--q", "1000", "--xmax", "2000", "--out", str(tmp_path), "--chi"]
    assert cli.main(argv + ["3"]) == 0
    assert read_data_rows(tmp_path / "twists.csv")[1].startswith("1000,1000,3,")
    assert cli.main(argv + ["400"]) == cli.EXIT_CONFIG
    assert "character index 400 out of range [0, 400) for q=1000" in capsys.readouterr().err


@pytest.mark.parametrize("q, t_max, budget", [(13, "100", 4200), (5, "200", 2100)])
def test_zeros_scans_a_conjugate_pair_once(tmp_path, scan_evals, q, t_max, budget):
    """`zeros --chi all` mirrors the cache of each complex pair's first member
    for the second: at q=13, T=100 it takes at most 4,200 L-evals and at q=5,
    T=200 at most 2,100, where scanning every complex character over
    [-T, T] took 7,836 and 3,448."""
    argv = ["zeros", "--q", str(q), "--chi", "all", "--T", t_max, "--T0", t_max, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(scan_evals.heights) <= budget
    assert len(list(tmp_path.glob(f"zeros_q{q}_chi*.csv"))) == q - 2


def test_a_mirrored_zero_cache_is_the_single_character_run(tmp_path):
    """Every zeros_q13_chi*.csv that `zeros --chi all` writes, five of them
    mirrored from the conjugate's cache, is byte for byte the file that
    `zeros --chi k` writes alone."""
    argv = ["zeros", "--q", "13", "--T", "30", "--T0", "30", "--chi"]
    assert cli.main(argv + ["all", "--out", str(tmp_path / "all")]) == 0
    for k in range(1, 12):
        assert cli.main(argv + [str(k), "--out", str(tmp_path / str(k))]) == 0
        name = f"zeros_q13_chi{k}.csv"
        assert (tmp_path / str(k) / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), k


def test_a_mirrored_characters_twists_alone_are_its_rows_of_all(tmp_path):
    """`sieve --chi k` for a mirrored character (its conjugate of lower index)
    twists the conjugate and mirrors it, as `--chi all` does: the same rows."""
    argv = ["sieve", "--q", "13", "--xmax", "20000", "--chi"]
    assert cli.main(argv + ["all", "--out", str(tmp_path / "all")]) == 0
    rows = read_data_rows(tmp_path / "all" / "twists.csv")[1:]
    mirrored = [chi.index for chi in enumerate_characters(13) if conjugate_index(chi) < chi.index]
    assert mirrored == [7, 8, 9, 10, 11]
    for k in mirrored:
        assert cli.main(argv + [str(k), "--out", str(tmp_path / str(k))]) == 0
        alone = read_data_rows(tmp_path / str(k) / "twists.csv")[1:]
        assert alone == [row for row in rows if row.split(",")[2] == str(k)]


def test_cli_run_loads_no_scipy(tmp_path):
    """A `zeros` run works with every scipy import made to fail, and loads no scipy module."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from factorrace import cli\n"
        "argv = ['zeros', '--q', '5', '--chi', '1', '--T', '10', '--T0', '10', '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--xmax", "100", "--q", "0"],
        ["sieve", "--xmax", "-5", "--q", "4"],
        ["zeros", "--q", "4", "--T", "10", "--T0", "50"],  # T0 > T
        ["zeros", "--q", "4", "--chi", "0", "--T", "10", "--T0", "5"],  # principal
        ["sieve", "--q", "4", "--chi", "banana"],
        ["all", "--q", "4", "--trials", "10"],
        ["sieve", "--q", "4", "--threads", "0"],
        ["sieve", "--xmax", "ten", "--q", "4"],
        ["zeros", "--q", "4", "--T", "2000"],  # above zeros.MAX_SCAN_HEIGHT
        ["zeros", "--q", "4", "--T", "0", "--T0", "0"],
        ["zeros", "--q", "4", "--T", "nan"],
        ["zeros", "--q", "4", "--T0", "nan"],
        ["zeros", "--q", "4", "--T0", "-5"],
        ["all", "--q", "4", "--xmax", "1000", "--seed", "-1"],
    ],
)
def test_config_errors_exit_2(tmp_path, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_segment_size_flag_is_retired(tmp_path):
    """The sieve owns its segment width; argparse refuses the old flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["sieve", "--segment-size", "65536", "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_CONFIG


def test_kind_flag_is_retired(tmp_path, capsys):
    """Both races always run: argparse refuses the old flag, and a config
    file refuses the old key."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--kind", "omega", "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = omega\n")
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "run.cfg:1: unknown key 'kind'" in capsys.readouterr().err


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xmax = 300\nq = 4\nT = 15\nT0 = 10\n# a comment\n")
    out = tmp_path / "o"
    assert cli.main(["sieve", "--config", str(cfg), "--out", str(out), "--xmax", "400"]) == 0
    rows = read_data_rows(out / "twists.csv")[1:]
    assert rows[-1].split(",")[0] == "400"  # override wins over the file


@pytest.mark.parametrize(
    "text, error",
    [
        ("bogus = 1\n", "run.cfg:1: unknown key 'bogus'"),
        ("T0 = 10\nT0 = 20\n", "run.cfg:2: repeated key 'T0'"),
        ("segment_size = 65536\n", "run.cfg:1: unknown key 'segment_size'"),
    ],
    ids=["unknown", "repeated", "retired"],
)
def test_config_file_unknown_key(tmp_path, capsys, text, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["sieve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert error in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert (
        cli.main(["sieve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        == cli.EXIT_IO
    )


def test_numeric_failure_exit_3(tmp_path, monkeypatch):
    def boom(chi, t, params=None):
        raise MissedZeroError("synthetic missed zero", windows=[3])

    monkeypatch.setattr(cli, "scan_zeros", boom)
    assert run(tmp_path / "o", "zeros") == cli.EXIT_NUMERIC


def test_config_hash_stable_across_threads_and_out(tmp_path):
    rc1 = cli._build_run_config(
        cli._make_parser().parse_args(["all", "--out", "x", "--threads", "1"] + BASE)
    )
    rc2 = cli._build_run_config(
        cli._make_parser().parse_args(["all", "--out", "y", "--threads", "8"] + BASE)
    )
    assert rc1.hash() == rc2.hash()
    rc3 = cli._build_run_config(
        cli._make_parser().parse_args(["all", "--out", "x", "--seed", "7"] + BASE)
    )
    assert rc3.hash() != rc1.hash()
    rc4, rc5 = (
        cli._build_run_config(cli._make_parser().parse_args(["sieve", "--q", "4", "--xmax", "5000", "--chi", chi]))
        for chi in ("1", "01")
    )
    assert rc4.hash() == rc5.hash() and rc4.chi == "1"


def test_config_hash_covers_trials():
    """mc.csv depends on --trials, so the hash does too."""
    hashes = {
        cli._build_run_config(cli._make_parser().parse_args(["all", "--trials", n])).hash()
        for n in ("1000", "50000")
    }
    assert len(hashes) == 2


def test_compare_refuses_twists_missing_one_characters_row(tmp_path, capsys):
    """Every target's x column must be the checkpoints, not just the union of
    all rows: a file without chi 3's last row is refused."""
    out = tmp_path / "o"
    argv = ["--out", str(out), "--q", "5", "--chi", "all", "--xmax", "20000", "--T", "15", "--T0", "10"]
    assert cli.main(["sieve"] + argv) == 0
    assert cli.main(["zeros"] + argv) == 0
    path = out / "twists.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[-1].startswith("20000,5,3,")
    path.write_text("".join(lines[:-1]))
    capsys.readouterr()
    assert cli.main(["compare"] + argv) == cli.EXIT_IO
    assert "rerun `sieve`" in capsys.readouterr().err
    assert not any(name.startswith("compare_") for name in os.listdir(out))


def test_all_refuses_a_bad_chi_before_the_sieve(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["all", "--out", str(out), "--q", "4", "--chi", "0", "--xmax", "100000", "--T", "10", "--T0", "10"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "not primitive non-principal" in capsys.readouterr().err
    assert not any(name.endswith(".csv") for name in os.listdir(out))
