import os
import stat

from factorrace._csvio import write_csv


def test_write_csv_bytes_and_mode_follow_umask(tmp_path):
    path = tmp_path / "a.csv"
    old = os.umask(0o022)
    try:
        write_csv(str(path), "x,y", ["1,2", "# label", "3,4"], "config=abc")
    finally:
        os.umask(old)
    assert path.read_bytes() == b"# config=abc\nx,y\n1,2\n# label\n3,4\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    assert os.listdir(tmp_path) == ["a.csv"]  # no temp file left behind
