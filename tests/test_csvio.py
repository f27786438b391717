import os
import stat
import sys
import tracemalloc

import numpy as np
import pytest

from factorrace._csvio import CHUNK_LINES, write_csv
from factorrace.sieve import ClassSums, write_checkpoints_csv


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


def _joined_bytes(header, rows, comment):
    """What the writer wrote when it joined every line into one text."""
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    lines.extend(rows)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 3 * CHUNK_LINES + 7])
@pytest.mark.parametrize("comment", [None, "config=abc"])
def test_chunked_writer_bytes_equal_the_joined_text(tmp_path, n_rows, comment):
    rows = [f"{i},{i * i},-{i}" for i in range(n_rows)]
    path = tmp_path / "a.csv"
    write_csv(str(path), "x,y,z", iter(rows), comment)
    assert path.read_bytes() == _joined_bytes("x,y,z", rows, comment)


def test_checkpoint_writer_holds_one_chunk(tmp_path):
    """A 100k-row checkpoints.csv: the writer's traced peak stays below a
    quarter of the file size.  Holding every row string, each
    sys.getsizeof("") bytes beyond its text, and then the joined text took
    more than three times the file size."""
    q, n = 2003, 50
    rng = np.random.default_rng(7)
    sums = ClassSums(
        q=q,
        x_max=10**9,
        checkpoints=tuple(range(10**8, 10**8 + n)),
        counts=rng.integers(0, 10**9, size=(2, n, q)),
    )
    path = tmp_path / "checkpoints.csv"
    tracemalloc.start()
    try:
        write_checkpoints_csv(sums, str(path), comment="config=abc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    rows = (
        f"{x},{a},{w},{b}"
        for x, ws, bs in zip(sums.checkpoints, *sums.counts.tolist())
        for a, (w, b) in enumerate(zip(ws, bs))
    )
    assert data == _joined_bytes("x,a,S_omega,S_Omega", rows, "config=abc")
    assert n * q * sys.getsizeof("") > len(data) > 2_000_000  # the string headers alone outweigh the file
    assert peak < len(data) / 4, (peak, len(data))
