"""Small CSV/file helpers shared by the output writers."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

__all__ = ["fmt_float", "csv_writer", "write_csv"]

CHUNK_LINES = 1024  # lines joined and written at a time


def fmt_float(v: float) -> str:
    """17 significant digits: enough for a bit-exact binary64 round trip."""
    return format(float(v), ".17g")


@contextmanager
def csv_writer(path: str, header: str, comment: str | None = None) -> Iterator[Callable[[Iterable[str]], None]]:
    """A CSV file written in steps: `# comment` (when given) and the header
    first, then the pre-formatted rows, one per line, of each call of the
    `write(rows)` this yields.

    The file is a temp file in the same directory until the block ends,
    then renamed over `path`; an exception in the block, or an interrupt,
    unlinks it, so readers never see a partially written file and a file
    already at `path` keeps its bytes.  Each call joins and writes its
    lines CHUNK_LINES at a time, and a row that is a block of lines as it
    comes, so a generator of rows is never held whole.  The file gets the
    mode a plain `open` would give (0o666 less the umask), not the 0o600 of
    `mkstemp`.  Reading the umask sets it for the whole process for a
    moment, which is safe because the program has one thread.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:

            def write(rows: Iterable[str]) -> None:
                chunk = []
                for line in rows:
                    chunk.append(line)
                    if len(chunk) == CHUNK_LINES or "\n" in line:
                        fh.write("\n".join(chunk) + "\n")
                        chunk.clear()
                if chunk:
                    fh.write("\n".join(chunk) + "\n")

            fh.write(f"# {comment}\n{header}\n" if comment else f"{header}\n")
            yield write
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: str, rows: Iterable[str], comment: str | None = None) -> None:
    """The whole file at once: `csv_writer` with one call of its `write`."""
    with csv_writer(path, header, comment) as write:
        write(rows)
