"""Small CSV/file helpers shared by the output writers."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from itertools import chain

__all__ = ["fmt_float", "write_csv"]

CHUNK_LINES = 1024  # lines joined and written at a time


def fmt_float(v: float) -> str:
    """17 significant digits: enough for a bit-exact binary64 round trip."""
    return format(float(v), ".17g")


def write_csv(path: str, header: str, rows: Iterable[str], comment: str | None = None) -> None:
    """Write `# comment` (when given), the header and the pre-formatted
    rows, one per line, via a temp file in the same directory + rename, so
    readers never see a partially written file and an interrupt leaves no
    torn output.

    The lines are joined and written CHUNK_LINES at a time, and a row that
    is a block of lines as it comes, so a writer that passes a generator of
    rows never holds more than one chunk and one block.  The file gets the
    mode a plain `open` would give (0o666 less the umask), not the 0o600 of
    `mkstemp`.  Reading the umask sets it for the whole process for a
    moment, which is safe because the program has one thread.
    """
    lines = chain([f"# {comment}"] if comment else [], [header], rows)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            chunk = []
            for line in lines:
                chunk.append(line)
                if len(chunk) == CHUNK_LINES or "\n" in line:
                    fh.write("\n".join(chunk) + "\n")
                    chunk.clear()
            if chunk:
                fh.write("\n".join(chunk) + "\n")
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
