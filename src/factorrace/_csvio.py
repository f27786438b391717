"""Small CSV/file helpers shared by the output writers."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable

__all__ = ["fmt_float", "atomic_write_text", "write_csv"]


def fmt_float(v: float) -> str:
    """17 significant digits: enough for a bit-exact binary64 round trip."""
    return format(float(v), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory + rename, so readers never
    see a partially written file and an interrupt leaves no torn output.

    The file gets the mode a plain `open` would give (0o666 less the umask),
    not the 0o600 of `mkstemp`.  Reading the umask sets it for the whole
    process for a moment, which is safe because the program has one thread.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    """Atomically write `# comment` (when given), the header and the
    pre-formatted rows, one per line."""
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    lines.extend(rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
