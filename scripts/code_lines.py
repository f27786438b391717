"""Count the code lines of Python files.

A code line is a line that carries a token other than a comment, a line
break or indentation and outside every docstring, where a docstring is any
string expression statement (module, class and function docstrings, and
bare strings used as comments).  A token that spans lines, such as a
triple-quoted string argument, carries each line it spans.  Prints one line
per file, `count path`, and the total of all files last.

    python scripts/code_lines.py src/factorrace/*.py
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = {
        (node.lineno, node.col_offset): (node.end_lineno, node.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    lines: set[int] = set()
    skip_to = (0, 0)  # the end of the last docstring reached
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        skip_to = max(skip_to, docstrings.get(tok.start, skip_to))
        if tok.type not in _LAYOUT and tok.start >= skip_to:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> dict[str, int]:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="Python source files")
    args = ap.parse_args(argv)
    counts = {}
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            counts[path] = code_lines(fh.read())
        print(f"{counts[path]:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
    return counts


if __name__ == "__main__":
    main()
