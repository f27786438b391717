"""scripts/code_lines.py on a small fixture whose code lines are known."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line

import math  # a trailing comment does not hide the code


def f(x):
    """Function docstring."""
    "a bare string is a docstring too"
    return math.floor(
        x
    )


print("""a string argument
is code on each of its lines""")
'''
CODE = 7  # import, def, return, x, ), and the two lines of print


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines(code_lines):
    assert code_lines.code_lines(FIXTURE) == CODE


def test_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(str(tmp_path / name))
        pathlib.Path(paths[-1]).write_text(FIXTURE)
    assert code_lines.main(paths) == {path: CODE for path in paths}
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{CODE:6d} {paths[0]}", f"{CODE:6d} {paths[1]}", f"{2 * CODE:6d} total"]
